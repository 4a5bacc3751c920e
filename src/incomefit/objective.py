"""Regularized loss of a candidate parametrization against the data.

A search point x = (p, alpha, T) is resolved into a full model by
interpolating the crossover income at fraction p on the empirical CCDF
and setting lam = exp(-m_c/T). The loss is the root mean squared log
error between empirical and model CCDF over the class statistic
(excluding its top point), plus two penalties: one forcing the model's
exponential-body mean to match the restricted empirical mean, one
forcing lam to match the crossover fraction p.

Degenerate evaluations (no incomes below the crossover, exponent
overflow, single-knot CCDF) return a large sentinel total instead of
raising, so a population optimizer can keep ranking candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ccdf import (
    DEFAULT_CLASS_POINTS,
    EmpiricalCcdf,
    IncomeSample,
    build_ccdf,
    empirical_mean,
)
from .model import TwoClassParams, exponential_regime_mean, _EXP_OVERFLOW

SENTINEL_LOSS = 1.0e6


@dataclass(frozen=True)
class SearchPoint:
    """Optimizer coordinates: crossover fraction, Pareto index, temperature."""

    p: float
    alpha: float
    temperature: float


@dataclass(frozen=True)
class LossBreakdown:
    """Loss components at one search point.

    ``total = rmsle + mean_penalty + fraction_penalty`` always holds;
    degenerate evaluations carry the sentinel in ``rmsle`` and set the
    flag.
    """

    rmsle: float
    mean_penalty: float
    fraction_penalty: float
    total: float
    params: TwoClassParams | None
    crossover: float | None
    degenerate: bool = False

    @classmethod
    def sentinel(cls) -> "LossBreakdown":
        return cls(SENTINEL_LOSS, 0.0, 0.0, SENTINEL_LOSS, None, None, True)


class FitContext:
    """Precomputed empirical quantities shared by all loss evaluations.

    Holding the class statistic, its log CCDF values and running sums
    up front keeps evaluations cheap, which matters when a swarm calls
    the loss thousands of times. Immutable after construction and safe
    to share.

    ``loss_at`` evaluates one point exactly from the residual array and
    backs every reported number; ``objective_batch`` evaluates a whole
    population from the running sums, in time independent of k, and
    drives the optimizer.
    """

    def __init__(self, sample: IncomeSample, k: int = DEFAULT_CLASS_POINTS):
        if k < 2:
            raise ValueError(f"need at least 2 class points, got {k}")
        self.sample = sample
        self.k = min(int(k), sample.n)
        self.ccdf = build_ccdf(sample, self.k)
        # a single CCDF knot leaves no crossover to interpolate
        self.single_knot = self.ccdf.incomes.size < 2
        points = self.ccdf.class_points
        self.fit_points = points[:-1].copy()  # top class point excluded
        self.fit_log_income = np.log(self.fit_points)
        fractions = self.ccdf.evaluate(self.fit_points)
        self.fit_log_fraction = np.log(fractions)
        self.mean = sample.mean

        # Running sums for objective_batch: column s sums the body points
        # [0, s) in rows 0-2 and the tail points [s, end) in rows 3-8.
        # Body residuals y + x/T expand into sums of y^2, xy and x^2. Tail
        # residuals are expanded about the means of y and u = log x, as
        # w = y - mean(y) and v = u - mean(u), which keeps the
        # cancellation near an optimum small.
        x, y = self.fit_points, self.fit_log_fraction
        self._y_mean = float(y.mean())
        self._u_mean = float(self.fit_log_income.mean())
        w = y - self._y_mean
        v = self.fit_log_income - self._u_mean
        tail_terms = np.array([np.ones_like(x), w, v, w * v, v * v, w * w])
        self._sums = np.zeros((9, x.size + 1))
        self._sums[:3, 1:] = np.cumsum([y * y, x * y, x * x], axis=1)
        self._sums[3:, :-1] = np.cumsum(tail_terms[:, ::-1], axis=1)[:, ::-1]

    def log_residuals(self, temperature: float, crossover: float, log_lam: float,
                      alpha: float) -> tuple[np.ndarray, int]:
        """Empirical minus model log CCDF at the fit points, and the split index.

        Points below ``crossover`` take the exponential body -m/T, the
        rest the Pareto tail log_lam - alpha*log(m/crossover); the split
        index is the first tail point. ``log_lam = -crossover/T`` gives
        the continuous model, any other value a two-part model with a
        jump at the crossover.
        """
        split = int(np.searchsorted(self.fit_points, crossover, side="left"))
        log_model = np.empty_like(self.fit_points)
        log_model[:split] = -self.fit_points[:split] / temperature
        log_model[split:] = log_lam - alpha * (self.fit_log_income[split:] - math.log(crossover))
        return self.fit_log_fraction - log_model, split

    def residual_rmsle(self, temperature: float, crossover: float, log_lam: float,
                       alpha: float) -> float:
        """Root mean square of ``log_residuals`` over all fit points."""
        r, _ = self.log_residuals(temperature, crossover, log_lam, alpha)
        return float(np.sqrt(np.mean(r * r)))

    def _resolve(self, p, alpha, temperature):
        """Crossover, exponent z = m_c/T, both penalties and validity per search point.

        A point is valid when 0 < p <= 1, T > 0, alpha > 1, m_c > 0, z
        does not overflow, some income lies below the crossover and the
        CCDF has more than one knot; NaN makes it invalid. Invalid points
        compute garbage under errstate, which callers mask.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m_c = self.ccdf.income_at(p)
            z = m_c / temperature
            count, total = self.sample.count_and_sum_below(m_c)
            theo_mean = temperature - m_c / np.expm1(z)
            mean_pen = np.abs(theo_mean / (total / count) - 1.0)
            frac_pen = np.abs(np.exp(-z) / p - 1.0)
        ok = ((p > 0.0) & (p <= 1.0) & (temperature > 0.0) & (alpha > 1.0)
              & (m_c > 0.0) & (z <= _EXP_OVERFLOW) & (count > 0) & (not self.single_knot))
        return m_c, z, mean_pen, frac_pen, ok

    def loss_at(self, p: float, alpha: float, temperature: float) -> LossBreakdown:
        """Evaluate the full loss; sentinel on degenerate configurations."""
        m_c, z, mean_pen, frac_pen, ok = self._resolve(
            np.array([p], dtype=float), alpha, temperature)
        if not ok[0]:
            return LossBreakdown.sentinel()
        m_c, z = float(m_c[0]), float(z[0])
        rmsle_val = self.residual_rmsle(temperature, m_c, -z, alpha)
        mean_pen, frac_pen = float(mean_pen[0]), float(frac_pen[0])
        params = TwoClassParams(math.exp(-z), temperature, alpha)
        return LossBreakdown(rmsle_val, mean_pen, frac_pen,
                             rmsle_val + mean_pen + frac_pen, params, m_c)

    def objective_batch(self, X) -> np.ndarray:
        """Loss totals of an (n, 3) array of search points, one per row.

        Agrees with ``loss_at(...).total`` to rounding and returns the
        sentinel under the same rules.
        """
        p, alpha, temperature = np.asarray(X, dtype=float).T
        m_c, z, mean_pen, frac_pen, ok = self._resolve(p, alpha, temperature)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            split = np.searchsorted(self.fit_points, m_c, side="left")
            yy, xy, xx, n_tail, w, v, wv, vv, ww = self._sums.take(split, axis=1)
            inv_t = 1.0 / temperature
            sq_body = yy + inv_t * (2.0 * xy + inv_t * xx)
            # tail residual y + z + alpha*(u - log m_c) = w + alpha*v + a
            a = self._y_mean + z - alpha * (np.log(m_c) - self._u_mean)
            sq_tail = (ww + alpha * (2.0 * wv + alpha * vv)
                       + a * (2.0 * (w + alpha * v) + n_tail * a))
            rmsle_val = np.sqrt(np.maximum(sq_body + sq_tail, 0.0) / self.fit_points.size)
        return np.where(ok, rmsle_val + mean_pen + frac_pen, SENTINEL_LOSS)


def resolve_params(x: SearchPoint, ccdf: EmpiricalCcdf) -> tuple[TwoClassParams, float]:
    """Turn a search point into model parameters via the empirical CCDF.

    The crossover income is the interpolated inverse CCDF at fraction p
    and the top fraction follows from continuity, lam = exp(-m_c/T).
    """
    if ccdf.incomes.size < 2:
        raise ValueError("degenerate CCDF: fewer than two distinct incomes")
    m_c = ccdf.inverse(x.p)
    if m_c <= 0.0:
        raise ValueError(f"interpolated crossover is non-positive: {m_c}")
    z = m_c / x.temperature
    if z > _EXP_OVERFLOW:
        raise ValueError("top fraction underflows: crossover far above temperature scale")
    return TwoClassParams(math.exp(-z), x.temperature, x.alpha), m_c


def rmsle(empirical, model) -> float:
    """Root mean squared logarithmic error between two CCDF vectors."""
    emp = np.asarray(empirical, dtype=float)
    mod = np.asarray(model, dtype=float)
    if emp.shape != mod.shape:
        raise ValueError("empirical and model vectors must have equal length")
    if np.any(emp <= 0.0) or np.any(mod <= 0.0):
        raise ValueError("CCDF values must be strictly positive")
    r = np.log(emp) - np.log(mod)
    return float(np.sqrt(np.mean(r * r)))


def l1_penalty(temperature: float, crossover: float, sample: IncomeSample) -> float:
    """Relative mismatch between model and data body means.

    |theoretical exponential-body mean / restricted empirical mean - 1|,
    the restricted mean running over incomes strictly below the crossover.
    """
    body_mean = empirical_mean(sample, upper_cutoff=crossover)
    return abs(exponential_regime_mean(temperature, crossover) / body_mean - 1.0)


def l2_penalty(lam: float, p: float) -> float:
    """Relative mismatch between the model top fraction and the crossover fraction."""
    if p <= 0.0:
        raise ValueError(f"crossover fraction must be positive, got {p}")
    return abs(lam / p - 1.0)


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
# The largest crossover fraction any fit searches: the Pareto class holds at
# most a fifth of people. Every point with p above it scores the sentinel.
P_MAX = 0.2


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


# Rows of the table lookups of one search point (see FitContext._lookup): crossover,
# count and sum of incomes below it, the 9 running sums at its split, then the
# context's constants y_mean, u_mean, fit-point count and usable flag.
_LOOKUP_ROWS = 16


class ClassResiduals:
    """Log residuals of a model on a sample's class statistic.

    Holds only the k-1 fit points (the top class point is excluded),
    their log incomes and their log empirical CCDF values.
    """

    def __init__(self, ccdf: EmpiricalCcdf):
        self.fit_points = ccdf.class_points[:-1].copy()
        self.fit_log_income = np.log(self.fit_points)
        self.fit_log_fraction = np.log(ccdf.evaluate(self.fit_points))

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


class FitContext(ClassResiduals):
    """Precomputed empirical quantities shared by all loss evaluations.

    Holding the class statistic, its log CCDF values and running sums
    up front keeps evaluations cheap, which matters when a swarm calls
    the loss thousands of times. Immutable after construction and safe
    to share.

    A context scores only search points with 0 < p <= ``P_MAX``, every
    other point the sentinel, so it keeps just what those read: the CCDF
    knots of fraction at most ``P_MAX`` plus the next one, the incomes
    from that knot's income up, and the class statistic. It holds no
    sample or CCDF.

    ``loss_at`` evaluates one point exactly from the residual array and
    backs the reported loss breakdown; ``stacked_objective`` scores whole
    populations on one or more contexts from their running sums, in time
    independent of k, and drives the optimizer.
    """

    def __init__(self, sample: IncomeSample, k: int = DEFAULT_CLASS_POINTS):
        if k < 2:
            raise ValueError(f"need at least 2 class points, got {k}")
        self.k = min(int(k), sample.n)
        ccdf = build_ccdf(sample, self.k)
        super().__init__(ccdf)
        # a single CCDF knot leaves no crossover to interpolate
        self.single_knot = ccdf.incomes.size < 2
        self.mean = sample.mean
        self.min_fraction = ccdf.min_fraction

        # Running sums for stacked_objective: column s sums the body points
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
        with np.errstate(over="ignore"):
            self._sums[:3, 1:] = np.cumsum([y * y, x * y, x * x], axis=1)
        if not np.isfinite(self._sums[2, -1]):
            raise ValueError("incomes too large: the squares of the class points overflow "
                             "a float")
        self._sums[3:, :-1] = np.cumsum(tail_terms[:, ::-1], axis=1)[:, ::-1]

        # Lookup tables, cut to what a point with p <= P_MAX reads: the
        # interpolated inverse CCDF, and the ascending incomes from index
        # _below up with their prefix sums.
        keep = min(int(np.searchsorted(ccdf._fr_asc, P_MAX, side="right")) + 1,
                   ccdf._fr_asc.size)
        self._fr_asc = ccdf._fr_asc[:keep].copy()
        self._inc_by_fr = ccdf._inc_by_fr[:keep].copy()
        self._below = int(np.searchsorted(sample.ascending, self._inc_by_fr[-1], side="left"))
        self._ascending = sample.ascending[self._below:].copy()
        self._prefix = sample._prefix[self._below:].copy()
        # lookup rows 12-15
        self._constants = np.array([self._y_mean, self._u_mean, float(self.fit_points.size),
                                    float(not self.single_knot)])

    def _lookup(self, p: np.ndarray) -> np.ndarray:
        """The ``_LOOKUP_ROWS`` table lookups of fractions ``p``, one column per point."""
        out = np.empty((_LOOKUP_ROWS, p.size))
        out[0] = m_c = np.interp(p, self._fr_asc, self._inc_by_fr)
        below = self._ascending.searchsorted(m_c, side="left")
        out[1] = below + self._below
        self._prefix.take(below, out=out[2])
        self._sums.take(self.fit_points.searchsorted(m_c, side="left"), axis=1, out=out[3:12])
        out[12:] = self._constants[:, None]
        return out

    def loss_at(self, p: float, alpha: float, temperature: float) -> LossBreakdown:
        """Evaluate the full loss; sentinel on degenerate configurations."""
        p_arr = np.array([p], dtype=float)
        lookup = self._lookup(p_arr)
        z, mean_pen, frac_pen, ok = _penalties(lookup, p_arr, alpha, temperature)
        if not ok[0]:
            return LossBreakdown.sentinel()
        m_c, z = float(lookup[0, 0]), float(z[0])
        rmsle_val = self.residual_rmsle(temperature, m_c, -z, alpha)
        mean_pen, frac_pen = float(mean_pen[0]), float(frac_pen[0])
        params = TwoClassParams(math.exp(-z), temperature, alpha)
        return LossBreakdown(rmsle_val, mean_pen, frac_pen,
                             rmsle_val + mean_pen + frac_pen, params, m_c)


def _penalties(lookup, p, alpha, temperature):
    """Exponent z = m_c/T, both penalties and validity per search point.

    A point is valid when 0 < p <= P_MAX, T > 0, alpha > 1, m_c > 0, z
    does not overflow, some income lies below the crossover and the
    CCDF has more than one knot; NaN makes it invalid. Invalid points
    compute garbage under errstate, which callers mask.
    """
    m_c, count, total = lookup[0], lookup[1], lookup[2]
    usable = lookup[15]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = m_c / temperature
        theo_mean = temperature - m_c / np.expm1(z)
        mean_pen = np.abs(theo_mean / (total / count) - 1.0)
        frac_pen = np.abs(np.exp(-z) / p - 1.0)
    ok = ((p > 0.0) & (p <= P_MAX) & (temperature > 0.0) & (alpha > 1.0)
          & (m_c > 0.0) & (z <= _EXP_OVERFLOW) & (count > 0) & (usable > 0.0))
    return z, mean_pen, frac_pen, ok


def stacked_objective(contexts, blocks) -> np.ndarray:
    """Loss totals of the (n_i, 3) search-point ``blocks``, block i scored on ``contexts[i]``.

    Each context looks up its own rows in its tables; the arithmetic then
    runs once over all rows, so each block scores bit for bit as it would
    stacked alone. Each value agrees with ``loss_at(...).total`` to
    rounding and is the sentinel under the same rules. Values come back
    concatenated in block order.
    """
    p, alpha, temperature = np.concatenate(blocks, dtype=float).T
    ends = np.cumsum([len(block) for block in blocks]).tolist()
    lookup = np.concatenate([context._lookup(p[end - len(block):end])
                             for context, block, end in zip(contexts, blocks, ends)], axis=1)
    m_c = lookup[0]
    yy, xy, xx, n_tail, w, v, wv, vv, ww = lookup[3:12]
    y_mean, u_mean, n_fit = lookup[12:15]
    z, mean_pen, frac_pen, ok = _penalties(lookup, p, alpha, temperature)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_t = 1.0 / temperature
        sq_body = yy + inv_t * (2.0 * xy + inv_t * xx)
        # tail residual y + z + alpha*(u - log m_c) = w + alpha*v + a
        a = y_mean + z - alpha * (np.log(m_c) - u_mean)
        sq_tail = (ww + alpha * (2.0 * wv + alpha * vv)
                   + a * (2.0 * (w + alpha * v) + n_tail * a))
        rmsle_val = np.sqrt(np.maximum(sq_body + sq_tail, 0.0) / n_fit)
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


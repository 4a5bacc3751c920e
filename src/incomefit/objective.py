"""Regularized loss of a candidate parametrization against the data.

A search point x = (p, alpha, T) is resolved into a full model by
interpolating the crossover income at fraction p on the empirical CCDF
and setting lam = exp(-m_c/T). The loss is the root mean squared log
error between empirical and model CCDF over the class statistic
(excluding its top point), plus two penalties: one forcing the model's
exponential-body mean to match the restricted empirical mean, one
forcing lam to match the crossover fraction p.

Every reported log error comes from one kernel over the class
statistic's running sums, in time independent of k: ``stacked_objective``
and its one-row case ``FitContext.loss_at``, and the per-side errors of
``ClassResiduals.split_errors`` on a training or out-of-bag statistic.

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
# context's constants y_mean, u_mean, fit-point count, usable flag and scale.
_LOOKUP_ROWS = 17


class ClassResiduals:
    """Running sums of the log residuals of a sample's class statistic.

    Holds the k-1 fit points (the top class point is excluded) and, for
    every split s of them, sums over the body points [0, s) in rows 0-2
    and over the tail points [s, end) in rows 3-8 of column s. With y the
    log empirical CCDF at fit point x, body residuals y + x/T expand into
    sums of y^2, xy and x^2, with x in power-of-two units ``scale`` so
    that tiny incomes do not underflow. Tail residuals are expanded
    about the means of y and u = log x, as w = y - mean(y) and
    v = u - mean(u), which keeps the cancellation near an optimum small.
    """

    def __init__(self, ccdf: EmpiricalCcdf):
        self.fit_points = x = ccdf.class_points[:-1].copy()
        y = np.log(ccdf.evaluate(x))
        u = np.log(x)
        self._means = (float(y.mean()), float(u.mean()))
        w = y - self._means[0]
        v = u - self._means[1]
        tail_terms = np.array([np.ones_like(x), w, v, w * v, v * v, w * w])
        self.scale = math.ldexp(1.0, math.frexp(x[-1])[1] - 1)
        self._sums = np.zeros((9, x.size + 1))
        self._sums[:3, 1:] = np.cumsum([y * y, x / self.scale * y, (x / self.scale) ** 2], axis=1)
        # incomes this large overflow later; Python floats overflow to inf silently
        if not math.isfinite(float(self._sums[2, -1]) * self.scale * self.scale):
            raise ValueError("incomes too large: the squares of the class points overflow "
                             "a float")
        self._sums[3:, :-1] = np.cumsum(tail_terms[:, ::-1], axis=1)[:, ::-1]

    def split_errors(self, temperature: float, crossover: float, log_lam: float,
                     alpha: float) -> tuple[float, int, float, int]:
        """Squared log error and point count of the body, then of the tail.

        Fit points below ``crossover`` take the exponential body -m/T, the
        rest the Pareto tail log_lam - alpha*log(m/crossover).
        ``log_lam = -crossover/T`` gives the continuous model, any other
        value a two-part model with a jump at the crossover.
        """
        split = int(np.searchsorted(self.fit_points, crossover, side="left"))
        sq_body, sq_tail = _squared_errors(self._sums[:, split], self._means,
                                           self.scale / temperature, log_lam, alpha, crossover)
        return float(sq_body), split, float(sq_tail), self.fit_points.size - split

    def tail_slope(self, crossover: float, log_lam: float) -> float:
        """Pareto index of least tail log error over the fit points above ``crossover``.

        With the tail pinned at ``log_lam``, residuals r + alpha*g (r = y - log_lam,
        g = log(m/crossover)) are linear in alpha: least squares at -(r.g)/(g.g).
        """
        above = int(np.searchsorted(self.fit_points, crossover, side="right"))
        _, _, _, n, w, v, wv, vv, _ = self._sums[:, above]
        c = self._means[0] - log_lam
        d = self._means[1] - math.log(crossover)
        return float(-(wv + d * w + c * (v + n * d)) / (vv + d * (2.0 * v + n * d)))


def _squared_errors(sums, means, inv_t, log_lam, alpha, m_c):
    """Body and tail squared log errors from the 9 ``sums`` at ``m_c``'s split, inv_t = scale/T."""
    yy, xy, xx, n_tail, w, v, wv, vv, ww = sums
    y_mean, u_mean = means
    sq_body = yy + inv_t * (2.0 * xy + inv_t * xx)
    # tail residual y - log_lam + alpha*(u - log m_c) = w + alpha*v + a
    a = y_mean - log_lam - alpha * (np.log(m_c) - u_mean)
    sq_tail = (ww + alpha * (2.0 * wv + alpha * vv)
               + a * (2.0 * (w + alpha * v) + n_tail * a))
    return sq_body, sq_tail


class FitContext(ClassResiduals):
    """The class statistic's running sums plus the tables a search point reads.

    Built once per sample so that the swarm's thousands of evaluations
    stay cheap; immutable after construction and safe to share.

    A context scores only search points with 0 < p <= ``P_MAX``, every
    other point the sentinel, so its lookup tables keep just what those
    read: the CCDF knots of fraction at most ``P_MAX`` plus the next one,
    and the incomes from that knot's income up. It holds no sample or
    CCDF. ``stacked_objective`` scores whole populations on one or more
    contexts and drives the optimizer; ``loss_at`` is its one-row case
    and backs the reported loss breakdown.
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
        self._constants = np.array([*self._means, float(self.fit_points.size),  # rows 12-16
                                    float(not self.single_knot), self.scale])

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
        """The loss breakdown at one point; sentinel on degenerate configurations."""
        rmsle_val, mean_pen, frac_pen, z, m_c, ok = (
            float(row[0]) for row in _losses([self], [np.array([[p, alpha, temperature]])]))
        if not ok:
            return LossBreakdown.sentinel()
        params = TwoClassParams(math.exp(-z), temperature, alpha)
        return LossBreakdown(rmsle_val, mean_pen, frac_pen,
                             rmsle_val + mean_pen + frac_pen, params, m_c)


def _losses(contexts, blocks):
    """RMSLE, both penalties, z = m_c/T, m_c and validity of each stacked row.

    Block i of (n_i, 3) search points is scored on ``contexts[i]``. A row
    is valid when 0 < p <= P_MAX, T > 0, alpha > 1, 2**-53 <= z <=
    _EXP_OVERFLOW (so that m_c > 0 and lam = exp(-z) lies in (0, 1) as a
    float), some income lies below the crossover and the CCDF has more
    than one knot; NaN makes it invalid. Invalid rows compute garbage
    under errstate, which callers mask.
    """
    p, alpha, temperature = np.concatenate(blocks, dtype=float).T
    ends = np.cumsum([len(block) for block in blocks]).tolist()
    lookup = np.concatenate([context._lookup(p[end - len(block):end])
                             for context, block, end in zip(contexts, blocks, ends)], axis=1)
    m_c, count, total = lookup[:3]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = m_c / temperature
        theo_mean = temperature - m_c / np.expm1(z)
        mean_pen = np.abs(theo_mean / (total / count) - 1.0)
        frac_pen = np.abs(np.exp(-z) / p - 1.0)
        sq_body, sq_tail = _squared_errors(lookup[3:12], lookup[12:14],
                                           lookup[16] / temperature, -z, alpha, m_c)
        rmsle_val = np.sqrt(np.maximum(sq_body + sq_tail, 0.0) / lookup[14])
    ok = ((p > 0.0) & (p <= P_MAX) & (temperature > 0.0) & (alpha > 1.0)
          & (z >= 2.0 ** -53) & (z <= _EXP_OVERFLOW) & (count > 0) & (lookup[15] > 0.0))
    return rmsle_val, mean_pen, frac_pen, z, m_c, ok


def stacked_objective(contexts, blocks) -> np.ndarray:
    """Loss totals of the (n_i, 3) search-point ``blocks``, block i scored on ``contexts[i]``.

    Each context looks up its own rows in its tables; the arithmetic then
    runs once over all rows, so each block scores bit for bit as it would
    stacked alone, and each row as ``loss_at(...).total``. Values come
    back concatenated in block order.
    """
    rmsle_val, mean_pen, frac_pen, _, _, ok = _losses(contexts, blocks)
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


"""Reference functions of the loss, for the parity tests of the loss kernel.

Each computes one quantity of the paper directly from its definition on
a sample and its empirical CCDF: the model density and log CCDF, the
exponential-body mean, the restricted empirical mean, the search-point
resolution, the log error and both penalties. None of them reads the
running sums or lookup tables of ``incomefit.objective``, so a test that
compares the two compares two separate computations. The paper's
small-top-fraction expansion of the Gini coefficient, which the tests
hold against the closed form, is here too. Nothing in the package calls
them; pytest does not collect this module.
"""

from __future__ import annotations

import math

import numpy as np

from incomefit.ccdf import EmpiricalCcdf, IncomeSample
from incomefit.model import _EXP_OVERFLOW, TwoClassParams
from incomefit.objective import SearchPoint


def _piecewise(params: TwoClassParams, m, body, tail):
    """``body(m)`` below the crossover, ``tail(max(m, m_c), m_c)`` from it on.

    Scalar in, float out; array in, array out.
    """
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 0):
        raise ValueError("income must be non-negative")
    m_c = params.crossover
    out = np.where(m_arr < m_c, body(m_arr), tail(np.maximum(m_arr, m_c), m_c))
    if np.isscalar(m) or m_arr.ndim == 0:
        return float(out)
    return out


def model_log_ccdf(params: TwoClassParams, m):
    """log CCDF, computed directly so deep tails never underflow."""
    return _piecewise(params, m,
                      lambda x: -x / params.temperature,
                      lambda x, m_c: math.log(params.lam)
                      - params.alpha * (np.log(x) - math.log(m_c)))


def model_pdf(params: TwoClassParams, m):
    """Density at income ``m``; integrates to 1 over [0, inf).

    The tail prefactor lam * alpha * m_c**alpha makes the tail density the
    derivative of the tail CCDF.
    """
    t = params.temperature
    tail_scale = params.lam * params.alpha * params.crossover ** params.alpha
    return _piecewise(params, m,
                      lambda x: np.exp(-x / t) / t,
                      lambda x, m_c: tail_scale * np.power(x, -params.alpha - 1.0))


def exponential_regime_mean(temperature: float, crossover: float) -> float:
    """Mean of the exponential body restricted to incomes below the crossover.

    Equals T - m_c / (exp(m_c/T) - 1); tends to T as the crossover grows,
    which is also the returned value when exp(m_c/T) would overflow.
    """
    if temperature <= 0.0 or crossover <= 0.0:
        raise ValueError("temperature and crossover must be positive")
    x = crossover / temperature
    if x > _EXP_OVERFLOW:
        return temperature
    return temperature - crossover / math.expm1(x)


def empirical_mean(sample: IncomeSample, upper_cutoff: float | None = None) -> float:
    """Mean income, optionally restricted to incomes strictly below a cutoff.

    The incomes below the cutoff are summed in ascending order, as the
    sample sums its own mean, so an infinite cutoff gives ``sample.mean``
    exactly. Raises when no income falls below the cutoff.
    """
    if upper_cutoff is None:
        return sample.mean
    below = sample.ascending[:np.searchsorted(sample.ascending, upper_cutoff, side="left")]
    if below.size == 0:
        raise ValueError(f"no incomes below cutoff {upper_cutoff}: degenerate crossover candidate")
    return float(np.cumsum(below)[-1]) / below.size


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


def gini_expansion(lam: float, alpha: float) -> float:
    """Small-top-fraction expansion of the Gini coefficient.

    0.5 + [ln(1/lam)/(alpha - 1) - 1] * lam/2, accurate to
    O(lam^2 * ln lam). Returns exactly 0.5 at lam = 0.
    """
    if lam < 0.0 or lam >= 1.0:
        raise ValueError(f"top fraction must be in [0, 1), got {lam}")
    if alpha <= 1.0:
        raise ValueError(f"Pareto index must exceed 1, got {alpha}")
    if lam == 0.0:
        return 0.5
    return 0.5 + (math.log(1.0 / lam) / (alpha - 1.0) - 1.0) * lam / 2.0

"""Closed-form mathematics of the two-class income distribution.

The distribution has an exponential (Boltzmann-Gibbs) body below the
crossover income and a Pareto power-law tail above it, joined
continuously. It is parametrized by the top fraction ``lam`` (share of
the population in the tail), the body temperature ``T`` and the Pareto
index ``alpha``:

    CCDF(m) = exp(-m/T)                 for m <  m_c
            = lam * (m / m_c)**(-alpha) for m >= m_c

with crossover m_c = T * ln(1/lam) enforcing continuity. The Gini
coefficient of this distribution depends only on (lam, alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# exp(x) overflows past ~709; treat anything beyond as the limit regime
_EXP_OVERFLOW = 700.0


@dataclass(frozen=True)
class TwoClassParams:
    """Parameter triple (top fraction, temperature, Pareto index)."""

    lam: float
    temperature: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"top fraction must be in (0, 1), got {self.lam}")
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.alpha <= 1.0:
            raise ValueError(f"Pareto index must exceed 1 for a finite mean, got {self.alpha}")

    @property
    def crossover(self) -> float:
        """Income where the body hands over to the tail, T*ln(1/lam)."""
        return self.temperature * math.log(1.0 / self.lam)

    @property
    def tail_scale(self) -> float:
        """Density prefactor of the tail, lam * alpha * m_c**alpha."""
        return self.lam * self.alpha * self.crossover ** self.alpha

    @property
    def mean(self) -> float:
        return model_mean(self)


def crossover_income(params: TwoClassParams) -> float:
    return params.crossover


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


def model_ccdf(params: TwoClassParams, m):
    """CCDF at income ``m`` (scalar or array); continuous at the crossover."""
    return _piecewise(params, m,
                      lambda x: np.exp(-x / params.temperature),
                      lambda x, m_c: params.lam * np.power(x / m_c, -params.alpha))


def model_log_ccdf(params: TwoClassParams, m):
    """log CCDF, computed directly so deep tails never underflow."""
    return _piecewise(params, m,
                      lambda x: -x / params.temperature,
                      lambda x, m_c: math.log(params.lam)
                      - params.alpha * (np.log(x) - math.log(m_c)))


def model_pdf(params: TwoClassParams, m):
    """Density at income ``m``; integrates to 1 over [0, inf)."""
    t = params.temperature
    return _piecewise(params, m,
                      lambda x: np.exp(-x / t) / t,
                      lambda x, m_c: params.tail_scale * np.power(x, -params.alpha - 1.0))


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


def model_mean(params: TwoClassParams) -> float:
    """Mean income, T * [(1 - lam) - lam*ln(lam)/(alpha - 1)].

    Obtained by integrating the CCDF over [0, inf); finite because
    alpha > 1 is enforced on the parameters.
    """
    lam = params.lam
    factor = (1.0 - lam) - lam * math.log(lam) / (params.alpha - 1.0)
    return params.temperature * factor


def theoretical_gini(lam: float, alpha: float) -> float:
    """Gini coefficient of the two-class distribution.

    Depends only on the top fraction and the Pareto index; the
    temperature cancels. Tends to 0.5 (the pure-exponential value) as
    the top fraction vanishes.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"top fraction must be in (0, 1), got {lam}")
    if alpha <= 1.0:
        raise ValueError(f"Pareto index must exceed 1, got {alpha}")
    log_lam = math.log(lam)
    num = (1.0 - lam * lam) / 2.0 - lam * lam * log_lam / (2.0 * alpha - 1.0)
    den = (1.0 - lam) - lam * log_lam / (alpha - 1.0)
    return 1.0 - num / den


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


def draw_incomes(params: TwoClassParams, n: int, seed: int) -> np.ndarray:
    """Inverse-transform draws from the model CCDF, unsorted.

    u ~ Uniform(0, 1] maps to -T*ln(u) in the body (u >= lam) and to
    m_c * (u/lam)**(-1/alpha) in the tail; both branches agree at
    u = lam. Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(n)  # (0, 1]
    m_c = params.crossover
    body = -params.temperature * np.log(u)
    tail = m_c * np.power(np.maximum(u, 1e-300) / params.lam, -1.0 / params.alpha)
    return np.where(u >= params.lam, body, tail)


def sample_incomes(params: TwoClassParams, n: int, seed: int):
    """Synthetic income sample from the model (n >= 2)."""
    from .ccdf import IncomeSample

    return IncomeSample(draw_incomes(params, n, seed))

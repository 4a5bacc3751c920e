"""Indicator time series across yearly datasets, with correlation tools.

Fits each year independently, deflates currency-dimensioned indicators
(temperature, crossover) to a reference year through a price-index
ratio, and provides Pearson correlation (with a paired-bootstrap
uncertainty) and ordinary least squares affine regression between
indicator series. Their t-test p-values are computed here, in plain
floats, so a series needs numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._pool import map_groups
from .ccdf import IncomeSample, empirical_gini
from .fitting import FitSettings, fit_group, solution
from .model import theoretical_gini
from .objective import FitContext


@dataclass(frozen=True)
class YearRecord:
    year: int
    top_fraction: float
    temperature: float
    temperature_deflated: float
    pareto_index: float
    crossover: float
    crossover_deflated: float
    gini_theoretical: float
    gini_empirical: float


@dataclass(frozen=True)
class PearsonResult:
    rho: float
    rho_std: float
    p_value: float
    n: int


@dataclass(frozen=True)
class AffineFit:
    slope: float
    slope_se: float
    intercept: float
    intercept_se: float
    residual_se: float
    rho: float
    p_value: float
    n: int


def check_deflators(deflators: Mapping[int, float], years: Iterable[int],
                    reference_year: int) -> None:
    """Raise unless each year and the reference year has a positive, finite index."""
    needed = sorted(set(years) | {reference_year})
    missing = [y for y in needed if y not in deflators]
    if missing:
        raise ValueError(f"missing deflator for year(s): {missing}")
    bad = [y for y in needed if not 0.0 < float(deflators[y]) < math.inf]
    if bad:
        raise ValueError(f"deflator index must be positive and finite for year(s): {bad}")


def _year_group(shared: tuple[Mapping[int, IncomeSample], Mapping[int, float], int,
                              FitSettings],
                group: list[tuple[int, np.random.SeedSequence]]) -> list[YearRecord]:
    """Fit a group of years together, each on its own stream, and deflate them.

    Deflated value = nominal value * (reference-year index / year index).
    Both the temperature and the crossover carry currency units, so both
    are deflated.
    """
    samples_by_year, deflators, reference_year, settings = shared
    contexts = [FitContext(samples_by_year[year], settings.k) for year, _ in group]
    results = fit_group(contexts, settings, [stream for _, stream in group])
    records = []
    for (year, _), context, result in zip(group, contexts, results):
        breakdown = solution(context, result)
        params = breakdown.params
        factor = float(deflators[reference_year]) / float(deflators[year])
        records.append(YearRecord(
            year=year,
            top_fraction=params.lam,
            temperature=params.temperature,
            temperature_deflated=params.temperature * factor,
            pareto_index=params.alpha,
            crossover=breakdown.crossover,
            crossover_deflated=breakdown.crossover * factor,
            gini_theoretical=theoretical_gini(params.lam, params.alpha),
            gini_empirical=empirical_gini(samples_by_year[year]),
        ))
    return records


def build_series(samples_by_year: Mapping[int, IncomeSample],
                 deflators: Mapping[int, float], reference_year: int,
                 settings: FitSettings = FitSettings(),
                 seed: int = 0) -> list[YearRecord]:
    """Fit every year and deflate to reference-year currency, one record a year.

    Years are fitted on worker processes in groups of consecutive years,
    as bootstrap fits replicas, and kept in ascending order; year i is
    fitted with child i of ``SeedSequence(seed).spawn(len(years))``.
    A failed fit raises its error, the earliest year's first.
    """
    years = sorted(samples_by_year)
    check_deflators(deflators, years, reference_year)
    streams = np.random.SeedSequence(seed).spawn(len(years))
    return map_groups(_year_group, list(zip(years, streams)),
                      (samples_by_year, deflators, reference_year, settings))


def _rho(a: np.ndarray, b: np.ndarray):
    """Pearson coefficient of two series, or row by row of two stacks of series."""
    a = a - a.mean(axis=-1, keepdims=True)
    b = b - b.mean(axis=-1, keepdims=True)
    denom = np.sqrt(np.sum(a * a, axis=-1) * np.sum(b * b, axis=-1))
    return np.sum(a * b, axis=-1) / denom


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta function I_x(a, b).

    Evaluated by Lentz's method; for x < (a + 1) / (a + b + 2) it converges
    in O(sqrt(max(a, b))) terms.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            break
    return h


def _t_test_p(rho: float, n: int) -> float:
    """Two-sided p-value of t = rho * sqrt(nu / (1 - rho^2)), nu = n - 2.

    On nu degrees of freedom the p-value is I_x(nu/2, 1/2) at
    x = nu / (nu + t^2) = (1 - rho)(1 + rho), and 1 - x = rho^2. Each is
    formed from rho on its own: 1 - x by subtraction loses every digit
    when rho is near 0, and x as 1 - rho^2 loses up to 1e-9 relative when
    rho is near 1; but log x, which the prefactor multiplies by nu/2, is
    ``log1p(-rho^2)`` where rho^2 < 1/2. The symmetry I_x(a, b) = 1 - I_{1-x}(b, a),
    with the same prefactor, keeps the fraction short where x > (a + 1) / (a + b + 2)
    and, from a = 20 on, takes t^2 < 6, where the fraction in x loses digits as a grows.
    """
    r = abs(rho)
    if r >= 1.0:
        return 0.0
    y = r * r
    if y == 0.0:
        return 1.0
    a, b, x = (n - 2) / 2.0, 0.5, (1.0 - r) * (1.0 + r)
    # ln Gamma(a + 1/2) - ln Gamma(a): the two lgamma values cancel as a grows
    # (5e-10 lost at a = 5e5), so from a = 20 on the asymptotic series takes over
    if a < 20.0:
        log_front = math.lgamma(a + b) - math.lgamma(a)
        flip = x > (a + 1.0) / (a + b + 2.0)
    else:
        w = 1.0 / (a * a)
        log_front = 0.5 * math.log(a) - (
            1 / 8 - w * (1 / 192 - w * (1 / 640 - w * 17 / 14336))) / a
        flip = a * y < 3.0
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    front = math.exp(log_front + a * log_x + b * math.log(y) - math.lgamma(b))
    if flip:
        return 1.0 - front * _beta_fraction(b, a, y) / b
    return front * _beta_fraction(a, b, x) / a


def pearson(xs, ys, n_boot: int = 1000, seed: int = 0) -> PearsonResult:
    """Sample Pearson coefficient with t-test p-value and bootstrap spread.

    The p-value comes from t = rho * sqrt((n-2)/(1-rho^2)) on n-2
    degrees of freedom, as the regularized incomplete beta function
    I_{1-rho^2}((n-2)/2, 1/2); the uncertainty is the standard deviation
    of rho over paired resamples of the observations. A constant series
    has no correlation: rho, its spread and the p-value are then nan, as
    in ``affine_regression``.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("series must be 1-D and of equal length")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        nan = float("nan")
        return PearsonResult(nan, nan, nan, n)

    rho = float(_rho(x, y))
    p_value = _t_test_p(rho, n)

    # the one draw of n_boot rows equals n_boot draws of one row each
    idx = np.random.default_rng(seed).integers(0, n, size=(n_boot, n))
    xb, yb = x[idx], y[idx]
    varied = ~(np.all(xb == xb[:, :1], axis=1) | np.all(yb == yb[:, :1], axis=1))
    draws = _rho(xb[varied], yb[varied])
    rho_std = float(np.std(draws, ddof=1)) if len(draws) > 1 else float("nan")
    return PearsonResult(rho, rho_std, p_value, n)


def affine_regression(xs, ys) -> AffineFit:
    """Least squares line, classical standard errors; checks, rho and p-value from ``pearson``.

    A constant predictor determines no line: every field but n is then
    nan, as ``pearson`` gives for a constant series.
    """
    corr = pearson(xs, ys, n_boot=0)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = corr.n
    if np.all(x == x[0]):
        nan = float("nan")
        return AffineFit(nan, nan, nan, nan, nan, nan, nan, n)
    x_mean, y_mean = x.mean(), y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (intercept + slope * x)
    rss = float(np.sum(residuals ** 2))
    residual_se = np.sqrt(rss / (n - 2))
    slope_se = residual_se / np.sqrt(sxx)
    intercept_se = residual_se * np.sqrt(1.0 / n + x_mean ** 2 / sxx)
    return AffineFit(slope, float(slope_se), intercept, float(intercept_se),
                     float(residual_se), corr.rho, corr.p_value, n)

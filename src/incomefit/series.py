"""Indicator time series across yearly datasets, with correlation tools.

Fits each year independently, deflates currency-dimensioned indicators
(temperature, crossover) to a reference year through a price-index
ratio, and provides Pearson correlation (with a paired-bootstrap
uncertainty) and ordinary least squares affine regression between
indicator series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.special import stdtr

from .ccdf import IncomeSample
from .fitting import FitSettings, fit_sample


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


@dataclass(eq=False)
class IndicatorSeries:
    records: list[YearRecord]
    reference_year: int

    @property
    def years(self) -> np.ndarray:
        return np.array([r.year for r in self.records])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=float)


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


def build_series(samples_by_year: Mapping[int, IncomeSample],
                 deflators: Mapping[int, float], reference_year: int,
                 settings: FitSettings = FitSettings(),
                 seed: int = 0) -> IndicatorSeries:
    """Fit every year and deflate to reference-year currency.

    Deflated value = nominal value * (reference-year index / year index).
    Both the temperature and the crossover carry currency units, so both
    are deflated. Years are processed in ascending order with a
    deterministic per-year seed offset.
    """
    years = sorted(samples_by_year)
    check_deflators(deflators, years, reference_year)
    ref_index = float(deflators[reference_year])
    records = []
    for i, year in enumerate(years):
        fit = fit_sample(samples_by_year[year], settings, seed=seed + i)
        factor = ref_index / float(deflators[year])
        records.append(YearRecord(
            year=year,
            top_fraction=fit.params.lam,
            temperature=fit.params.temperature,
            temperature_deflated=fit.params.temperature * factor,
            pareto_index=fit.params.alpha,
            crossover=fit.crossover,
            crossover_deflated=fit.crossover * factor,
            gini_theoretical=fit.gini_theoretical,
            gini_empirical=fit.gini_empirical,
        ))
    return IndicatorSeries(records, reference_year)


def _rho(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    return float(np.sum(a * b) / denom)


def _t_test_p(rho: float, n: int) -> float:
    if abs(rho) >= 1.0:
        return 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return 2.0 * float(stdtr(n - 2, -abs(t)))


def pearson(xs, ys, n_boot: int = 1000, seed: int = 0) -> PearsonResult:
    """Sample Pearson coefficient with t-test p-value and bootstrap spread.

    The p-value comes from t = rho * sqrt((n-2)/(1-rho^2)) on n-2
    degrees of freedom; the uncertainty is the standard deviation of rho
    over paired resamples of the observations.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("series must be 1-D and of equal length")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("correlation is undefined for a constant series")

    rho = _rho(x, y)
    p_value = _t_test_p(rho, n)

    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_boot):
        idx = rng.integers(0, n, size=n)
        xb, yb = x[idx], y[idx]
        if np.all(xb == xb[0]) or np.all(yb == yb[0]):
            continue
        draws.append(_rho(xb, yb))
    rho_std = float(np.std(draws, ddof=1)) if len(draws) > 1 else float("nan")
    return PearsonResult(rho, rho_std, p_value, n)


def affine_regression(xs, ys) -> AffineFit:
    """Ordinary least squares line with classical standard errors."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("series must be 1-D and of equal length")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if np.all(x == x[0]):
        raise ValueError("regression is undefined for a constant predictor")
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
    if np.all(y == y[0]):
        rho, p_value = float("nan"), float("nan")
    else:
        rho = _rho(x, y)
        p_value = _t_test_p(rho, n)
    return AffineFit(slope, float(slope_se), intercept, float(intercept_se),
                     float(residual_se), rho, p_value, n)

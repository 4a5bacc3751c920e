"""Empirical complementary cumulative distribution of an income sample.

Builds the step-function CCDF with the ``>=`` counting convention

    C(m) = #{i : m_i >= m} / N,

the fixed-size class statistic used to evaluate fit quality independently
of the population size, a piecewise-linear inverse CCDF for locating the
crossover income, and empirical summary statistics (restricted mean,
Gini coefficient).
"""

from __future__ import annotations

import numpy as np

DEFAULT_CLASS_POINTS = 10000


class IncomeSample:
    """Cleaned income observations, held as a descending order statistic.

    Parameters
    ----------
    values : array-like
        Positive incomes in any order; sorted internally. Zero, negative
        or non-finite entries are rejected (cleaning happens upstream).

    Notes
    -----
    The instance is treated as immutable after construction. Ascending
    views and prefix sums are precomputed so restricted means cost
    O(log N) per query.
    """

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.ravel()
        if arr.size < 2:
            raise ValueError("insufficient data: need at least 2 incomes, got %d" % arr.size)
        if not np.all(np.isfinite(arr)):
            raise ValueError("incomes must be finite")
        if np.any(arr <= 0):
            raise ValueError("incomes must be strictly positive")
        asc = np.sort(arr)
        self.values = asc[::-1].copy()  # descending
        self.n = int(arr.size)
        self._ascending = asc
        # prefix[i] = sum of the i smallest incomes
        self._prefix = np.concatenate(([0.0], np.cumsum(asc)))
        self.mean = float(self._prefix[-1] / self.n)

    @property
    def ascending(self) -> np.ndarray:
        return self._ascending

    def count_and_sum_below(self, cutoff):
        """Number and sum of incomes strictly below ``cutoff`` (scalar or array)."""
        idx = np.searchsorted(self._ascending, cutoff, side="left")
        if np.ndim(idx) == 0:
            return int(idx), float(self._prefix[idx])
        return idx, self._prefix[idx]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"IncomeSample(n={self.n}, mean={self.mean:.6g})"


class EmpiricalCcdf:
    """Step CCDF of a sample plus its class statistic.

    Ties collapse to single knots so the interpolated inverse is a true
    function. ``class_points`` holds the k selected order statistics in
    ascending order; the last one is excluded from loss sums by callers.
    """

    def __init__(self, incomes: np.ndarray, fractions: np.ndarray,
                 class_points: np.ndarray, n: int):
        self.incomes = incomes          # distinct knot incomes, ascending
        self.fractions = fractions      # C at each knot, decreasing
        self.class_points = class_points
        self.k = int(class_points.size)
        self.n = int(n)
        # interpolation tables for the inverse (fractions ascending)
        self._fr_asc = fractions[::-1].copy()
        self._inc_by_fr = incomes[::-1].copy()

    @property
    def min_fraction(self) -> float:
        """Smallest attainable fraction, C at the largest income."""
        return float(self.fractions[-1])

    def evaluate(self, m):
        """C(m) for scalar or array ``m`` under the >= convention."""
        m_arr = np.asarray(m, dtype=float)
        idx = np.searchsorted(self.incomes, m_arr, side="left")
        frac = np.where(idx < self.incomes.size,
                        self.fractions[np.minimum(idx, self.incomes.size - 1)],
                        0.0)
        if np.isscalar(m) or m_arr.ndim == 0:
            return float(frac)
        return frac

    def inverse(self, p: float) -> float:
        """Income at fraction ``p`` by linear interpolation between knots.

        Fractions below the smallest attainable value clamp to the
        largest income knot (callers flag this in diagnostics via
        ``min_fraction``).
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {p}")
        return float(np.interp(p, self._fr_asc, self._inc_by_fr))

    def __repr__(self) -> str:
        return f"EmpiricalCcdf(knots={self.incomes.size}, k={self.k}, n={self.n})"


def class_statistic(sample: IncomeSample, k: int) -> np.ndarray:
    """k-point subsample of the order statistics, ascending.

    Selects the incomes at descending ranks floor(n*N/k) for n = 1..k.
    k larger than N is clamped to N so small fixtures run unchanged;
    k = 0 is rejected.
    """
    if k <= 0:
        raise ValueError(f"class count must be positive, got {k}")
    n_obs = sample.n
    k = min(int(k), n_obs)
    ranks = (np.arange(1, k + 1) * n_obs) // k  # 1-based descending ranks
    points = sample.values[ranks - 1]
    return points[::-1].copy()  # ascending


def build_ccdf(sample: IncomeSample, k: int = DEFAULT_CLASS_POINTS) -> EmpiricalCcdf:
    """Construct the empirical CCDF and attach the class statistic."""
    asc = sample.ascending
    distinct = np.unique(asc)
    # count of values >= each distinct income
    counts = sample.n - np.searchsorted(asc, distinct, side="left")
    fractions = counts / sample.n
    points = class_statistic(sample, k)
    return EmpiricalCcdf(distinct, fractions, points, sample.n)


def inverse_ccdf(ccdf: EmpiricalCcdf, p: float) -> float:
    """Income with interpolated C(m) = p; see ``EmpiricalCcdf.inverse``."""
    return ccdf.inverse(p)


def empirical_mean(sample: IncomeSample, upper_cutoff: float | None = None) -> float:
    """Mean income, optionally restricted to incomes strictly below a cutoff.

    Raises when no income falls below the cutoff, which signals a
    degenerate crossover candidate to the caller.
    """
    if upper_cutoff is None:
        return sample.mean
    count, total = sample.count_and_sum_below(upper_cutoff)
    if count == 0:
        raise ValueError(f"no incomes below cutoff {upper_cutoff}: degenerate crossover candidate")
    return total / count


def empirical_gini(sample: IncomeSample) -> float:
    """Gini coefficient from the ascending rank formula.

    G = sum_i (2i - N - 1) m_(i) / (N^2 mu) over the ascending ordering.
    Exactly 0 for an all-equal sample. Known to be biased downward on
    fat-tailed data.
    """
    asc = sample.ascending
    if asc[0] == asc[-1]:
        return 0.0
    n = sample.n
    ranks = np.arange(1, n + 1, dtype=float)
    return float(np.sum((2.0 * ranks - n - 1.0) * asc) / (n * np.sum(asc)))

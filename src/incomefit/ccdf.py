"""Empirical complementary cumulative distribution of an income sample.

Builds the step-function CCDF with the ``>=`` counting convention

    C(m) = #{i : m_i >= m} / N,

the fixed-size class statistic used to evaluate fit quality independently
of the population size, a piecewise-linear inverse CCDF for locating the
crossover income, and the empirical Gini coefficient.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_CLASS_POINTS = 10000


class IncomeSample:
    """Cleaned income observations, held in ascending order.

    Parameters
    ----------
    values : array-like
        Positive incomes in any order; sorted internally. Zero, negative
        or non-finite entries are rejected (cleaning happens upstream).

    Notes
    -----
    The read-only ascending array is the only sorted copy; ``values`` is
    its descending view. Prefix sums make restricted means cost
    O(log N) per query.
    """

    def __init__(self, values):
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size < 2:
            raise ValueError("insufficient data: need at least 2 incomes, got %d" % arr.size)
        if not np.all(np.isfinite(arr)):
            raise ValueError("incomes must be finite")
        if np.any(arr <= 0):
            raise ValueError("incomes must be strictly positive")
        self._hold(np.sort(arr))

    @classmethod
    def _from_ascending(cls, ascending: np.ndarray) -> IncomeSample:
        """A sample over ``ascending``, which must already be sorted and valid.

        For subsets and resamples of a sample: their values passed its
        checks, and their ascending order is kept, so neither is redone.
        """
        sample = cls.__new__(cls)
        sample._hold(ascending)
        return sample

    def _hold(self, asc: np.ndarray):
        asc.flags.writeable = False
        self.n = int(asc.size)
        self._ascending = asc
        # prefix[i] = sum of the i smallest incomes
        self._prefix = np.empty(self.n + 1)
        self._prefix[0] = 0.0
        with np.errstate(over="ignore"):
            np.cumsum(asc, out=self._prefix[1:])
        # the empirical Gini divides by N times the total
        if not math.isfinite(float(self._prefix[-1]) * self.n):
            raise ValueError("incomes too large: their total times their count "
                             "overflows a float")
        self.mean = float(self._prefix[-1] / self.n)

    def __reduce__(self):
        # only the ascending array is pickled; unpickling makes it read-only again
        return IncomeSample._from_ascending, (self._ascending,)

    @property
    def ascending(self) -> np.ndarray:
        return self._ascending

    @property
    def values(self) -> np.ndarray:
        """The incomes in descending order, a view of ``ascending``."""
        return self._ascending[::-1]

    def __repr__(self) -> str:
        return f"IncomeSample(n={self.n}, mean={self.mean:.6g})"


class EmpiricalCcdf:
    """Step CCDF of a sample plus its class statistic.

    Ties collapse to single knots so the interpolated inverse is a true
    function. ``class_points`` holds the k selected order statistics in
    ascending order; the last one is excluded from loss sums by callers.
    """

    def __init__(self, ascending: np.ndarray, first: np.ndarray, class_points: np.ndarray):
        self.n = int(ascending.size)
        # interpolation tables for inverse: fractions ascending, knot incomes descending
        by_fraction = first[::-1]
        self._fr_asc = (self.n - by_fraction) / self.n
        self._inc_by_fr = ascending[by_fraction]
        self.incomes = self._inc_by_fr[::-1]            # distinct knot incomes, ascending
        self.fractions = self._fr_asc[::-1]             # C at each knot, decreasing
        self.class_points = class_points
        self.k = int(class_points.size)
        self._ascending = ascending

    @property
    def min_fraction(self) -> float:
        """Smallest attainable fraction, C at the largest income."""
        return float(self.fractions[-1])

    def evaluate(self, m):
        """C(m) for scalar or array ``m`` under the >= convention."""
        m_arr = np.asarray(m, dtype=float)
        frac = (self.n - np.searchsorted(self._ascending, m_arr, side="left")) / self.n
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
    ranks = (np.arange(k, 0, -1) * n_obs) // k  # 1-based descending ranks, largest first
    return sample.ascending[n_obs - ranks]


def build_ccdf(sample: IncomeSample, k: int = DEFAULT_CLASS_POINTS) -> EmpiricalCcdf:
    """Construct the empirical CCDF and attach the class statistic."""
    asc = sample.ascending
    # a knot is the first index of a run of equal incomes; n minus it counts incomes >= it
    first = np.concatenate(([0], np.flatnonzero(asc[1:] != asc[:-1]) + 1))
    return EmpiricalCcdf(asc, first, class_statistic(sample, k))


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

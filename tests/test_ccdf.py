"""Empirical CCDF, class statistic, inverse interpolation and Gini."""

import pickle

import numpy as np
import pytest

from incomefit import (
    IncomeSample,
    build_ccdf,
    class_statistic,
    empirical_gini,
)
from oracle import empirical_mean


@pytest.fixture(scope="module")
def small_sample():
    return IncomeSample([1.0, 2.0, 3.0, 4.0])


@pytest.fixture(scope="module")
def exp_sample():
    rng = np.random.default_rng(101)
    return IncomeSample(rng.exponential(scale=1.0, size=100_000))


class TestIncomeSample:
    def test_sorted_descending(self):
        s = IncomeSample([3.0, 1.0, 2.0])
        assert list(s.values) == [3.0, 2.0, 1.0]
        assert list(s.ascending) == [1.0, 2.0, 3.0]

    def test_one_read_only_sorted_copy(self):
        s = IncomeSample([3.0, 1.0, 2.0])
        assert np.shares_memory(s.values, s.ascending)
        with pytest.raises(ValueError, match="read-only"):
            s.values[0] = 0.5

    def test_pickle_round_trip_stays_read_only(self, exp_sample):
        # samples come back from worker processes by pickle
        back = pickle.loads(pickle.dumps(exp_sample))
        assert not back.ascending.flags.writeable
        assert back.ascending.tobytes() == exp_sample.ascending.tobytes()
        assert back._prefix.tobytes() == exp_sample._prefix.tobytes()
        assert back.mean == exp_sample.mean and back.n == exp_sample.n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IncomeSample([1.0, 0.0])
        with pytest.raises(ValueError):
            IncomeSample([1.0, -2.0])

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match="insufficient data"):
            IncomeSample([5.0])
        with pytest.raises(ValueError, match="insufficient data"):
            IncomeSample([])


class TestBuildCcdf:
    def test_point_queries(self, small_sample):
        ccdf = build_ccdf(small_sample)
        assert ccdf.evaluate(2.0) == 0.75  # 3 of 4 values >= 2
        assert ccdf.evaluate(1.0) == 1.0   # all values >= minimum
        assert ccdf.evaluate(5.0) == 0.0   # none >= 5

    def test_right_anchored_and_monotone(self):
        rng = np.random.default_rng(7)
        s = IncomeSample(rng.lognormal(size=500))
        ccdf = build_ccdf(s)
        assert ccdf.evaluate(float(s.ascending[0])) == 1.0
        assert ccdf.evaluate(float(s.values[0]) * 1.01) == 0.0
        grid = np.linspace(s.ascending[0], s.values[0], 400)
        vals = ccdf.evaluate(grid)
        assert np.all(np.diff(vals) <= 0)
        assert np.all((vals > 0) | (grid > s.values[0]))

    @pytest.mark.parametrize("values", [
        np.array([1.0, 2.0, 2.0, 2.0, 3.0]),
        np.full(50, 7.5),
        np.array([2.0, 9.0] * 30 + [9.0]),
        np.round(np.random.default_rng(13).exponential(size=2000), 1) + 0.1,
    ], ids=["five-values", "all-equal", "two-values", "rounded-exponential"])
    def test_ties_collapse_to_single_knots(self, values):
        ccdf = build_ccdf(IncomeSample(values))
        assert np.array_equal(ccdf.incomes, np.unique(values))
        assert ccdf.fractions.tolist() == [np.mean(values >= m) for m in ccdf.incomes]


class TestClassStatistic:
    def test_picks_every_tenth_rank(self):
        # descending sample of 100; k=10 selects descending ranks 10,20,...,100
        values = np.arange(100, 0, -1, dtype=float)
        s = IncomeSample(values)
        pts = class_statistic(s, 10)
        expected = sorted(values[np.arange(1, 11) * 10 - 1])
        assert list(pts) == expected

    def test_k_equals_n_is_identity(self, small_sample):
        pts = class_statistic(small_sample, 4)
        assert list(pts) == [1.0, 2.0, 3.0, 4.0]

    def test_matches_direct_indexing(self):
        # brute-force oracle: index the descending order statistic directly
        rng = np.random.default_rng(3)
        n, k = 100_000, 10_000
        s = IncomeSample(rng.random(n) + 0.5)
        pts = class_statistic(s, k)
        oracle = np.sort([s.values[(i * n) // k - 1] for i in range(1, k + 1)])
        assert np.array_equal(pts, oracle)

    def test_k_clamped_and_zero_rejected(self, small_sample):
        assert list(class_statistic(small_sample, 99)) == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            class_statistic(small_sample, 0)

    def test_subset_of_order_statistics_with_matching_fractions(self):
        rng = np.random.default_rng(11)
        s = IncomeSample(rng.exponential(size=997))
        ccdf = build_ccdf(s, k=100)
        sample_set = set(s.values.tolist())
        for pt in ccdf.class_points:
            assert pt in sample_set
        # fractions at class points agree with direct counting
        for pt in ccdf.class_points[::7]:
            direct = np.sum(s.values >= pt) / s.n
            assert ccdf.evaluate(float(pt)) == direct


class TestInverseCcdf:
    def test_midpoint_of_segment(self):
        s = IncomeSample([10.0, 10.0, 20.0, 20.0])
        ccdf = build_ccdf(s)
        # knots: (10, 1.0), (20, 0.5); halfway fraction 0.75 -> income 15
        assert ccdf.inverse(0.75) == pytest.approx(15.0)

    def test_midpoint_between_inner_knots(self):
        # knots include (10, 0.5) and (20, 0.25); fraction midway -> income midway
        s = IncomeSample([1.0, 2.0, 10.0, 20.0])
        ccdf = build_ccdf(s)
        assert ccdf.evaluate(10.0) == 0.5
        assert ccdf.evaluate(20.0) == 0.25
        assert ccdf.inverse(0.375) == pytest.approx(15.0)

    def test_knot_fractions_return_knot_incomes(self):
        rng = np.random.default_rng(5)
        s = IncomeSample(np.round(rng.exponential(size=300), 2) + 0.01)
        ccdf = build_ccdf(s)
        for income, frac in zip(ccdf.incomes, ccdf.fractions):
            assert ccdf.inverse(float(frac)) == pytest.approx(float(income))

    def test_exponential_quantile(self, exp_sample):
        # inverse of the exponential CCDF: C(m) = exp(-m/T) -> m = -T ln p
        ccdf = build_ccdf(exp_sample)
        assert ccdf.inverse(np.exp(-1.0)) == pytest.approx(1.0, abs=0.03)

    def test_clamps_below_smallest_fraction(self):
        s = IncomeSample([1.0, 2.0, 3.0, 4.0])
        ccdf = build_ccdf(s)
        assert ccdf.inverse(1e-9) == 4.0
        assert ccdf.min_fraction == 0.25

    def test_rejects_out_of_range(self, small_sample):
        ccdf = build_ccdf(small_sample)
        with pytest.raises(ValueError):
            ccdf.inverse(0.0)
        with pytest.raises(ValueError):
            ccdf.inverse(1.5)

    def test_monotone_in_fraction(self, exp_sample):
        ccdf = build_ccdf(exp_sample)
        ps = np.linspace(1e-4, 1.0, 300)
        incomes = np.array([ccdf.inverse(p) for p in ps])
        assert np.all(np.diff(incomes) <= 0)


class TestEmpiricalMean:
    def test_whole_sample(self, small_sample):
        assert empirical_mean(small_sample) == 2.5

    def test_restricted_below_cutoff(self, small_sample):
        assert empirical_mean(small_sample, upper_cutoff=3.0) == 1.5

    def test_cutoff_is_strict(self, small_sample):
        # values equal to the cutoff are excluded
        assert empirical_mean(small_sample, upper_cutoff=4.0) == 2.0

    def test_truncated_exponential_oracle(self, exp_sample):
        # closed form: mean below m_c is T - m_c/(exp(m_c/T)-1); T=1, m_c=ln 2
        cut = np.log(2.0)
        expected = 1.0 - cut / (np.exp(cut) - 1.0)  # = 1 - ln 2
        assert expected == pytest.approx(1.0 - np.log(2.0))
        assert empirical_mean(exp_sample, upper_cutoff=cut) == pytest.approx(expected, abs=0.01)

    def test_infinite_cutoff_equals_whole_mean(self, exp_sample):
        assert empirical_mean(exp_sample, upper_cutoff=np.inf) == exp_sample.mean

    def test_no_values_below_cutoff_rejected(self, small_sample):
        with pytest.raises(ValueError, match="degenerate"):
            empirical_mean(small_sample, upper_cutoff=0.5)


class TestEmpiricalGini:
    def test_perfect_equality(self):
        assert empirical_gini(IncomeSample([5.0, 5.0, 5.0, 5.0])) == 0.0

    def test_two_point_maximal_split(self):
        assert empirical_gini(IncomeSample([1e-12, 1.0])) == pytest.approx(0.5, abs=1e-9)

    def test_exponential_is_half(self, exp_sample):
        assert empirical_gini(exp_sample) == pytest.approx(0.5, abs=0.01)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        values = rng.pareto(2.5, size=1000) + 0.1
        g0 = empirical_gini(IncomeSample(values))
        for c in (0.001, 3.7, 1e6):
            assert empirical_gini(IncomeSample(c * values)) == pytest.approx(g0, rel=1e-12)

    def test_range(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = empirical_gini(IncomeSample(rng.lognormal(0, 1.5, size=200)))
            assert 0.0 <= g < 1.0


class TestOrderInvariance:
    def test_construction_order_irrelevant(self):
        rng = np.random.default_rng(17)
        values = rng.exponential(size=500)
        s1 = IncomeSample(values)
        s2 = IncomeSample(rng.permutation(values))
        assert np.array_equal(s1.values, s2.values)

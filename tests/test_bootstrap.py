"""Bootstrap pairing, validation summaries and the fixed-proportion baseline."""

from dataclasses import astuple

import numpy as np
import pytest

from incomefit import (
    FitSettings,
    IncomeSample,
    TwoClassParams,
    bootstrap_pair,
    build_ccdf,
    fit_sample,
    fixed_proportion_fit,
    model_ccdf,
    run_validation,
    sample_incomes,
)
from incomefit.bootstrap import INDICATORS, _class_rmsle
from incomefit.objective import ClassResiduals
from oracle import rmsle

QUICK = FitSettings(k=600, n_candidates=16, max_iters=50, refine_every=15,
                    refine_max_steps=30)


class TestBootstrapPair:
    def test_train_size_equals_n(self):
        s = IncomeSample(np.arange(1.0, 101.0))
        train, test = bootstrap_pair(s, seed=1)
        assert train.n == s.n

    def test_partition_of_observations(self):
        rng = np.random.default_rng(2)
        s = IncomeSample(rng.exponential(size=500) + 0.01)
        train, test = bootstrap_pair(s, seed=3)
        union = set(train.values.tolist()) | set(test.values.tolist())
        assert union == set(s.values.tolist())
        assert train.n + test.n >= s.n  # train repeats; test holds the rest once

    def test_out_of_bag_excluded_from_train(self):
        # with all-distinct values, no test value may appear in train
        s = IncomeSample(np.arange(1.0, 201.0))
        train, test = bootstrap_pair(s, seed=4)
        assert not set(test.values.tolist()) & set(train.values.tolist())

    def test_sides_equal_sorted_samples(self):
        # both sides are built without a sort; they must match the sorting constructor
        rng = np.random.default_rng(6)
        s = IncomeSample(rng.exponential(size=500) + 0.01)
        for side in bootstrap_pair(s, seed=7):
            again = IncomeSample(side.values)
            assert np.array_equal(side.ascending, again.ascending)
            assert side.mean == again.mean
            assert np.array_equal(side._prefix, again._prefix)
            assert not side.ascending.flags.writeable

    def test_distinct_fraction_near_632(self):
        rng = np.random.default_rng(5)
        s = IncomeSample(rng.exponential(size=10_000) + 0.01)
        fractions = []
        for r in range(100):
            train, _ = bootstrap_pair(s, seed=r)
            fractions.append(len(np.unique(train.values)) / s.n)
        assert np.mean(fractions) == pytest.approx(1 - np.exp(-1), abs=0.01)

    def test_empty_test_redraws_from_same_generator(self):
        s = IncomeSample([1.0, 2.0, 3.0, 4.0])

        def first_two_draws(seed):
            rng = np.random.default_rng(seed)
            return rng.integers(0, 4, size=4), rng.integers(0, 4, size=4)

        # a seed whose first draw covers every index (test would be empty)
        # and whose second draw leaves out two, the least a sample holds
        cover_seed = next(seed for seed in range(10_000)
                          if len(set(first_two_draws(seed)[0].tolist())) == 4
                          and len(set(first_two_draws(seed)[1].tolist())) <= 2)
        train, test = bootstrap_pair(s, seed=cover_seed)
        # result must match the second draw of the same generator
        drawn = set(s.values[first_two_draws(cover_seed)[1]].tolist())
        expected_test = sorted(set(s.values.tolist()) - drawn)
        assert sorted(test.values.tolist()) == expected_test

    def test_single_income_test_set_redraws(self):
        # a 3-income sample leaves one income out of bag on 2 draws in 3
        s = IncomeSample([1.0, 2.0, 3.0])
        for seed in range(200):
            train, test = bootstrap_pair(s, seed=seed)
            assert test.n >= 2 and train.n == 3

    def test_two_incomes_rejected(self):
        with pytest.raises(ValueError, match="at least 3 incomes"):
            bootstrap_pair(IncomeSample([1.0, 2.0]), seed=0)

    def test_pinned_to_direct_draw(self):
        # tie-heavy incomes; the first draw at this seed leaves a non-empty test set
        rng = np.random.default_rng(6)
        s = IncomeSample(np.round(rng.exponential(size=300), 1) + 0.1)
        idx = np.random.default_rng(8).integers(0, s.n, size=s.n)
        undrawn = np.ones(s.n, dtype=bool)
        undrawn[idx] = False
        assert undrawn.any()
        train, test = bootstrap_pair(s, seed=8)
        assert train.ascending.tolist() == sorted(s.values[idx].tolist())
        assert test.ascending.tolist() == sorted(s.values[undrawn].tolist())

    def test_deterministic(self):
        s = IncomeSample(np.arange(1.0, 51.0))
        a = bootstrap_pair(s, seed=11)
        b = bootstrap_pair(s, seed=11)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)


TRUTH = TwoClassParams(0.08, 1800.0, 1.5)


@pytest.fixture(scope="module")
def validation_sample():
    return sample_incomes(TRUTH, 8_000, seed=42)


@pytest.fixture(scope="module")
def summary(validation_sample):
    return run_validation(validation_sample, 30, QUICK, seed=7)


class TestRunValidation:
    def test_effective_replicas(self, summary):
        assert summary.n_requested == 30
        assert summary.n_effective == 30
        assert len(summary.replicas) == 30

    def test_summary_matches_direct_recomputation(self, summary):
        for name in INDICATORS:
            vec = np.array([getattr(r, name) for r in summary.replicas])
            s = summary.stats[name]
            assert s.mean == pytest.approx(np.mean(vec), rel=1e-12)
            assert s.std == pytest.approx(np.std(vec, ddof=1), rel=1e-12)
            assert s.ci_low == pytest.approx(np.percentile(vec, 2.5), rel=1e-12)
            assert s.ci_high == pytest.approx(np.percentile(vec, 97.5), rel=1e-12)
            assert s.cv == pytest.approx(s.std / s.mean, rel=1e-12)

    def test_ci_brackets_mean(self, summary):
        for name in INDICATORS:
            s = summary.stats[name]
            assert s.ci_low <= s.mean <= s.ci_high

    def test_out_of_bag_error_near_generating_models(self, validation_sample, summary):
        # the generating model scored on each replica's own out-of-bag set: the fits
        # should predict those incomes about as well. A fit stuck in the wrong basin
        # reads high (1.137 when every swarm started at random), and a train error
        # reported as the test error would read low.
        streams = np.random.SeedSequence(7).spawn(30)
        truth_errors = [
            _class_rmsle(TRUTH, ClassResiduals(build_ccdf(
                bootstrap_pair(validation_sample, streams[r.replica].spawn(2)[0])[1], QUICK.k)))
            for r in summary.replicas]
        ratio = summary.stats["test_rmsle"].mean / np.mean(truth_errors)
        assert 0.85 < ratio < 1.12

    def test_reproducible(self):
        truth = TwoClassParams(0.08, 1800.0, 1.5)
        sample = sample_incomes(truth, 3_000, seed=8)
        a = run_validation(sample, 5, QUICK, seed=3)
        b = run_validation(sample, 5, QUICK, seed=3)
        assert [r.top_fraction for r in a.replicas] == [r.top_fraction for r in b.replicas]
        assert [r.test_rmsle for r in a.replicas] == [r.test_rmsle for r in b.replicas]

    def test_master_seeds_share_no_replica(self):
        # replica streams are spawned, not offset: seeds 0 and 2 used to
        # share 9 of 10 replicas
        sample = sample_incomes(TwoClassParams(0.08, 1800.0, 1.5), 3_000, seed=8)
        a, b = (run_validation(sample, 10, QUICK, seed=seed) for seed in (0, 2))
        rows = {astuple(r)[1:] for r in a.replicas}
        assert not rows & {astuple(r)[1:] for r in b.replicas}
        assert [r.replica for r in a.replicas] == list(range(10))

    def test_degenerate_sample_yields_zero_effective(self):
        sample = IncomeSample([7.0] * 60)
        summary = run_validation(sample, 5, QUICK, seed=1)
        assert summary.n_effective == 0
        assert summary.stats == {}

    def test_replica_whose_top_fraction_rounds_to_one_is_dropped(self, caplog):
        # one income of 3e17 puts the search box's temperatures so far above the
        # crossover of 2 that exp(-m_c/T) rounds to 1: those replicas drop, the run goes on
        sample = IncomeSample(([1.0] * 8 + [2.0, 3.001631813210701e+17]) * 3)
        summary = run_validation(sample, 20, FitSettings(k=50, n_candidates=8, max_iters=10),
                                 seed=1)
        assert 0 < summary.n_effective < 20
        assert all(0.0 < r.top_fraction < 1.0 for r in summary.replicas)
        assert "no non-degenerate model" in caplog.text

    def test_rejects_too_few_replicas(self):
        sample = IncomeSample([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            run_validation(sample, 1, QUICK)


class TestOutOfBagError:
    @pytest.mark.parametrize("params", [TwoClassParams(0.10, 1800.0, 1.8),
                                        TwoClassParams(0.05, 1500.0, 2.6),
                                        TwoClassParams(0.20, 2500.0, 1.2)])
    def test_matches_reference_oracle(self, params):
        sample = sample_incomes(TwoClassParams(0.10, 1800.0, 1.8), 20_000, seed=12)
        _, test = bootstrap_pair(sample, seed=3)
        for k in (500, 2000, 50_000):
            ccdf = build_ccdf(test, min(k, test.n))
            pts = ccdf.class_points[:-1]
            expected = rmsle(ccdf.evaluate(pts), model_ccdf(params, pts))
            residuals = ClassResiduals(build_ccdf(test, k))
            assert _class_rmsle(params, residuals) == pytest.approx(expected, rel=1e-9)


def _two_part_rmsle(sample, k, base):
    """Direct log error of the discontinuous baseline model."""
    ccdf = build_ccdf(sample, min(k, sample.n))
    pts = ccdf.class_points[:-1]
    log_model = np.where(pts < base.crossover, -pts / base.temperature,
                         np.log(base.top_fraction)
                         - base.pareto_index * np.log(pts / base.crossover))
    r = np.log(ccdf.evaluate(pts)) - log_model
    return np.sqrt(np.mean(r * r))


class TestFixedProportionBaseline:
    @pytest.mark.parametrize("lam0", [0.02, 0.05, 0.15])
    def test_errors_match_direct_expression(self, lam0):
        sample = sample_incomes(TwoClassParams(0.10, 1800.0, 1.8), 20_000, seed=13)
        train, _ = bootstrap_pair(sample, seed=4)
        base = fixed_proportion_fit(train, lam0, k=1500)
        assert base.train_rmsle == pytest.approx(_two_part_rmsle(train, 1500, base),
                                                 rel=1e-9)

    def test_matches_optimal_when_assumptions_hold(self):
        # the baseline premises (5% tail, temperature = mean) pin the
        # generating tail index at 1 + ln 20; widen the index range so both
        # fits can reach it
        alpha_star = 1 + np.log(20.0)
        truth = TwoClassParams(0.05, 1500.0, alpha_star)
        sample = sample_incomes(truth, 100_000, seed=3)
        settings = FitSettings(alpha_max=4.5)
        fit = fit_sample(sample, settings, seed=5)
        base = fixed_proportion_fit(sample, 0.05, alpha_bounds=(1.0, 4.5))
        assert abs(fit.loss.rmsle - base.train_rmsle) < 0.01
        assert base.temperature == sample.mean
        assert base.top_fraction == 0.05

    @pytest.mark.parametrize("seed, lam0, k", [(13, 0.05, 1500), (14, 0.02, 800),
                                               (15, 0.15, 3000)])
    def test_alpha_minimises_tail_error(self, seed, lam0, k):
        sample = sample_incomes(TwoClassParams(0.10, 1800.0, 1.8), 20_000, seed=seed)
        base = fixed_proportion_fit(sample, lam0, k=k)
        ccdf = build_ccdf(sample, k)
        pts = ccdf.class_points[:-1]
        tail = pts[pts >= base.crossover]
        log_fraction = np.log(ccdf.evaluate(tail))

        def tail_error(alpha):
            r = log_fraction - (np.log(lam0) - alpha * np.log(tail / base.crossover))
            return np.mean(r ** 2)

        assert 1.0 < base.pareto_index < 3.0
        for step in (1e-6, -1e-6):
            assert tail_error(base.pareto_index + step) >= tail_error(base.pareto_index)

    @pytest.mark.parametrize("bounds", [(1.0, 3.0), (2.5, 3.5), (1.0, 1.5)])
    def test_slope_past_range_returns_the_bound(self, bounds):
        # the baseline premises pin the generating index at 1 + ln 20 = 4.0,
        # past every range here, so the least error sits on the upper bound
        truth = TwoClassParams(0.05, 1500.0, 1 + np.log(20.0))
        sample = sample_incomes(truth, 20_000, seed=3)
        assert fixed_proportion_fit(sample, 0.05, alpha_bounds=bounds).pareto_index == bounds[1]
        # a range above the slope returns its lower bound
        assert fixed_proportion_fit(sample, 0.05, alpha_bounds=(4.5, 5.0)).pareto_index == 4.5

    def test_baseline_crossover_is_log20_quantile(self):
        truth = TwoClassParams(0.05, 1500.0, 1 + np.log(20.0))
        sample = sample_incomes(truth, 100_000, seed=3)
        base = fixed_proportion_fit(sample, 0.05)
        assert base.crossover == pytest.approx(1500.0 * np.log(20.0), rel=0.03)

    def test_worse_than_optimal_when_assumption_violated(self):
        truth = TwoClassParams(0.10, 1800.0, 1.8)
        sample = sample_incomes(truth, 50_000, seed=104)
        fit = fit_sample(sample, FitSettings(k=2000, n_candidates=24, max_iters=80),
                         seed=4)
        base = fixed_proportion_fit(sample, 0.05, k=2000)
        assert base.train_rmsle > fit.loss.rmsle

    def test_optimal_beats_baseline_in_every_replica(self):
        # mismatched tail share: the optimal crossover must win replica by replica
        truth = TwoClassParams(0.10, 1800.0, 1.8)
        sample = sample_incomes(truth, 20_000, seed=9)
        for r in range(10):
            train, _ = bootstrap_pair(sample, seed=100 + r)
            fit = fit_sample(train, QUICK, seed=r)
            base = fixed_proportion_fit(train, 0.05, k=QUICK.k)
            assert fit.loss.rmsle <= base.train_rmsle

    def test_too_few_tail_points_rejected(self):
        sample = IncomeSample(np.linspace(1.0, 100.0, 40))
        with pytest.raises(ValueError, match="class points"):
            fixed_proportion_fit(sample, 0.05, k=40)
        # a tied top tenth puts every tail point at the crossover itself
        tied = IncomeSample([*np.arange(1.0, 901.0), *[5000.0] * 100])
        with pytest.raises(ValueError, match="only 0 class points"):
            fixed_proportion_fit(tied, 0.05, k=1000)

    def test_invalid_proportion_rejected(self):
        sample = IncomeSample(np.linspace(1.0, 100.0, 40))
        with pytest.raises(ValueError):
            fixed_proportion_fit(sample, 0.0)

"""Loss assembly: parameter resolution, log error, penalties, sentinel."""

import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from incomefit import (
    FitContext,
    FitSettings,
    IncomeSample,
    SENTINEL_LOSS,
    SearchPoint,
    TwoClassParams,
    build_ccdf,
    empirical_mean,
    exponential_regime_mean,
    fit_sample,
    l1_penalty,
    l2_penalty,
    model_ccdf,
    resolve_params,
    rmsle,
    sample_incomes,
)
from incomefit.objective import stacked_objective


@pytest.fixture(scope="module")
def exp_sample():
    rng = np.random.default_rng(33)
    return IncomeSample(rng.exponential(scale=1000.0, size=100_000))


@pytest.fixture(scope="module")
def two_class_sample():
    return sample_incomes(TwoClassParams(0.10, 1800.0, 1.8), 100_000, seed=55)


class TestResolveParams:
    def test_crossover_equal_to_temperature(self, exp_sample):
        ccdf = build_ccdf(exp_sample)
        # pick the fraction whose interpolated inverse is exactly the temperature
        t = 1000.0
        p = float(np.interp(t, ccdf.incomes, ccdf.fractions))
        params, m_c = resolve_params(SearchPoint(p, 2.0, t), ccdf)
        assert m_c == pytest.approx(t, rel=1e-9)
        assert params.lam == pytest.approx(np.exp(-1.0), rel=1e-9)

    def test_lambda_tracks_fraction_on_exponential_data(self, exp_sample):
        ccdf = build_ccdf(exp_sample)
        for p in (0.05, 0.1, 0.2):
            params, m_c = resolve_params(SearchPoint(p, 2.0, 1000.0), ccdf)
            assert params.lam == pytest.approx(p, rel=0.03)
            assert params.temperature == 1000.0

    def test_fixed_point_resembles_2019_report(self):
        # at a self-consistent optimum the resolved top fraction equals the
        # search fraction; emulate with data drawn from the fitted model
        truth = TwoClassParams(0.1064, 1775.0, 1.789)
        s = sample_incomes(truth, 200_000, seed=77)
        ccdf = build_ccdf(s)
        params, m_c = resolve_params(SearchPoint(0.1064, 1.789, 1775.0), ccdf)
        assert m_c == pytest.approx(3977, rel=0.02)
        assert params.lam == pytest.approx(0.1064, rel=0.02)

    def test_degenerate_ccdf_rejected(self):
        s = IncomeSample([4.0, 4.0, 4.0])
        ccdf = build_ccdf(s)
        with pytest.raises(ValueError, match="degenerate"):
            resolve_params(SearchPoint(0.1, 2.0, 4.0), ccdf)


class TestRmsle:
    def test_identical_vectors(self):
        v = np.array([0.5, 0.25, 0.125])
        assert rmsle(v, v) == 0.0

    def test_uniform_log_offset(self):
        v = np.array([0.5, 0.25, 0.125, 0.0625])
        assert rmsle(v, v * np.e) == pytest.approx(1.0, rel=1e-12)

    def test_loop_summation_oracle(self):
        rng = np.random.default_rng(8)
        emp = rng.random(100) + 0.01
        mod = rng.random(100) + 0.01
        total = 0.0
        for e, m in zip(emp, mod):
            total += (np.log(e) - np.log(m)) ** 2
        assert rmsle(emp, mod) == pytest.approx(np.sqrt(total / 100), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rmsle([0.5, 0.0], [0.5, 0.1])
        with pytest.raises(ValueError):
            rmsle([0.5, 0.2], [0.5, -0.1])
        with pytest.raises(ValueError):
            rmsle([0.5, 0.2, 0.1], [0.5, 0.2])


class TestMeanPenalty:
    def test_zero_when_means_match(self):
        rng = np.random.default_rng(13)
        s = IncomeSample(rng.exponential(scale=10.0, size=5000) + 0.1)
        m_c = 20.0
        target = empirical_mean(s, upper_cutoff=m_c)
        # temperature solving the body-mean equation makes the penalty vanish
        t = brentq(lambda x: exponential_regime_mean(x, m_c) - target, 0.5, 500.0)
        assert l1_penalty(t, m_c, s) == pytest.approx(0.0, abs=1e-12)

    def test_one_when_theoretical_mean_doubles(self):
        rng = np.random.default_rng(14)
        s = IncomeSample(rng.exponential(scale=10.0, size=5000) + 0.1)
        m_c = 30.0
        target = 2.0 * empirical_mean(s, upper_cutoff=m_c)
        if exponential_regime_mean(500.0, m_c) > target:
            t = brentq(lambda x: exponential_regime_mean(x, m_c) - target, 0.5, 500.0)
            assert l1_penalty(t, m_c, s) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_on_exponential_data_with_true_temperature(self, exp_sample):
        t = 1000.0
        assert l1_penalty(t, t * np.log(10.0), exp_sample) < 0.02

    def test_no_data_below_crossover_rejected(self):
        s = IncomeSample([5.0, 6.0, 7.0])
        with pytest.raises(ValueError):
            l1_penalty(1.0, 2.0, s)


class TestFractionPenalty:
    def test_exact_match(self):
        assert l2_penalty(0.1, 0.1) == 0.0

    def test_ten_percent_off(self):
        assert l2_penalty(0.11, 0.1) == pytest.approx(0.1, rel=1e-9)

    def test_rejects_zero_fraction(self):
        with pytest.raises(ValueError):
            l2_penalty(0.1, 0.0)


class TestLoss:
    def test_near_zero_at_generating_parameters(self):
        truth = TwoClassParams(0.10, 1800.0, 1.8)
        s = sample_incomes(truth, 1_000_000, seed=1)
        ctx = FitContext(s, k=10_000)
        b = ctx.loss_at(truth.lam, truth.alpha, truth.temperature)
        assert b.total < 0.01

    def test_breakdown_matches_component_functions(self, two_class_sample):
        ctx = FitContext(two_class_sample, k=2000)
        x = SearchPoint(0.09, 1.9, 1750.0)
        b = ctx.loss_at(x.p, x.alpha, x.temperature)
        ccdf = build_ccdf(two_class_sample, 2000)
        params, m_c = resolve_params(x, ccdf)
        assert b.crossover == pytest.approx(m_c, rel=1e-12)
        assert b.params.lam == pytest.approx(params.lam, rel=1e-12)
        emp = ccdf.evaluate(ctx.fit_points)
        mod = model_ccdf(params, ctx.fit_points)
        assert b.rmsle == pytest.approx(rmsle(emp, mod), rel=1e-9)
        assert b.mean_penalty == pytest.approx(
            l1_penalty(x.temperature, m_c, two_class_sample), rel=1e-9)
        assert b.fraction_penalty == pytest.approx(
            l2_penalty(params.lam, x.p), rel=1e-9)
        assert b.total == b.rmsle + b.mean_penalty + b.fraction_penalty

    def test_perturbing_alpha_increases_loss(self, two_class_sample):
        ctx = FitContext(two_class_sample, k=5000)
        base = ctx.loss_at(0.10, 1.8, 1800.0).total
        worse = ctx.loss_at(0.10, 2.3, 1800.0).total
        assert worse > base

    def test_nonnegative_components(self, two_class_sample):
        ctx = FitContext(two_class_sample, k=1000)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = SearchPoint(rng.uniform(0.001, 0.2), rng.uniform(1.01, 3.0),
                            rng.uniform(900.0, 7000.0))
            b = ctx.loss_at(x.p, x.alpha, x.temperature)
            assert b.rmsle >= 0 and b.mean_penalty >= 0 and b.fraction_penalty >= 0
            assert b.total >= 0

    def test_depends_only_on_order_statistics(self):
        rng = np.random.default_rng(41)
        values = rng.exponential(scale=500.0, size=4000) + 1.0
        ctx1 = FitContext(IncomeSample(values), k=500)
        ctx2 = FitContext(IncomeSample(rng.permutation(values)), k=500)
        x = (0.1, 1.8, 520.0)
        assert ctx1.loss_at(*x).total == ctx2.loss_at(*x).total

    def test_currency_rescaling_covariance(self, two_class_sample):
        c = 3.7
        scaled = IncomeSample(two_class_sample.values * c)
        ctx1 = FitContext(two_class_sample, k=2000)
        ctx2 = FitContext(scaled, k=2000)
        b1 = ctx1.loss_at(0.09, 1.9, 1750.0)
        b2 = ctx2.loss_at(0.09, 1.9, 1750.0 * c)
        assert b2.rmsle == pytest.approx(b1.rmsle, rel=1e-9)
        assert b2.fraction_penalty == pytest.approx(b1.fraction_penalty, rel=1e-9)
        assert b2.mean_penalty == pytest.approx(b1.mean_penalty, rel=1e-9)
        assert b2.crossover == pytest.approx(b1.crossover * c, rel=1e-9)

    def test_rescaling_covariance_at_tiny_incomes(self, two_class_sample):
        # the squares of incomes this small underflow a float
        c = 2.0 ** -1000
        ctx1 = FitContext(two_class_sample, k=2000)
        ctx2 = FitContext(IncomeSample(two_class_sample.values * c), k=2000)
        b1 = ctx1.loss_at(0.09, 1.9, 1750.0)
        b2 = ctx2.loss_at(0.09, 1.9, 1750.0 * c)
        assert b2.rmsle == pytest.approx(b1.rmsle, rel=1e-9)
        assert b2.total == pytest.approx(b1.total, rel=1e-9)
        split1 = ctx1.split_errors(1750.0, b1.crossover, -2.0, 1.9)
        split2 = ctx2.split_errors(1750.0 * c, b2.crossover, -2.0, 1.9)
        assert split2 == pytest.approx(split1, rel=1e-9)

    def test_crossover_continuous_and_monotone_in_fraction(self, two_class_sample):
        ctx = FitContext(two_class_sample, k=2000)
        ps = np.linspace(0.005, 0.2, 500)
        m_cs = np.array([ctx.loss_at(p, 1.8, 1800.0).crossover for p in ps])
        assert np.all(np.diff(m_cs) <= 0)
        # piecewise-linear interpolation is continuous: an epsilon move in
        # the fraction moves the crossover by at most epsilon times the
        # steepest segment slope
        rng = np.random.default_rng(6)
        ccdf = build_ccdf(two_class_sample, 2000)
        slopes = np.abs(np.diff(ccdf.incomes) / np.diff(ccdf.fractions))
        eps = 1e-9
        for p in rng.uniform(0.006, 0.199, 50):
            left = ctx.loss_at(p - eps, 1.8, 1800.0).crossover
            right = ctx.loss_at(p + eps, 1.8, 1800.0).crossover
            assert abs(right - left) <= 2 * eps * slopes.max() + 1e-9

    def test_sentinel_on_degenerate_inputs(self, two_class_sample):
        ctx = FitContext(two_class_sample, k=1000)
        # tiny temperature: exponent overflow
        b = ctx.loss_at(0.01, 2.0, 1e-6)
        assert b.degenerate and b.total == SENTINEL_LOSS
        # all-equal sample: single CCDF knot
        ctx_flat = FitContext(IncomeSample([7.0] * 50), k=10)
        b = ctx_flat.loss_at(0.1, 2.0, 7.0)
        assert b.degenerate and b.total == SENTINEL_LOSS

    def test_sentinel_when_top_fraction_rounds_to_one(self):
        # p = 0.2 puts the crossover at 2; z = m_c/T below 2**-53 leaves exp(-z) == 1.0
        sample = IncomeSample([1.0] * 8 + [2.0, 3.001631813210701e+17])
        ctx = FitContext(sample, k=10)
        assert ctx.loss_at(0.2, 2.0, 4.298e16).degenerate
        assert ctx.loss_at(0.2, 2.0, 2.0 ** 55).degenerate
        edge = ctx.loss_at(0.2, 2.0, 2.0 ** 54)
        assert not edge.degenerate and edge.params.lam < 1.0
        for seed in range(5):
            assert fit_sample(sample, seed=seed).params.lam < 1.0

    def test_deterministic(self, two_class_sample):
        ctx = FitContext(two_class_sample, k=1000)
        x = (0.12, 1.7, 1900.0)
        assert ctx.loss_at(*x).total == ctx.loss_at(*x).total


class TestObjectiveBatch:
    """The batched prefix-sum loss against the reference functions, and ``loss_at`` against it."""

    REL = 1e-9

    @pytest.fixture(scope="class", params=[2000, 10_000], ids=["k2000", "k10000"])
    def case(self, request, two_class_sample):
        """Context, default search box and a fitted optimum at one k."""
        settings = FitSettings(k=request.param, n_candidates=16, max_iters=40,
                               refine_every=0, refine_max_steps=40)
        ctx = FitContext(two_class_sample, settings.k)
        fit = fit_sample(two_class_sample, settings, seed=3, context=ctx)
        bounds = settings.search_box(ctx.mean)
        optimum = np.array([fit.point.p, fit.point.alpha, fit.point.temperature])
        return ctx, bounds, optimum

    @staticmethod
    def exact(sample, k, points):
        """Totals from the reference functions alone, on one CCDF of ``sample``."""
        ccdf = build_ccdf(sample, k)
        fit_points = ccdf.class_points[:-1]
        emp = ccdf.evaluate(fit_points)
        totals = []
        for x in points:
            point = SearchPoint(*x)
            params, m_c = resolve_params(point, ccdf)
            totals.append(rmsle(emp, model_ccdf(params, fit_points))
                          + l1_penalty(point.temperature, m_c, sample)
                          + l2_penalty(params.lam, point.p))
        return np.array(totals)

    @staticmethod
    def assert_loss_at_is_stacked(ctx, points, batch):
        totals = np.array([ctx.loss_at(*x).total for x in points])
        assert totals.tobytes() == batch.tobytes()

    def test_matches_loss_at_in_default_box(self, case, two_class_sample):
        ctx, bounds, _ = case
        rng = np.random.default_rng(101)
        points = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * rng.random((20_000, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = stacked_objective([ctx], [points])
        assert batch.shape == (20_000,)
        np.testing.assert_allclose(batch, self.exact(two_class_sample, ctx.k, points),
                                   rtol=self.REL, atol=0)
        self.assert_loss_at_is_stacked(ctx, points, batch)

    def test_matches_loss_at_near_optimum(self, case, two_class_sample):
        ctx, _, optimum = case
        rng = np.random.default_rng(202)
        points = optimum * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, (2000, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = stacked_objective([ctx], [points])
        np.testing.assert_allclose(batch, self.exact(two_class_sample, ctx.k, points),
                                   rtol=self.REL, atol=0)
        self.assert_loss_at_is_stacked(ctx, points, batch)

    def test_matches_reference_oracle(self, case, two_class_sample):
        ctx, bounds, optimum = case
        rng = np.random.default_rng(303)
        points = np.concatenate([
            bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * rng.random((40, 3)),
            optimum * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, (40, 3))),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = stacked_objective([ctx], [points])
        oracle = self.exact(two_class_sample, ctx.k, points)
        np.testing.assert_allclose(batch, oracle, rtol=self.REL, atol=0)

    def test_sentinel_rows(self, two_class_sample):
        ctx = FitContext(two_class_sample, k=1000)
        good = [0.1, 1.8, 1800.0]
        rows = np.array([
            good,
            [0.0, 1.8, 1800.0],      # p <= 0
            [-0.1, 1.8, 1800.0],
            [0.2000001, 1.8, 1800.0],  # p > P_MAX
            [1.5, 1.8, 1800.0],      # p > 1
            [1.0, 1.8, 1800.0],      # p > P_MAX, and no income below the crossover
            [0.1, 1.8, 0.0],         # T <= 0
            [0.1, 1.8, -50.0],
            [0.1, 1.0, 1800.0],      # alpha <= 1
            [0.1, 0.5, 1800.0],
            [0.01, 2.0, 1e-6],       # exponent overflow
            [0.1, 1.8, 1e300],       # exp(-m_c/T) rounds to 1
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = stacked_objective([ctx], [rows])
        assert all(ctx.loss_at(*x).degenerate for x in rows[1:])
        assert values[0] == pytest.approx(self.exact(two_class_sample, 1000, rows[:1])[0],
                                          rel=self.REL)
        assert np.all(values[1:] == SENTINEL_LOSS)

    def test_sentinel_on_all_equal_sample(self):
        ctx = FitContext(IncomeSample([7.0] * 50), k=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.array([[0.1, 2.0, 7.0], [0.5, 1.5, 3.0]])
            values = stacked_objective([ctx], [rows])
        assert np.all(values == SENTINEL_LOSS)

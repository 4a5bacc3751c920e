"""Yearly indicator series, deflation, correlation and regression kernels."""

import math

import numpy as np
import pytest

from incomefit import (
    FitSettings,
    TwoClassParams,
    affine_regression,
    build_series,
    pearson,
    sample_incomes,
    theoretical_gini,
)
from incomefit import _pool
from incomefit import series as series_module
from incomefit.fitting import fit_group
from incomefit.series import _t_test_p

QUICK = FitSettings(k=1000, n_candidates=20, max_iters=60, refine_every=15,
                    refine_max_steps=30)


class TestBuildSeries:
    def test_single_reference_year_identity(self):
        sample = sample_incomes(TwoClassParams(0.08, 1500.0, 1.6), 20_000, seed=1)
        series = build_series({2019: sample}, {2019: 5.5}, 2019, QUICK, seed=0)
        assert len(series) == 1
        rec = series[0]
        assert rec.temperature_deflated == rec.temperature
        assert rec.crossover_deflated == rec.crossover

    def test_deflation_arithmetic(self):
        sample = sample_incomes(TwoClassParams(0.08, 1500.0, 1.6), 20_000, seed=2)
        series = build_series({2000: sample, 2001: sample},
                              {2000: 1.0, 2001: 2.0}, 2001, QUICK, seed=0)
        early, late = series
        assert early.temperature_deflated == pytest.approx(2.0 * early.temperature, rel=1e-12)
        assert early.crossover_deflated == pytest.approx(2.0 * early.crossover, rel=1e-12)
        assert late.temperature_deflated == pytest.approx(late.temperature, rel=1e-12)

    def test_years_sorted_ascending(self):
        s1 = sample_incomes(TwoClassParams(0.08, 1500.0, 1.6), 10_000, seed=3)
        s2 = sample_incomes(TwoClassParams(0.08, 1500.0, 1.6), 10_000, seed=4)
        defl = {2005: 1.0, 2010: 1.3, 2002: 0.8}
        series = build_series({2010: s1, 2002: s2, 2005: s1}, defl, 2010, QUICK)
        assert [r.year for r in series] == [2002, 2005, 2010]

    def test_missing_deflator_names_year(self):
        sample = sample_incomes(TwoClassParams(0.08, 1500.0, 1.6), 5_000, seed=5)
        with pytest.raises(ValueError, match="2007"):
            build_series({2007: sample}, {2019: 1.0}, 2019, QUICK)

    def test_theoretical_gini_unaffected_by_deflation(self):
        sample = sample_incomes(TwoClassParams(0.08, 1500.0, 1.6), 20_000, seed=6)
        a = build_series({2001: sample}, {2001: 1.0, 2019: 3.0}, 2019, QUICK, seed=0)
        b = build_series({2001: sample}, {2001: 1.0, 2019: 1.0}, 2019, QUICK, seed=0)
        assert a[0].gini_theoretical == b[0].gini_theoretical
        rec = a[0]
        assert rec.gini_theoretical == pytest.approx(
            theoretical_gini(rec.top_fraction, rec.pareto_index), rel=1e-12)

    def test_year_streams_differ_across_master_seeds(self, monkeypatch):
        # year i used to be fitted with seed + i, so year 1 under seed 0 and
        # year 0 under seed 1 drew the same stream. The fits themselves may
        # agree: a good fit of one sample does not depend on its stream.
        handed = []

        def recording(contexts, settings, seeds):
            handed.append([np.random.default_rng(s).random(4).tolist() for s in seeds])
            return fit_group(contexts, settings, seeds)

        monkeypatch.setattr(_pool, "cpu_count", lambda: 1)     # one group, fitted in-process
        monkeypatch.setattr(series_module, "fit_group", recording)
        sample = sample_incomes(TwoClassParams(0.08, 1500.0, 1.6), 5_000, seed=7)
        defl = {2001: 1.0, 2002: 1.0}
        for seed in (0, 1):
            build_series({2001: sample, 2002: sample}, defl, 2001, QUICK, seed=seed)
        (a0, a1), (b0, b1) = handed
        assert len({tuple(draws) for draws in (a0, a1, b0, b1)}) == 4

    def test_recovers_drifting_tail_index(self):
        # five years with the index drifting 1.4 -> 2.0: the recovered
        # series must rise overall with no step dropping below noise
        alphas = [1.4, 1.55, 1.7, 1.85, 2.0]
        samples = {}
        for i, alpha in enumerate(alphas):
            truth = TwoClassParams(0.08, 1800.0, alpha)
            samples[2001 + i] = sample_incomes(truth, 50_000, seed=30 + i)
        defl = {y: 1.0 for y in samples}
        series = build_series(samples, defl, 2001,
                              FitSettings(k=2000, n_candidates=24, max_iters=80),
                              seed=1)
        recovered = np.array([r.pareto_index for r in series])
        assert recovered[-1] - recovered[0] > 0.4
        assert np.all(np.diff(recovered) > -0.06)


class TestPearson:
    def test_exact_affine_correlations(self):
        x = np.array([1.0, 2.0, 3.5, 7.0, 9.0])
        up = pearson(x, 2.0 * x + 1.0, n_boot=50, seed=0)
        down = pearson(x, -x, n_boot=50, seed=0)
        assert up.rho == pytest.approx(1.0, abs=1e-12)
        assert down.rho == pytest.approx(-1.0, abs=1e-12)
        assert up.p_value == 0.0 and down.p_value == 0.0

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(1)
        x, y = rng.random(25), rng.random(25)
        assert pearson(x, y, n_boot=0).rho == pearson(y, x, n_boot=0).rho
        assert pearson(3.0 * x + 2.0, y, n_boot=0).rho == pytest.approx(
            pearson(x, y, n_boot=0).rho, rel=1e-12)

    def test_p_value_matches_t_distribution(self):
        rng = np.random.default_rng(2)
        x = rng.random(19)
        y = x + 0.3 * rng.random(19)
        from scipy import stats
        expected = stats.pearsonr(x, y)
        got = pearson(x, y, n_boot=0)
        assert got.rho == pytest.approx(expected.statistic, rel=1e-12)
        assert got.p_value == pytest.approx(expected.pvalue, rel=1e-9)

    def test_constant_series_rejected(self):
        # no correlation exists: every statistic is nan, as affine_regression's
        for xs, ys in [([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])]:
            res = pearson(xs, ys)
            assert math.isnan(res.rho) and math.isnan(res.rho_std)
            assert math.isnan(res.p_value) and res.n == 3

    @pytest.mark.parametrize("n", [3, 7, 8, 9, 20])
    def test_spread_equals_one_draw_per_resample(self, n):
        # the reference loop draws each resample on its own and skips constant ones
        x = np.arange(n) + np.random.default_rng(n).random(n)
        y = np.where(np.arange(n) < 2, x, 0.0)   # a resample of y missing both x's is constant
        rng = np.random.default_rng(9)
        draws = []
        for _ in range(1000):
            idx = rng.integers(0, n, size=n)
            xb, yb = x[idx], y[idx]
            if np.all(xb == xb[0]) or np.all(yb == yb[0]):
                continue
            a, b = xb - xb.mean(), yb - yb.mean()
            draws.append(float(np.sum(a * b) / np.sqrt(np.sum(a * a) * np.sum(b * b))))
        assert len(draws) < 1000
        assert pearson(x, y, seed=9).rho_std == float(np.std(draws, ddof=1))

    def test_known_correlation_inside_bootstrap_band(self):
        # bivariate normal with population correlation 0.9, 19 paired points
        target = 0.9
        hits = 0
        runs = 20
        for run in range(runs):
            rng = np.random.default_rng(400 + run)
            z1 = rng.standard_normal(19)
            z2 = rng.standard_normal(19)
            x = z1
            y = target * z1 + np.sqrt(1 - target ** 2) * z2
            res = pearson(x, y, n_boot=1000, seed=run)
            if abs(res.rho - target) <= 2.0 * res.rho_std:
                hits += 1
        assert hits >= runs * 0.9


def exact_t(rho: float, nu: int) -> float:
    """|t| of a float rho, with 1 - rho^2 formed without cancellation."""
    r = abs(rho)
    return r * math.sqrt(nu / ((1.0 - r) * (1.0 + r)))


class TestTTestP:
    """``_t_test_p`` against closed forms, scipy's Student t and mpmath values."""

    RHOS = np.concatenate([np.geomspace(1e-9, 0.5, 400), 1.0 - np.geomspace(1e-13, 0.5, 400)])

    def test_one_degree_of_freedom_closed_form(self):
        # nu = 1: p = (2/pi) atan(1/|t|), with 1/|t| = sqrt(1 - rho^2)/|rho|: (2/pi) acos|rho|
        for rho in self.RHOS:
            expected = 2.0 / math.pi * math.acos(rho)
            assert _t_test_p(-rho, 3) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_two_degrees_of_freedom_closed_form(self):
        # nu = 2: p = 1 - |t|/sqrt(2 + t^2), and |t|/sqrt(2 + t^2) = |rho|
        for rho in self.RHOS:
            t = exact_t(rho, 2)
            assert t / math.sqrt(2.0 + t * t) == pytest.approx(rho, rel=1e-15, abs=0.0)
            assert _t_test_p(rho, 4) == pytest.approx(1.0 - rho, rel=1e-14, abs=0.0)

    def test_matches_student_t_grid(self):
        from scipy.special import stdtr
        for nu in range(1, 101):
            for t in np.geomspace(1e-4, 1e3, 60):
                rho = t / math.sqrt(nu + t * t)
                expected = 2.0 * float(stdtr(nu, -exact_t(rho, nu)))
                assert _t_test_p(rho, nu + 2) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_near_one_for_tiny_t(self):
        # scipy's stdtr at nu = 1 is off by 3e-9 at |t| = 1e-8; the closed-form test covers nu = 1
        from scipy.special import stdtr
        for nu in range(2, 101):
            for t in (3e-9, 1e-8, 3e-8):
                rho = t / math.sqrt(nu + t * t)
                expected = 2.0 * float(stdtr(nu, -exact_t(rho, nu)))
                assert _t_test_p(rho, nu + 2) == pytest.approx(expected, abs=1e-15)

    def test_perfect_correlation_has_zero_p(self):
        for n in (3, 4, 30):
            assert _t_test_p(1.0, n) == 0.0 and _t_test_p(-1.0, n) == 0.0

    LONG_TS = (1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 2.03, 2.5, 3.0, 5.0, 10.0)
    # p at rho = t / math.sqrt(nu + t * t) for each t of LONG_TS, from mpmath at
    # mp.dps = 40: float(mpmath.betainc(mpf(nu) / 2, 0.5, 0, 1 - mpf(rho) ** 2,
    # regularized=True))
    LONG_REFERENCE = {
        39: (0.9992072133047888, 0.9920722672096238, 0.9208566174215234,
             0.6198846916973788, 0.3234749451713833, 0.1416670429468967,
             0.05249901534385475, 0.049217392180951884, 0.016733784747197833,
             0.0046865679403646845, 1.2524174089367222e-05, 2.5589435641754758e-12),
        40: (0.9992070862860574, 0.9920709969599448, 0.9208438530452802,
             0.6198147352334481, 0.32332181174829083, 0.1414667768791481,
             0.05232234321504921, 0.049043924602333686, 0.016620352830979217,
             0.00463013978415614, 1.1840065669659482e-05, 1.9313117004115587e-12),
        1000: (0.9992023150184527, 0.9920232819321873, 0.9203643690236041,
               0.6171850808338748, 0.31755241808467227, 0.13393003882208612,
               0.04577034649325166, 0.04262085187445335, 0.0125785678010908,
               0.00276670904423819, 6.767256364648623e-07, 1.667070295860034e-22),
        10_000: (0.9992021355190525, 0.9920214868493558, 0.9203463300310749,
                 0.6170860793232334, 0.31733470433042915, 0.13364597182361965,
                 0.04552726066143543, 0.04238295754282417, 0.012435219550583704,
                 0.0027064481899976645, 5.830326613662652e-07, 1.9632807428663795e-23),
        1_000_000: (0.9992021157716491, 0.9920212893655477, 0.9203443454920431,
                    0.6170751874723713, 0.31731074983357815, 0.13361471823679277,
                    0.04550053385131921, 0.04235680345356849, 0.012419489502163253,
                    0.0026998625414217966, 5.733997870890734e-07, 1.5278610768178274e-23),
    }

    @pytest.mark.parametrize("nu", sorted(LONG_REFERENCE))
    def test_long_series_match_mpmath(self, nu):
        # nu = 39 and 40 sit either side of the switch to the asymptotic gamma ratio and
        # to the wider symmetry rule (t = 2.03 at nu = 1e4 was 1.1e-12 off without it); at
        # nu = 1e6 the fraction in x still loses 7.8e-11 near t = 2.7 on a dense grid
        bound = 1e-12 if nu <= 10_000 else 1e-10
        for t, expected in zip(self.LONG_TS, self.LONG_REFERENCE[nu]):
            rho = t / math.sqrt(nu + t * t)
            assert _t_test_p(rho, nu + 2) == pytest.approx(expected, rel=bound, abs=0.0)


class TestAffineRegression:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        fit = affine_regression(x, 3.0 * x - 2.0)
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        assert fit.intercept == pytest.approx(-2.0, abs=1e-10)
        assert fit.residual_se == pytest.approx(0.0, abs=1e-10)
        assert fit.rho == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_on_noiseless_data(self):
        rng = np.random.default_rng(3)
        x = rng.random(12)
        y = 1.7 * x + 0.4
        forward = affine_regression(x, y)
        back = affine_regression(y, x)
        assert forward.slope * back.slope == pytest.approx(1.0, abs=1e-10)
        assert back.slope * forward.intercept + back.intercept == pytest.approx(0.0, abs=1e-10)

    def test_coverage_on_noisy_line(self):
        slope_true, intercept_true = 1.01, -0.07
        hits_slope = hits_intercept = 0
        runs = 20
        for run in range(runs):
            rng = np.random.default_rng(500 + run)
            x = np.linspace(0.5, 0.62, 19)
            y = intercept_true + slope_true * x + 0.003 * rng.standard_normal(19)
            fit = affine_regression(x, y)
            if abs(fit.slope - slope_true) <= 3 * fit.slope_se:
                hits_slope += 1
            if abs(fit.intercept - intercept_true) <= 3 * fit.intercept_se:
                hits_intercept += 1
        assert hits_slope >= runs * 0.9
        assert hits_intercept >= runs * 0.9

    def test_standard_errors_match_reference(self):
        rng = np.random.default_rng(4)
        x = rng.random(15)
        y = 2.0 * x + 0.1 * rng.standard_normal(15)
        from scipy import stats
        ref = stats.linregress(x, y)
        fit = affine_regression(x, y)
        assert fit.slope == pytest.approx(ref.slope, rel=1e-12)
        assert fit.intercept == pytest.approx(ref.intercept, rel=1e-12)
        assert fit.slope_se == pytest.approx(ref.stderr, rel=1e-9)
        assert fit.intercept_se == pytest.approx(ref.intercept_stderr, rel=1e-9)

    def test_constant_predictor_gives_nan(self):
        fit = affine_regression([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert fit.n == 3
        assert all(math.isnan(getattr(fit, name)) for name in (
            "slope", "slope_se", "intercept", "intercept_se", "residual_se", "rho", "p_value"))

    def test_rho_and_p_value_are_pearsons(self):
        rng = np.random.default_rng(5)
        x = rng.random(11)
        y = x + 0.5 * rng.random(11)
        fit, corr = affine_regression(x, y), pearson(x, y, n_boot=0)
        assert (fit.rho, fit.p_value, fit.n) == (corr.rho, corr.p_value, corr.n)

    def test_constant_response_has_no_correlation(self):
        fit = affine_regression([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert fit.slope == 0.0 and fit.intercept == 5.0
        assert math.isnan(fit.rho) and math.isnan(fit.p_value)

    @pytest.mark.parametrize("xs, ys, message", [
        ([1.0, 2.0, 3.0], [1.0, 2.0], "series must be 1-D and of equal length"),
        ([[1.0, 2.0, 3.0]], [[1.0, 2.0, 4.0]], "series must be 1-D and of equal length"),
        ([1.0, 2.0], [3.0, 5.0], "need at least 3 points, got 2"),
    ])
    def test_bad_input_raises_pearsons_errors(self, xs, ys, message):
        with pytest.raises(ValueError, match=message):
            pearson(xs, ys)
        with pytest.raises(ValueError, match=message):
            affine_regression(xs, ys)

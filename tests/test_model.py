"""Closed-form two-class distribution against quadrature and sampling oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from incomefit import (
    IncomeSample,
    TwoClassParams,
    build_ccdf,
    crossover_income,
    draw_incomes,
    empirical_gini,
    model_ccdf,
    model_mean,
    sample_incomes,
    theoretical_gini,
)
from oracle import exponential_regime_mean, gini_expansion, model_log_ccdf, model_pdf


def ccdf_square_integral(lam, alpha, temperature):
    """Quadrature oracle for the integral of CCDF^2 over [0, inf).

    Adaptive quadrature below the crossover; the power-law part has the
    analytic value lam^2 * m_c / (2 alpha - 1), which removes the
    improper-integral truncation error.
    """
    params = TwoClassParams(lam, temperature, alpha)
    m_c = params.crossover
    body, _ = quad(lambda m: model_ccdf(params, m) ** 2, 0.0, m_c, limit=200)
    tail = lam * lam * m_c / (2.0 * alpha - 1.0)
    return body + tail


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoClassParams(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            TwoClassParams(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            TwoClassParams(0.1, -1.0, 2.0)
        with pytest.raises(ValueError):
            TwoClassParams(0.1, 1.0, 1.0)


class TestCrossoverIncome:
    def test_reported_2019_values(self):
        # jointly reported optimum: lam=10.64%, T=1775 -> crossover 3977
        assert crossover_income(TwoClassParams(0.1064, 1775.0, 1.789)) == pytest.approx(3977, abs=1)

    def test_unit_case(self):
        assert crossover_income(TwoClassParams(np.exp(-1.0), 1.0, 2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_fixed_five_percent_case(self):
        value = crossover_income(TwoClassParams(0.05, 2067.0, 1.816))
        assert value == pytest.approx(2067.0 * np.log(20.0), rel=1e-12)
        assert abs(value - 6192) <= 21


class TestModelCcdf:
    def test_anchors(self):
        p = TwoClassParams(0.1064, 1775.0, 1.789)
        assert model_ccdf(p, 0.0) == 1.0
        assert model_ccdf(p, p.crossover) == pytest.approx(p.lam, rel=1e-12)

    def test_tail_value(self):
        p = TwoClassParams(0.1064, 1775.0, 1.789)
        # independent exponentiation: lam * exp(-alpha * ln 2)
        expected = 0.1064 * np.exp(-1.789 * np.log(2.0))
        got = model_ccdf(p, 2.0 * p.crossover)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0308, abs=2e-4)

    def test_continuity_at_crossover(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            lam = rng.uniform(0.001, 0.2)
            alpha = rng.uniform(1.05, 3.0)
            t = rng.uniform(1.0, 1e5)
            p = TwoClassParams(lam, t, alpha)
            m_c = p.crossover
            eps = 1e-9 * m_c
            assert abs(model_ccdf(p, m_c - eps) - model_ccdf(p, m_c + eps)) < 1e-9

    def test_strictly_decreasing_in_unit_interval(self):
        p = TwoClassParams(0.1, 1000.0, 1.8)
        grid = np.geomspace(1.0, 1e6, 500)
        vals = model_ccdf(p, grid)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0) and np.all(vals <= 1.0)

    def test_log_form_matches(self):
        p = TwoClassParams(0.07, 2000.0, 2.4)
        grid = np.geomspace(10.0, 1e6, 200)
        assert np.allclose(model_log_ccdf(p, grid), np.log(model_ccdf(p, grid)), atol=1e-12)

    def test_negative_income_rejected(self):
        p = TwoClassParams(0.1, 1000.0, 1.8)
        with pytest.raises(ValueError):
            model_ccdf(p, -1.0)
        with pytest.raises(ValueError):
            model_pdf(p, -1.0)


class TestModelPdf:
    def test_normalization(self):
        for lam, t, alpha in [(0.1, 1000.0, 1.8), (0.05, 1.0, 2.5), (0.2, 300.0, 1.2)]:
            p = TwoClassParams(lam, t, alpha)
            body, _ = quad(lambda m: model_pdf(p, m), 0.0, p.crossover, limit=200)
            tail, _ = quad(lambda m: model_pdf(p, m), p.crossover, np.inf, limit=200)
            assert body + tail == pytest.approx(1.0, abs=1e-8)

    def test_is_negative_derivative_of_ccdf(self):
        p = TwoClassParams(0.1, 1500.0, 2.0)
        m_c = p.crossover
        rng = np.random.default_rng(4)
        points = np.concatenate([
            rng.uniform(10.0, m_c * 0.99, 50),
            rng.uniform(m_c * 1.01, m_c * 20, 50),
        ])
        for m in points:
            h = 1e-6 * m
            deriv = (model_ccdf(p, m + h) - model_ccdf(p, m - h)) / (2 * h)
            assert -deriv == pytest.approx(model_pdf(p, m), rel=1e-5)

    def test_density_jump_ratio_at_crossover(self):
        # pdf(m_c+)/pdf(m_c-) = alpha*T/m_c = alpha/ln(1/lam)
        p = TwoClassParams(0.08, 1200.0, 2.1)
        m_c = p.crossover
        below = model_pdf(p, m_c * (1 - 1e-12))
        at = model_pdf(p, m_c)
        assert at / below == pytest.approx(p.alpha / np.log(1 / p.lam), rel=1e-6)


class TestExponentialRegimeMean:
    def test_closed_form_point(self):
        assert exponential_regime_mean(1.0, np.log(2.0)) == pytest.approx(1.0 - np.log(2.0), rel=1e-12)

    def test_limit_and_overflow_guard(self):
        assert exponential_regime_mean(1.0, 1e6) == 1.0
        assert exponential_regime_mean(2.0, 2.0 * 800.0) == 2.0

    def test_truncated_exponential_quadrature(self):
        for t, m_c in [(1.0, 0.7), (1500.0, 4000.0), (3.0, 0.1)]:
            num, _ = quad(lambda m: m * np.exp(-m / t), 0.0, m_c)
            den, _ = quad(lambda m: np.exp(-m / t), 0.0, m_c)
            assert exponential_regime_mean(t, m_c) == pytest.approx(num / den, abs=1e-8 * t)


class TestModelMean:
    def test_pure_exponential_limit(self):
        p = TwoClassParams(1e-12, 1800.0, 2.0)
        assert model_mean(p) == pytest.approx(1800.0, rel=1e-9)

    def test_ccdf_integral_oracle(self):
        for lam, t, alpha in [(0.1, 1000.0, 1.8), (0.05, 50.0, 2.5), (0.18, 2.0, 1.3)]:
            p = TwoClassParams(lam, t, alpha)
            body, _ = quad(lambda m: model_ccdf(p, m), 0.0, p.crossover, limit=200)
            tail, _ = quad(lambda m: model_ccdf(p, m), p.crossover, np.inf, limit=200)
            assert model_mean(p) == pytest.approx(body + tail, rel=1e-8)

    def test_2019_configuration(self):
        p = TwoClassParams(0.1064, 1775.0, 1.789)
        expected = 1775.0 * ((1 - 0.1064) - 0.1064 * np.log(0.1064) / 0.789)
        assert model_mean(p) == pytest.approx(expected, rel=1e-12)
        assert model_mean(p) == pytest.approx(2122, abs=1)
        assert model_mean(p) > 1775.0  # sample mean exceeds the fitted temperature


class TestTheoreticalGini:
    def test_exponential_limit(self):
        for alpha in (1.5, 2.0, 2.5):
            assert theoretical_gini(1e-12, alpha) == pytest.approx(0.5, abs=1e-9)

    def test_2019_value(self):
        assert theoretical_gini(0.1064, 1.789) == pytest.approx(0.578, abs=0.001)

    def test_quadrature_oracle_on_grid(self):
        # G = 1 - (1/mu) * integral of CCDF^2
        for lam in np.linspace(0.01, 0.2, 5):
            for alpha in np.linspace(1.2, 3.0, 5):
                t = 1234.5
                mu = model_mean(TwoClassParams(lam, t, alpha))
                oracle = 1.0 - ccdf_square_integral(lam, alpha, t) / mu
                assert theoretical_gini(lam, alpha) == pytest.approx(oracle, abs=1e-6)

    def test_temperature_free(self):
        # the quadrature changes with T but the ratio does not
        lam, alpha = 0.09, 1.9
        g = theoretical_gini(lam, alpha)
        for t in (1.0, 42.0, 1e6):
            mu = model_mean(TwoClassParams(lam, t, alpha))
            assert 1.0 - ccdf_square_integral(lam, alpha, t) / mu == pytest.approx(g, abs=1e-9)

    def test_monotone_in_parameters(self):
        # increasing in the top fraction up to its peak at exp(-alpha)
        # (the pure-Pareto limit pulls it back down beyond), decreasing
        # in the tail index everywhere on the search domain
        lams = np.linspace(0.005, 0.2, 8)
        alphas = np.linspace(1.05, 3.0, 8)
        for alpha in alphas:
            rising = np.linspace(0.001, np.exp(-alpha) * 0.999, 8)
            g = [theoretical_gini(l, alpha) for l in rising]
            assert np.all(np.diff(g) > 0)
        for lam in lams:
            g = [theoretical_gini(lam, a) for a in alphas]
            assert np.all(np.diff(g) < 0)

    def test_peak_in_top_fraction_at_exp_minus_alpha(self):
        for alpha in (1.7, 2.0, 2.6):
            peak = np.exp(-alpha)
            g_peak = theoretical_gini(peak, alpha)
            assert g_peak > theoretical_gini(peak * 0.98, alpha)
            assert g_peak > theoretical_gini(peak * 1.02, alpha)


class TestGiniExpansion:
    def test_zero_returns_half_exactly(self):
        assert gini_expansion(0.0, 1.8) == 0.5

    def test_small_top_fraction_accuracy(self):
        assert abs(gini_expansion(1e-3, 1.8) - theoretical_gini(1e-3, 1.8)) < 1e-4

    def test_2019_configuration_shows_expansion_error(self):
        expanded = gini_expansion(0.1064, 1.789)
        expected = 0.5 + (np.log(1 / 0.1064) / 0.789 - 1.0) * 0.1064 / 2.0
        assert expanded == pytest.approx(expected, rel=1e-12)
        assert expanded == pytest.approx(0.597, abs=0.001)
        assert abs(expanded - theoretical_gini(0.1064, 1.789)) > 0.01

    def test_converges_faster_than_linearly(self):
        alpha = 2.0
        lams = [1e-2, 1e-3, 1e-4]
        errs = [abs(gini_expansion(l, alpha) - theoretical_gini(l, alpha)) / l
                for l in lams]
        assert errs[0] > errs[1] > errs[2]


class TestSampling:
    def test_inverse_branches_agree_at_top_fraction(self):
        p = TwoClassParams(0.1, 1000.0, 1.8)
        u = p.lam
        body = -p.temperature * np.log(u)
        tail = p.crossover * (u / p.lam) ** (-1.0 / p.alpha)
        assert body == pytest.approx(p.crossover, rel=1e-12)
        assert tail == pytest.approx(p.crossover, rel=1e-12)

    def test_deterministic(self):
        p = TwoClassParams(0.1, 1000.0, 1.8)
        a = draw_incomes(p, 1000, seed=9)
        b = draw_incomes(p, 1000, seed=9)
        assert np.array_equal(a, b)

    def test_sup_distance_to_model_ccdf(self):
        p = TwoClassParams(0.1, 1000.0, 1.8)
        s = sample_incomes(p, 100_000, seed=12)
        ccdf = build_ccdf(s)
        sup = np.max(np.abs(ccdf.fractions - model_ccdf(p, ccdf.incomes)))
        assert sup < 0.01

    def test_monte_carlo_mean(self):
        p = TwoClassParams(0.1, 1000.0, 2.0)
        draws = draw_incomes(p, 1_000_000, seed=15)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - model_mean(p)) < 3 * se

    def test_exponential_limit_gini(self):
        p = TwoClassParams(1e-9, 1.0, 2.0)
        s = sample_incomes(p, 100_000, seed=21)
        assert empirical_gini(s) == pytest.approx(0.5, abs=0.01)

    def test_n_validation(self):
        p = TwoClassParams(0.1, 1000.0, 1.8)
        with pytest.raises(ValueError):
            draw_incomes(p, 0, seed=1)
        s = sample_incomes(p, 2, seed=1)
        assert isinstance(s, IncomeSample)

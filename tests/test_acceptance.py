"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. The heaviest item is the bootstrap coverage harness
(criterion 8), which runs twenty validations of two hundred replicas
each.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from incomefit import (
    DatasetSpec,
    FitContext,
    FitSettings,
    IncomeSample,
    TwoClassParams,
    affine_regression,
    bootstrap_pair,
    build_ccdf,
    cmd_fit,
    cmd_synth,
    crossover_income,
    draw_incomes,
    empirical_gini,
    fit_sample,
    fixed_proportion_fit,
    model_ccdf,
    model_mean,
    pearson,
    run_validation,
    sample_incomes,
    theoretical_gini,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            print(f"PASS criterion {number}: {label}")
        return wrapper
    return decorate


RECOVERY_TRUTH = TwoClassParams(0.10, 1800.0, 1.8)
# the coverage harness generates at a sharper body/tail contrast and a
# larger sample, where the crossover fraction is well identified; see
# the criterion-8 test for the rationale
COVERAGE_TRUTH = TwoClassParams(0.05, 1800.0, 1.4)
COVERAGE_N = 200_000
COVERAGE_SETTINGS = FitSettings(k=2000, n_candidates=24, max_iters=80,
                                refine_every=20, refine_max_steps=40)


@pytest.fixture(scope="module")
def recovery_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "recovery.csv"
    cmd_synth(RECOVERY_TRUTH, 100_000, seed=42, out_path=path)
    return path


@pytest.fixture(scope="module")
def recovery_fit(recovery_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_fit")
    start = time.perf_counter()
    fit = cmd_fit(DatasetSpec(str(recovery_csv), "income"), out,
                  FitSettings(), seed=7)
    elapsed = time.perf_counter() - start
    return fit, elapsed


@criterion(1, "crossover identity at the reported 2019 optimum")
def test_criterion_01_crossover_identity():
    value = crossover_income(TwoClassParams(0.1064, 1775.0, 1.789))
    assert abs(value - 3977) <= 1


@criterion(2, "closed-form Gini value and quadrature agreement on a grid")
def test_criterion_02_gini_closed_form():
    assert theoretical_gini(0.1064, 1.789) == pytest.approx(0.578, abs=0.001)
    t = 1723.0
    for lam in np.linspace(0.01, 0.2, 5):
        for alpha in np.linspace(1.2, 3.0, 5):
            params = TwoClassParams(lam, t, alpha)
            m_c = params.crossover
            body, _ = quad(lambda m: model_ccdf(params, m) ** 2, 0.0, m_c,
                           limit=200)
            tail = lam * lam * m_c / (2 * alpha - 1)  # analytic Pareto part
            oracle = 1.0 - (body + tail) / model_mean(params)
            assert theoretical_gini(lam, alpha) == pytest.approx(oracle, abs=1e-6)


@criterion(3, "exponential limit of theoretical and empirical Gini")
def test_criterion_03_exponential_limit():
    for alpha in (1.5, 2.0, 2.5):
        assert theoretical_gini(1e-8, alpha) == pytest.approx(0.5, abs=1e-6)
    rng = np.random.default_rng(303)
    sample = IncomeSample(rng.exponential(scale=1250.0, size=100_000))
    assert empirical_gini(sample) == pytest.approx(0.5, abs=0.01)


@criterion(4, "parameter recovery on 1e5 synthetic draws within tolerances")
def test_criterion_04_parameter_recovery(recovery_fit):
    fit, elapsed = recovery_fit
    assert abs(fit.params.temperature / RECOVERY_TRUTH.temperature - 1) < 0.03
    assert abs(fit.params.alpha / RECOVERY_TRUTH.alpha - 1) < 0.05
    assert abs(fit.params.lam / RECOVERY_TRUTH.lam - 1) < 0.10
    assert fit.loss.total < 0.05
    assert elapsed < 60.0


@criterion(5, "hybrid optimizer at least as good as a 50^3 grid search")
def test_criterion_05_optimizer_vs_grid(recovery_csv):
    from incomefit.pipeline import ingest

    sample = ingest(DatasetSpec(str(recovery_csv), "income")).sample
    context = FitContext(sample, 10_000)
    fit = fit_sample(sample, FitSettings(), seed=7, context=context)
    grid_best = np.inf
    for p in np.linspace(0.2 / 50, 0.2, 50):
        for alpha in np.linspace(1.0, 3.0, 50):
            for t in np.linspace(context.mean / 2, 2 * context.mean, 50):
                value = context.loss_at(p, alpha, t).total
                if value < grid_best:
                    grid_best = value
    assert fit.loss.total <= grid_best + 1e-3


@criterion(6, "model CCDF continuous at the crossover for random parameters")
def test_criterion_06_continuity():
    rng = np.random.default_rng(606)
    for _ in range(100):
        params = TwoClassParams(rng.uniform(0.001, 0.2),
                                rng.uniform(1.0, 1e5),
                                rng.uniform(1.05, 3.0))
        m_c = params.crossover
        eps = 1e-9 * m_c
        gap = abs(model_ccdf(params, m_c - eps) - model_ccdf(params, m_c + eps))
        assert gap < 1e-9


@criterion(7, "optimal crossover beats the fixed five percent baseline")
def test_criterion_07_baseline_ordering():
    settings = FitSettings(k=2000, n_candidates=24, max_iters=80,
                           refine_every=20, refine_max_steps=40)
    wins = 0
    for run in range(20):
        sample = sample_incomes(RECOVERY_TRUTH, 50_000, seed=7000 + run)
        fit = fit_sample(sample, settings, seed=run)
        base = fixed_proportion_fit(sample, 0.05, k=settings.k)
        if base.train_rmsle > fit.loss.rmsle:
            wins += 1
    assert wins >= 19


@pytest.mark.slow
@criterion(8, "bootstrap: distinct fraction, CI coverage, out-of-bag error")
def test_criterion_08_bootstrap_machinery():
    # distinct fraction of with-replacement draws
    rng = np.random.default_rng(808)
    base = IncomeSample(rng.exponential(scale=900.0, size=10_000) + 1.0)
    fractions = [len(np.unique(bootstrap_pair(base, seed=r)[0].values)) / base.n
                 for r in range(100)]
    assert np.mean(fractions) == pytest.approx(1 - np.exp(-1), abs=0.01)

    # CI coverage of generating values over twenty independent harness
    # runs. The crossover fraction is only weakly identified when the
    # log-log slopes of body and tail nearly agree at the crossover
    # (|alpha - ln(1/lam)| small), so the harness generates where the
    # contrast is strong and the estimator bias is far below the
    # bootstrap spread.
    generating = {
        "crossover": COVERAGE_TRUTH.crossover,
        "top_fraction": COVERAGE_TRUTH.lam,
        "temperature": COVERAGE_TRUTH.temperature,
        "pareto_index": COVERAGE_TRUTH.alpha,
        "gini": theoretical_gini(COVERAGE_TRUTH.lam, COVERAGE_TRUTH.alpha),
    }
    runs = 20
    covered = {name: 0 for name in generating}
    gaps, spreads = [], []
    for run in range(runs):
        sample = sample_incomes(COVERAGE_TRUTH, COVERAGE_N, seed=9000 + run)
        summary = run_validation(sample, 200, COVERAGE_SETTINGS,
                                 seed=run * 10_000)
        assert summary.n_effective == 200
        for name, value in generating.items():
            stats = summary.stats[name]
            if stats.ci_low <= value <= stats.ci_high:
                covered[name] += 1
        gaps.append(abs(summary.stats["train_rmsle"].mean
                        - summary.stats["test_rmsle"].mean))
        spreads.append(summary.stats["test_rmsle"].std)
    for name, hits in covered.items():
        assert hits >= 18, f"{name} covered in only {hits}/{runs} runs"
    assert np.mean(gaps) < 2 * np.mean(spreads)


@criterion(9, "correlation and regression kernels at their exact limits")
def test_criterion_09_statistics_kernels():
    x = np.array([0.2, 0.9, 1.3, 2.8, 3.3, 4.1])
    assert pearson(x, 5 * x + 2, n_boot=0).rho == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -0.5 * x, n_boot=0).rho == pytest.approx(-1.0, abs=1e-12)
    exact = affine_regression(x, 3.0 * x - 2.0)
    assert exact.slope == pytest.approx(3.0, abs=1e-10)
    assert exact.intercept == pytest.approx(-2.0, abs=1e-10)

    hits = 0
    runs = 20
    for run in range(runs):
        rng = np.random.default_rng(900 + run)
        xs = np.linspace(0.0, 1.0, 25)
        ys = 0.6 + 1.4 * xs + 0.05 * rng.standard_normal(25)
        fit = affine_regression(xs, ys)
        if (abs(fit.slope - 1.4) <= 3 * fit.slope_se
                and abs(fit.intercept - 0.6) <= 3 * fit.intercept_se):
            hits += 1
    assert hits >= runs * 0.9


@criterion(10, "sampling matches the model CCDF and mean")
def test_criterion_10_sampling_fidelity():
    params = TwoClassParams(0.1, 1000.0, 2.0)
    draws = draw_incomes(params, 100_000, seed=1010)
    ccdf = build_ccdf(IncomeSample(draws))
    sup = np.max(np.abs(ccdf.fractions - model_ccdf(params, ccdf.incomes)))
    assert sup < 0.01
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - model_mean(params)) < 3 * se


@criterion(11, "byte-identical outputs under identical seed and inputs")
def test_criterion_11_determinism(tmp_path):
    import filecmp

    data = tmp_path / "det.csv"
    cmd_synth(TwoClassParams(0.1, 1500.0, 1.7), 20_000, seed=11, out_path=data)
    data2 = tmp_path / "det2.csv"
    cmd_synth(TwoClassParams(0.1, 1500.0, 1.7), 20_000, seed=11, out_path=data2)
    assert filecmp.cmp(data, data2, shallow=False)

    quick = FitSettings(k=800, n_candidates=16, max_iters=50,
                        refine_every=15, refine_max_steps=30)
    spec = DatasetSpec(str(data), "income")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cmd_fit(spec, out1, quick, seed=3)
    cmd_fit(spec, out2, quick, seed=3)
    for name in ("report.txt", "ccdf_points.csv", "model_curve.csv",
                 "markers.csv", "trace.tsv"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

"""Property tests of the out-of-bag error and the baseline on small two-class samples.

Both read their log errors from the class statistic's running sums, so
each is checked here against a direct computation on the sample's own
CCDF: the out-of-bag error against ``rmsle`` of ``model_ccdf``, the
baseline's tail index against the tail log error it minimises.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from incomefit import (  # noqa: E402
    TwoClassParams,
    bootstrap_pair,
    build_ccdf,
    fixed_proportion_fit,
    model_ccdf,
    rmsle,
    sample_incomes,
)
from incomefit.bootstrap import _class_rmsle  # noqa: E402
from incomefit.objective import ClassResiduals  # noqa: E402


def two_class_params():
    return st.builds(TwoClassParams, st.floats(0.02, 0.3), st.floats(500.0, 3000.0),
                     st.floats(1.2, 3.0))


@settings(max_examples=100, deadline=None)
@given(truth=two_class_params(), model=two_class_params(), n=st.integers(20, 400),
       seed=st.integers(0, 2**32 - 1), k=st.integers(2, 400))
def test_out_of_bag_error_matches_reference(truth, model, n, seed, k):
    _, test = bootstrap_pair(sample_incomes(truth, n, seed), seed)
    ccdf = build_ccdf(test, k)
    points = ccdf.class_points[:-1]
    expected = rmsle(ccdf.evaluate(points), model_ccdf(model, points))
    assert _class_rmsle(model, ClassResiduals(ccdf)) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(truth=two_class_params(), n=st.integers(300, 3000), seed=st.integers(0, 2**32 - 1),
       lam0=st.floats(0.02, 0.2), alpha_low=st.floats(1.0, 3.0), width=st.floats(0.1, 2.0))
def test_baseline_alpha_minimises_tail_error(truth, n, seed, lam0, alpha_low, width):
    sample = sample_incomes(truth, n, seed)
    bounds = (alpha_low, alpha_low + width)
    try:
        base = fixed_proportion_fit(sample, lam0, k=n, alpha_bounds=bounds)
    except ValueError as exc:
        assume("class points above the crossover" not in str(exc))
        raise
    ccdf = build_ccdf(sample, n)
    points = ccdf.class_points[:-1]
    tail = points[points >= base.crossover]
    log_fraction = np.log(ccdf.evaluate(tail))

    def tail_error(alpha):
        r = log_fraction - (np.log(lam0) - alpha * np.log(tail / base.crossover))
        return np.mean(r ** 2)

    assert bounds[0] <= base.pareto_index <= bounds[1]
    for step in (1e-6, -1e-6):
        alpha = base.pareto_index + step
        if bounds[0] <= alpha <= bounds[1]:
            assert tail_error(alpha) >= tail_error(base.pareto_index)

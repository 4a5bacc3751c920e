"""Property tests of the loss on small two-class samples and random search points.

The stacked evaluator scores each context's rows exactly as that context
alone does, a context trimmed to p <= p_max scores exactly as the full
one there, and the batched loss agrees with the reference composition
of ``resolve_params``, ``rmsle`` and the two penalties.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from incomefit import (  # noqa: E402
    FitContext,
    SENTINEL_LOSS,
    SearchPoint,
    TwoClassParams,
    l1_penalty,
    l2_penalty,
    model_ccdf,
    resolve_params,
    rmsle,
    sample_incomes,
)
from incomefit.fitting import P_MAX  # noqa: E402
from incomefit.objective import stacked_objective  # noqa: E402


@st.composite
def contexts(draw):
    """A context on a two-class sample of 20-400 incomes, at k of 2 to n."""
    params = TwoClassParams(draw(st.floats(0.02, 0.3)), draw(st.floats(500.0, 3000.0)),
                            draw(st.floats(1.2, 3.0)))
    n = draw(st.integers(20, 400))
    sample = sample_incomes(params, n, seed=draw(st.integers(0, 2**32 - 1)))
    return FitContext(sample, draw(st.integers(2, n)))


@st.composite
def points(draw, context, p_range=(1e-6, 0.3), rows=(1, 24)):
    """(n, 3) search points around the box, a few of them invalid."""
    n = draw(st.integers(*rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([rng.uniform(*p_range, n), rng.uniform(0.9, 3.5, n),
                         context.mean * rng.uniform(0.3, 3.0, n)])
    return X


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stacked_equals_each_context_alone(data):
    group = data.draw(st.lists(contexts(), min_size=1, max_size=5))
    group = [c.trimmed(P_MAX) if data.draw(st.booleans()) else c for c in group]
    blocks = [data.draw(points(c, p_range=(-0.05, 1.1))) for c in group]
    stacked = stacked_objective(group, blocks)
    alone = np.concatenate([stacked_objective([c], [X]) for c, X in zip(group, blocks)])
    assert stacked.tobytes() == alone.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trimmed_tables_score_like_full_ones(data):
    context = data.draw(contexts())
    p_max = data.draw(st.sampled_from([P_MAX, 0.05, 0.5]))
    trimmed = context.trimmed(p_max)
    inside = data.draw(points(context, p_range=(1e-6, p_max), rows=(1, 200)))
    knots = context.ccdf.fractions[context.ccdf.fractions <= p_max]
    at_knots = np.column_stack([knots, np.full(knots.size, 1.7),
                                np.full(knots.size, context.mean)])
    for X in (inside, at_knots):
        assert (stacked_objective([trimmed], [X]).tobytes()
                == stacked_objective([context], [X]).tobytes())
    for x in inside[:5]:
        assert trimmed.loss_at(*x) == context.loss_at(*x)
    above = data.draw(points(context, p_range=(np.nextafter(p_max, 1.0), 1.0)))
    assert np.all(stacked_objective([trimmed], [above]) == SENTINEL_LOSS)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_agrees_with_reference_composition(data):
    context = data.draw(contexts())
    X = data.draw(points(context))
    batch = stacked_objective([context], [X])
    for x, value in zip(X, batch):
        if value == SENTINEL_LOSS:
            continue
        point = SearchPoint(*x)
        params, m_c = resolve_params(point, context.ccdf)
        emp = context.ccdf.evaluate(context.fit_points)
        oracle = (rmsle(emp, model_ccdf(params, context.fit_points))
                  + l1_penalty(point.temperature, m_c, context.sample)
                  + l2_penalty(params.lam, point.p))
        assert value == pytest.approx(oracle, rel=1e-9, abs=1e-12)

"""Property tests of the loss on small two-class samples and random search points.

The stacked evaluator scores each context's rows exactly as that context
alone does and as ``loss_at`` does row by row, every context scores
p > P_MAX as the sentinel, and inside the search box the batched loss
agrees with the reference composition of ``resolve_params``, ``rmsle``
and the two penalties on the sample's own CCDF. On the ridge that seeds
each swarm, alpha is the clipped tail slope, which no other alpha beats.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from incomefit import (  # noqa: E402
    FitContext,
    FitSettings,
    SENTINEL_LOSS,
    SearchPoint,
    TwoClassParams,
    build_ccdf,
    model_ccdf,
    sample_incomes,
)
from incomefit.fitting import P_MAX  # noqa: E402
from incomefit.objective import stacked_objective  # noqa: E402
from oracle import l1_penalty, l2_penalty, resolve_params, rmsle  # noqa: E402


@st.composite
def cases(draw):
    """A two-class sample of 20-400 incomes and a class count k of 2 to n."""
    params = TwoClassParams(draw(st.floats(0.02, 0.3)), draw(st.floats(500.0, 3000.0)),
                            draw(st.floats(1.2, 3.0)))
    n = draw(st.integers(20, 400))
    sample = sample_incomes(params, n, seed=draw(st.integers(0, 2**32 - 1)))
    return sample, draw(st.integers(2, n))


def contexts():
    return cases().map(lambda case: FitContext(*case))


@st.composite
def points(draw, context, p_range=(1e-6, 0.3), rows=(1, 24)):
    """(n, 3) search points around the box, a few of them invalid."""
    n = draw(st.integers(*rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([rng.uniform(*p_range, n), rng.uniform(0.9, 3.5, n),
                         context.mean * rng.uniform(0.3, 3.0, n)])
    return X


def reference_total(sample, k, x) -> float:
    """The loss at ``x`` composed from the reference functions on ``build_ccdf(sample, k)``."""
    point = SearchPoint(*x)
    ccdf = build_ccdf(sample, k)
    fit_points = ccdf.class_points[:-1]
    params, m_c = resolve_params(point, ccdf)
    return (rmsle(ccdf.evaluate(fit_points), model_ccdf(params, fit_points))
            + l1_penalty(point.temperature, m_c, sample)
            + l2_penalty(params.lam, point.p))


def assert_matches_reference(sample, k, X) -> np.ndarray:
    """Every non-sentinel row of ``X`` scores its reference total to 1e-9; the scores."""
    batch = stacked_objective([FitContext(sample, k)], [X])
    for x, value in zip(X, batch):
        if value != SENTINEL_LOSS:
            assert value == pytest.approx(reference_total(sample, k, x), rel=1e-9, abs=1e-12)
    return batch


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stacked_equals_each_context_alone(data):
    group = data.draw(st.lists(contexts(), min_size=1, max_size=5))
    blocks = [data.draw(points(c, p_range=(-0.05, 1.1))) for c in group]
    stacked = stacked_objective(group, blocks)
    alone = np.concatenate([stacked_objective([c], [X]) for c, X in zip(group, blocks)])
    assert stacked.tobytes() == alone.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_loss_at_total_is_the_stacked_value(data):
    context = data.draw(contexts())
    X = data.draw(points(context, p_range=(-0.05, 1.1)))
    totals = np.array([context.loss_at(*x).total for x in X])
    assert totals.tobytes() == stacked_objective([context], [X]).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_points_above_p_max_score_the_sentinel(data):
    context = data.draw(contexts())
    X = data.draw(points(context, p_range=(np.nextafter(P_MAX, 1.0), 1.1)))
    X[0, 0] = np.nextafter(P_MAX, 1.0)
    assert np.all(stacked_objective([context], [X]) == SENTINEL_LOSS)
    for x in X[:5]:
        breakdown = context.loss_at(*x)
        assert breakdown.degenerate and breakdown.total == SENTINEL_LOSS


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_knots_and_box_edge_agree_with_reference_composition(data):
    sample, k = data.draw(cases())
    fractions = build_ccdf(sample, k).fractions
    p = np.append(fractions[fractions <= P_MAX], P_MAX)
    alpha = data.draw(st.floats(1.2, 3.0))
    temperature = sample.mean * data.draw(st.floats(0.5, 2.0))
    X = np.column_stack([p, np.full(p.size, alpha), np.full(p.size, temperature)])
    assert assert_matches_reference(sample, k, X)[-1] != SENTINEL_LOSS


@settings(max_examples=100, deadline=None)
@given(cases())
def test_min_fraction_is_the_ccdf_one(case):
    assert FitContext(*case).min_fraction == build_ccdf(*case).min_fraction


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_agrees_with_reference_composition(data):
    sample, k = data.draw(cases())
    X = data.draw(points(FitContext(sample, k), p_range=(np.nextafter(0.0, 1.0), P_MAX)))
    assert_matches_reference(sample, k, X)


def ridge_case(data, max_size):
    """A context, its default search box and the ridge points at drawn fractions."""
    context = data.draw(contexts())
    box = FitSettings().search_box(context.mean)
    p = np.array(data.draw(st.lists(st.floats(1e-4, P_MAX), min_size=1, max_size=max_size)))
    return context, box, context.ridge(p, box)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ridge_alpha_is_the_clipped_tail_slope(data):
    context, box, rows = ridge_case(data, 24)
    for p, alpha, temperature in rows:
        m_c = context.loss_at(p, alpha, temperature).crossover
        if m_c is None:         # degenerate: no income below m_c, or no tail slope
            continue
        assert temperature == np.clip(m_c / -np.log(p), *box[2])
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = context.tail_slope(m_c, -(m_c / temperature))
        assert alpha == np.clip(slope, *box[1])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_no_alpha_on_a_dense_grid_beats_the_ridge_alpha(data):
    context, box, rows = ridge_case(data, 6)
    grid = np.linspace(*box[1], 2001)
    for x, value in zip(rows, stacked_objective([context], [rows])):
        if value == SENTINEL_LOSS or x[1] in box[1]:     # degenerate, or alpha clipped
            continue
        X = np.tile(x, (grid.size, 1))
        X[:, 1] = grid
        assert stacked_objective([context], [X]).min() >= value * (1.0 - 1e-9)

"""Property tests of the bounded quasi-Newton polish on random quadratics.

Each quadratic is positive definite in box-scaled coordinates
``u = (x - lo) / (hi - lo)`` over a box whose widths span five orders of
magnitude. Its eigenvalues lie in [1e4, 1e6]. Near a zero minimum the
polish stops once a step gains less than about 2e-9, so the scaled
distance it leaves is bounded only through the curvature: a few times
sqrt(2e-9 / 1e4), under 1e-5.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from incomefit import drive, refine  # noqa: E402
from incomefit.swarm import PROJECTED_GRADIENT  # noqa: E402


@st.composite
def boxes(draw, d):
    lo = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=d, max_size=d)))
    log_width = draw(st.lists(st.floats(-3.0, 2.0), min_size=d, max_size=d))
    return np.c_[lo, lo + 10.0 ** np.array(log_width)]


@st.composite
def problems(draw, centre, diagonal=False):
    """(bounds, scaled curvature matrix, scaled centre, start point)."""
    d = draw(st.integers(1, 4))
    bounds = draw(boxes(d))
    eigenvalues = np.array(draw(st.lists(st.floats(1e4, 1e6), min_size=d, max_size=d)))
    if diagonal:
        rotation = np.eye(d)
    else:
        entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d))
        rotation, _ = np.linalg.qr(np.reshape(entries, (d, d)) + 3.0 * np.eye(d))
    curvature = rotation @ np.diag(eigenvalues) @ rotation.T
    c = np.array(draw(st.lists(centre, min_size=d, max_size=d)))
    u0 = np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=d, max_size=d)))
    width = bounds[:, 1] - bounds[:, 0]
    return bounds, curvature, c, bounds[:, 0] + u0 * width


def quadratic(bounds, curvature, c, seen=None):
    lo, width = bounds[:, 0], bounds[:, 1] - bounds[:, 0]

    def objective(x):
        x = np.asarray(x, dtype=float)
        if seen is not None:
            seen.append(x.copy())
        e = (x - lo) / width - c
        return np.einsum("ni,ij,nj->n", e, curvature, e)

    return objective


def run(stage, objective):
    """The result of one stage, its rows scored by ``objective``."""
    return drive([stage], lambda live, blocks: objective(blocks[0]))[0]


def scaled(bounds, x):
    return (x - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])


@settings(max_examples=150, deadline=None)
@given(problems(st.floats(-1.0, 2.0)), st.integers(0, 20))
def test_rows_inside_box_and_never_worse(problem, max_steps):
    bounds, curvature, c, start = problem
    seen = []
    objective = quadratic(bounds, curvature, c, seen)
    x, f_end = run(refine(start, bounds, max_steps), objective)
    rows = np.concatenate(seen)
    assert np.all(rows >= bounds[:, 0]) and np.all(rows <= bounds[:, 1])
    f_start = objective(np.clip(start, bounds[:, 0], bounds[:, 1])[None, :])[0]
    assert f_end <= f_start


@settings(max_examples=150, deadline=None)
@given(problems(st.floats(0.1, 0.9)))
def test_interior_minimum_reached(problem):
    bounds, curvature, c, start = problem
    x, _ = run(refine(start, bounds, max_steps=50), quadratic(bounds, curvature, c))
    assert np.max(np.abs(scaled(bounds, x) - c)) <= 1e-5


@settings(max_examples=150, deadline=None)
@given(problems(st.one_of(st.floats(-1.0, -0.05), st.floats(0.1, 0.9),
                          st.floats(1.05, 2.0)), diagonal=True))
def test_outside_minimum_clipped_onto_box(problem):
    # a coordinate whose minimum lies past a face ends on that face, up to the
    # projected-gradient stop; the loss the others leave is small beside the
    # loss the held ones keep, as the relative-decrease stop implies
    bounds, curvature, c, start = problem
    x, _ = run(refine(start, bounds, max_steps=50), quadratic(bounds, curvature, c))
    u, target = scaled(bounds, x), np.clip(c, 0.0, 1.0)
    held = target != c
    assert np.all(np.abs(u - target)[held] <= PROJECTED_GRADIENT)
    weights = np.diag(curvature)
    held_loss = np.sum((weights * (target - c) ** 2)[held])
    free_loss = np.sum((weights * (u - c) ** 2)[~held])
    assert free_loss <= 1e-6 * max(held_loss, 1.0)

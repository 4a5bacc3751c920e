"""Particle swarm optimizer with bounded quasi-Newton refinement.

Each step, every candidate draws K informants afresh, with replacement,
and velocities blend inertia with pulls toward its personal best and the
best personal best among itself and its informants. Positions leaving
the search box are clamped to the face with that velocity component
zeroed. Inertia falls linearly between its endpoints over the iteration
budget.

The hybrid layer periodically polishes the incumbent best with bounded
BFGS steps in box-scaled coordinates, driven by central finite-difference
gradients; refinement never returns a worse point than its input. A
polish that would start where the search's previous polish started is
skipped, since it would return the same point.

An objective maps an (n, d) array of points to n values, so a whole
population, or one refinement point with all probes of its gradient,
costs one call.

Each stage is a generator that yields the (n, d) rows it wants scored
and is sent their values, ``values = yield rows``; it returns its
result. ``drive`` runs many searches at once and scores the rows all of
them wait on with one call per round, so searches on different
objectives share the fixed cost of a call, and each search sees the
same values as it would alone. ``search`` is the full hybrid schedule,
whose knobs are the fields of ``fitting.FitSettings``; ``initialize``,
``step`` and ``refine`` are its stages, each given only what it reads,
and a single stage or search on one objective runs as
``drive([stage], lambda live, blocks: objective(blocks[0]))[0]``.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np


K_INFORMANTS = 3                        # informants each candidate draws every step
C1 = C2 = 1.7                           # pulls toward personal and informant bests
W_START, W_END = 0.7, 0.4               # inertia at the first and last iteration

C_ARMIJO = 1e-4                         # sufficient-decrease fraction of the slope
MAX_TRIALS = 20                         # backtracking trials per step
RELATIVE_DECREASE = 2.2e-9              # stop below this decrease over max(|f|, 1)
PROJECTED_GRADIENT = 1e-5               # stop below this box-scaled projected gradient


@dataclass(eq=False)
class SwarmState:
    positions: np.ndarray               # (n, d)
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_values: np.ndarray
    best_x: np.ndarray                  # best candidate visit so far
    best_value: float
    t: int
    rng: np.random.Generator
    informant_redraws: int = 0          # informant draws, one per step, so equal to t


@dataclass(eq=False)
class OptimizeResult:
    x: np.ndarray
    value: float
    trace: list[float]                  # best value after init, each iter, final refine
    trace_points: list[np.ndarray]


def drive(searches: list, evaluate) -> list:
    """Run search generators to their ends and return their results in order.

    Each round scores the rows every unfinished search waits on with one
    ``evaluate(live, blocks)`` call, given the indices of those searches
    and their row arrays; it returns the values of all rows, concatenated
    in that order. Searches need not be in step: one in its polish shares
    a round with one in its swarm, and a finished search leaves the rounds.
    The searches run with numpy's floating-point warnings off, because a
    non-finite probe scores 1e300 and its gradient may overflow the step
    arithmetic; ``evaluate`` runs outside.
    """
    results = [None] * len(searches)
    pending = {}

    def advance(i, values):
        try:
            pending[i] = searches[i].send(values)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(len(searches)):
            advance(i, None)
    while pending:
        live = list(pending)
        blocks = [pending[i] for i in live]
        values = np.asarray(evaluate(live, blocks), dtype=float)
        end = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, block in zip(live, blocks):
                start, end = end, end + len(block)
                advance(i, values[start:end])
    return results


def initialize(bounds: np.ndarray, n: int, seed: int | np.random.SeedSequence,
               start: np.ndarray | None = None) -> Generator[np.ndarray, np.ndarray, SwarmState]:
    """Seeded uniform start of n candidates in the (d, 2) box, with half-difference velocities.

    A ``start`` point in the box replaces candidate 0 after every random
    draw, so the generator draws the same numbers with or without it.
    """
    rng = np.random.default_rng(seed)
    lo, hi = bounds[:, 0], bounds[:, 1]
    d = bounds.shape[0]
    positions = lo + (hi - lo) * rng.random((n, d))
    second = lo + (hi - lo) * rng.random((n, d))
    if start is not None:
        positions[0] = start
    velocities = (second - positions) / 2.0
    values = yield positions
    best_idx = int(np.argmin(values))
    return SwarmState(
        positions=positions,
        velocities=velocities,
        pbest_positions=positions.copy(),
        pbest_values=values,
        best_x=positions[best_idx].copy(),
        best_value=float(values[best_idx]),
        t=0,
        rng=rng,
    )


def step(state: SwarmState, bounds: np.ndarray,
         max_iters: int) -> Generator[np.ndarray, np.ndarray, SwarmState]:
    """One swarm iteration; updates the state in place and returns it."""
    lo, hi = bounds[:, 0], bounds[:, 1]
    n, d = state.positions.shape
    frac = min(state.t, max_iters - 1) / max(max_iters - 1, 1)
    w = W_START + (W_END - W_START) * frac

    # each candidate reads itself, then K candidates drawn with replacement;
    # the first of equal bests wins, so a tie keeps its own
    informants = np.column_stack((np.arange(n), state.rng.integers(0, n, (n, K_INFORMANTS))))
    first_best = np.argmin(state.pbest_values[informants], axis=1)
    nbest = state.pbest_positions[informants[np.arange(n), first_best]]
    lam1 = state.rng.random((n, d))
    lam2 = state.rng.random((n, d))
    state.velocities = (w * state.velocities
                        + C1 * lam1 * (state.pbest_positions - state.positions)
                        + C2 * lam2 * (nbest - state.positions))
    state.positions = state.positions + state.velocities
    out = (state.positions < lo) | (state.positions > hi)
    state.positions = np.clip(state.positions, lo, hi)
    state.velocities[out] = 0.0

    values = yield state.positions
    better = values < state.pbest_values
    state.pbest_positions[better] = state.positions[better]
    state.pbest_values[better] = values[better]

    best_idx = int(np.argmin(state.pbest_values))
    if state.pbest_values[best_idx] < state.best_value:
        state.best_value = float(state.pbest_values[best_idx])
        state.best_x = state.pbest_positions[best_idx].copy()
    state.informant_redraws += 1
    state.t += 1
    return state


def refine(point, bounds,
           max_steps: int) -> Generator[np.ndarray, np.ndarray, tuple[np.ndarray, float]]:
    """Bounded quasi-Newton polish from ``point``; never returns a worse point.

    Gradients are central finite differences with relative step 1e-6 per
    coordinate, falling back to one-sided differences at the box faces;
    each visited point is scored in one call together with its 2d probes.
    A non-finite objective at the start point returns it unchanged.

    The search runs BFGS in box-scaled coordinates ``u = (x - lo) / (hi - lo)``:
    coordinates on a face whose gradient points out of the box are held,
    the step ``-H g`` on the others is projected onto the box and
    backtracked to the Armijo condition. It stops after ``max_steps``
    accepted steps, on a relative decrease of at most ``RELATIVE_DECREASE``,
    on a projected gradient of at most ``PROJECTED_GRADIENT``, or when no
    trial step is accepted.
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    width = hi - lo
    d = len(bounds)
    x = np.clip(np.asarray(point, dtype=float), lo, hi)
    f0 = float((yield x[None, :])[0])
    if not math.isfinite(f0):
        return np.asarray(point, dtype=float).copy(), f0
    best_x, best_f = x.copy(), f0
    probed = np.arange(d)

    def value_and_gradient(x):
        """Value and box-scaled gradient at ``x``, non-finite values as 1e300.

        Keeps the best finite row seen.
        """
        nonlocal best_x, best_f
        h = 1e-6 * np.maximum(np.abs(x), 1e-3 * width)
        up, down = np.minimum(x + h, hi), np.maximum(x - h, lo)
        rows = np.tile(x, (2 * d + 1, 1))          # rows x, x+h0, x-h0, x+h1, ...
        rows[2 * probed + 1, probed] = up
        rows[2 * probed + 2, probed] = down
        values = yield rows
        finite = np.isfinite(values)
        i = int(np.argmin(np.where(finite, values, np.inf)))   # first of equal minima
        if finite[i] and values[i] < best_f:
            best_f, best_x = float(values[i]), rows[i].copy()
        values = np.where(finite, values, 1e300)
        gap = up - down                             # 0 where a probe pair collapses
        slopes = np.divide(values[1::2] - values[2::2], gap, out=np.zeros(d), where=gap != 0.0)
        return float(values[0]), slopes * width

    f, g = yield from value_and_gradient(x)
    H = np.eye(d)
    updated = False
    for _ in range(int(max_steps)):
        u = (x - lo) / width
        if np.all(np.abs(np.clip(u - g, 0.0, 1.0) - u) <= PROJECTED_GRADIENT):
            break
        free = ~(((u <= 0.0) & (g > 0.0)) | ((u >= 1.0) & (g < 0.0)))
        direction = np.zeros(d)
        direction[free] = -H[np.ix_(free, free)] @ g[free]
        t = 1.0 if updated else float(min(1.0, 1.0 / np.linalg.norm(direction)))
        if not np.all(np.isfinite(direction)):
            break
        for _ in range(MAX_TRIALS):
            x_new = np.clip(x + t * direction * width, lo, hi)
            s = (x_new - x) / width
            slope = float(g @ s)
            f_new, g_new = yield from value_and_gradient(x_new)
            if f_new <= f + C_ARMIJO * slope:
                break
            curvature = f_new - f - slope
            shrink = -slope / (2.0 * curvature) if curvature > 0.0 else 0.5
            t *= min(max(shrink, 0.1), 0.5)
        else:
            break
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if not updated:
                H = np.eye(d) * (sy / float(y @ y))
                updated = True
            rho = 1.0 / sy
            Hy = H @ y
            c = rho * rho * float(y @ Hy) + rho
            H += c * np.outer(s, s) - rho * (np.outer(Hy, s) + np.outer(s, Hy))
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= RELATIVE_DECREASE:
            break
    return best_x, best_f


def search(bounds: np.ndarray, settings, seed: int | np.random.SeedSequence,
           start: np.ndarray | None = None) -> Generator[np.ndarray, np.ndarray, OptimizeResult]:
    """Run the hybrid schedule of a ``FitSettings`` over a (d, 2) box to its best point.

    ``start``, when given, is one of the initial swarm's candidates.
    """
    state = yield from initialize(bounds, settings.n_candidates, seed, start)
    best_x, best_value = state.best_x.copy(), state.best_value
    trace = [best_value]
    trace_points = [best_x.copy()]
    # best_x is rebound only when it improves, so while it is the array the last
    # polish started from, that polish found nothing better; the polish draws no
    # random numbers, so a rerun would return the same point and is skipped
    polished = None
    # the last turn takes no swarm step, and its polish is the final one
    for t in range(1, settings.max_iters + 2):
        final = t > settings.max_iters
        if not final:
            yield from step(state, bounds, settings.max_iters)
        if state.best_value < best_value:
            best_value = state.best_value
            best_x = state.best_x.copy()
        scheduled = final or (settings.refine_every and t % settings.refine_every == 0)
        if scheduled and best_x is not polished:
            polished = best_x
            rx, rv = yield from refine(best_x, bounds, settings.refine_max_steps)
            if rv < best_value:
                best_value, best_x = rv, rx.copy()
        trace.append(best_value)
        trace_points.append(best_x.copy())
    return OptimizeResult(best_x, best_value, trace, trace_points)

"""Particle swarm optimizer with bounded quasi-Newton refinement.

Standard 2007-style swarm: every candidate informs itself plus K
randomly chosen candidates, velocities blend inertia with pulls toward
the personal best and the best informant, and all informant sets are
redrawn whenever an iteration fails to improve the best solution found
so far. Positions leaving the search box are clamped to the face with
that velocity component zeroed. Inertia falls linearly between its
endpoints over the iteration budget.

The hybrid layer periodically polishes the incumbent best with L-BFGS-B
steps driven by central finite-difference gradients; refinement never
returns a worse point than its input.

An objective maps an (n, d) array of points to n values, so a whole
population, or one refinement point with all probes of its gradient,
costs one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize


K_INFORMANTS = 3                        # random informant sets each candidate joins
C1 = C2 = 1.7                           # pulls toward personal and informant bests
W_START, W_END = 0.7, 0.4               # inertia at the first and last iteration


@dataclass(eq=False)
class SwarmConfig:
    bounds: np.ndarray                  # (d, 2) [lo, hi] per dimension
    n_candidates: int = 40
    max_iters: int = 200
    seed: int = 0
    refine_every: int = 10              # 0 disables periodic refinement
    refine_max_steps: int = 100

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=float)
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ValueError("bounds must be a (d, 2) array")
        if np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise ValueError("each bound must satisfy lo < hi")
        if self.n_candidates < 2:
            raise ValueError("need at least 2 candidates")
        if self.max_iters < 1:
            raise ValueError("need at least 1 iteration")


@dataclass(eq=False)
class SwarmState:
    positions: np.ndarray               # (n, d)
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_values: np.ndarray
    informants: np.ndarray              # (n, n) bool, [j, i]: j informs i
    best_x: np.ndarray                  # best candidate visit so far
    best_value: float
    t: int
    rng: np.random.Generator
    informant_redraws: int = 0


def _draw_informants(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Membership matrix: each candidate joins k random sets plus its own."""
    informs = np.zeros((n, n), dtype=bool)
    targets = rng.integers(0, n, size=(n, k))
    rows = np.repeat(np.arange(n), k)
    informs[rows, targets.ravel()] = True
    np.fill_diagonal(informs, True)
    return informs


def _neighborhood_best(informants: np.ndarray, pbest_positions: np.ndarray,
                       pbest_values: np.ndarray) -> np.ndarray:
    """Best personal best among each candidate's informants."""
    masked = np.where(informants, pbest_values[:, None], np.inf)
    idx = np.argmin(masked, axis=0)
    return pbest_positions[idx]


def initialize(config: SwarmConfig, objective) -> SwarmState:
    """Seeded uniform start inside the box, with half-difference velocities."""
    rng = np.random.default_rng(config.seed)
    lo, hi = config.bounds[:, 0], config.bounds[:, 1]
    n, d = config.n_candidates, config.bounds.shape[0]
    positions = lo + (hi - lo) * rng.random((n, d))
    second = lo + (hi - lo) * rng.random((n, d))
    velocities = (second - positions) / 2.0
    informants = _draw_informants(rng, n, K_INFORMANTS)
    values = np.asarray(objective(positions), dtype=float)
    best_idx = int(np.argmin(values))
    return SwarmState(
        positions=positions,
        velocities=velocities,
        pbest_positions=positions.copy(),
        pbest_values=values,
        informants=informants,
        best_x=positions[best_idx].copy(),
        best_value=float(values[best_idx]),
        t=0,
        rng=rng,
    )


def step(state: SwarmState, config: SwarmConfig, objective) -> SwarmState:
    """One swarm iteration; updates the state in place and returns it."""
    lo, hi = config.bounds[:, 0], config.bounds[:, 1]
    n, d = state.positions.shape
    if config.max_iters > 1:
        frac = min(state.t, config.max_iters - 1) / (config.max_iters - 1)
    else:
        frac = 0.0
    w = W_START + (W_END - W_START) * frac

    nbest = _neighborhood_best(state.informants, state.pbest_positions,
                               state.pbest_values)
    lam1 = state.rng.random((n, d))
    lam2 = state.rng.random((n, d))
    state.velocities = (w * state.velocities
                        + C1 * lam1 * (state.pbest_positions - state.positions)
                        + C2 * lam2 * (nbest - state.positions))
    state.positions = state.positions + state.velocities
    out = (state.positions < lo) | (state.positions > hi)
    state.positions = np.clip(state.positions, lo, hi)
    state.velocities[out] = 0.0

    values = np.asarray(objective(state.positions), dtype=float)
    better = values < state.pbest_values
    state.pbest_positions[better] = state.positions[better]
    state.pbest_values[better] = values[better]

    best_idx = int(np.argmin(state.pbest_values))
    if state.pbest_values[best_idx] < state.best_value:
        state.best_value = float(state.pbest_values[best_idx])
        state.best_x = state.pbest_positions[best_idx].copy()
    else:
        state.informants = _draw_informants(state.rng, n, K_INFORMANTS)
        state.informant_redraws += 1
    state.t += 1
    return state


def refine(point, objective, bounds, max_steps: int) -> tuple[np.ndarray, float]:
    """Bounded quasi-Newton polish from ``point``; never returns a worse point.

    Gradients are central finite differences with relative step 1e-6 per
    coordinate, falling back to one-sided differences at the box faces;
    each L-BFGS-B point is scored in one call together with its 2d
    probes. A non-finite objective at the start point returns it
    unchanged.
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    x0 = np.clip(np.asarray(point, dtype=float), lo, hi)
    f0 = float(objective(x0[None, :])[0])
    if not np.isfinite(f0):
        return np.asarray(point, dtype=float).copy(), f0
    best_x, best_f = x0.copy(), f0
    d = x0.size
    idx = np.arange(d)

    def value_and_gradient(x):
        """Value and gradient at ``x``, non-finite values as 1e300; keeps the best finite row."""
        nonlocal best_x, best_f
        h = 1e-6 * np.maximum(np.abs(x), 1e-3 * (hi - lo))
        up, down = np.minimum(x + h, hi), np.maximum(x - h, lo)
        rows = np.repeat(x[None, :], 2 * d + 1, axis=0)  # rows x, x+h0, x-h0, x+h1, ...
        rows[2 * idx + 1, idx] = up
        rows[2 * idx + 2, idx] = down
        values = np.asarray(objective(rows), dtype=float)
        finite = np.isfinite(values)
        i = int(np.argmin(np.where(finite, values, np.inf)))  # first of equal minima
        if finite[i] and values[i] < best_f:
            best_f, best_x = float(values[i]), rows[i].copy()
        values = np.where(finite, values, 1e300)
        gradient = np.divide(values[1::2] - values[2::2], up - down, out=np.zeros(d),
                             where=up != down)
        return float(values[0]), gradient

    try:
        minimize(value_and_gradient, x0, jac=True, method="L-BFGS-B",
                 bounds=list(zip(lo, hi)), options={"maxiter": int(max_steps)})
    except (ValueError, FloatingPointError):
        pass
    return best_x, best_f


@dataclass(eq=False)
class OptimizeResult:
    x: np.ndarray
    value: float
    trace: list[float]                  # best value after init, each iter, final refine
    trace_points: list[np.ndarray]


def optimize(config: SwarmConfig, objective) -> OptimizeResult:
    """Run the full hybrid schedule and return the best point ever seen."""
    state = initialize(config, objective)
    best_x, best_value = state.best_x.copy(), state.best_value
    trace = [best_value]
    trace_points = [best_x.copy()]
    for t in range(1, config.max_iters + 1):
        step(state, config, objective)
        if state.best_value < best_value:
            best_value = state.best_value
            best_x = state.best_x.copy()
        if config.refine_every and t % config.refine_every == 0:
            rx, rv = refine(best_x, objective, config.bounds, config.refine_max_steps)
            if rv < best_value:
                best_value, best_x = rv, rx.copy()
        trace.append(best_value)
        trace_points.append(best_x.copy())
    rx, rv = refine(best_x, objective, config.bounds, config.refine_max_steps)
    if rv < best_value:
        best_value, best_x = rv, rx.copy()
    trace.append(best_value)
    trace_points.append(best_x.copy())
    return OptimizeResult(best_x, best_value, trace, trace_points)

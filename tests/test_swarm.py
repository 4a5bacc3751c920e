"""Swarm dynamics, informant topology, quasi-Newton refinement, hybrid run.

Objectives map an (n, d) array of points to n values.
"""

import numpy as np
import pytest

from incomefit import (
    FitContext,
    SwarmConfig,
    TwoClassParams,
    initialize,
    optimize,
    refine,
    sample_incomes,
    step,
)
from incomefit.swarm import _draw_informants

BOX = np.array([[0.0, 1.0], [-2.0, 2.0], [10.0, 30.0]])


def sphere_factory(target):
    target = np.asarray(target, dtype=float)

    def sphere(x):
        return np.sum((x - target) ** 2, axis=-1)

    return sphere


class TestInitialize:
    def test_inside_bounds_many_configs(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            d = rng.integers(1, 5)
            lo = rng.uniform(-10, 10, d)
            hi = lo + rng.uniform(0.1, 10, d)
            config = SwarmConfig(bounds=np.c_[lo, hi], n_candidates=8,
                                 max_iters=5, seed=int(trial))
            state = initialize(config, lambda x: np.sum(x ** 2, axis=-1))
            assert np.all(state.positions >= lo) and np.all(state.positions <= hi)

    def test_seed_determinism_bitwise(self):
        config = SwarmConfig(bounds=BOX, n_candidates=12, max_iters=10, seed=5)
        objective = sphere_factory([0.5, 0.0, 20.0])
        a = initialize(config, objective)
        b = initialize(config, objective)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.pbest_values, b.pbest_values)
        assert np.array_equal(a.informants, b.informants)

    def test_velocity_is_half_difference_of_uniform_draws(self):
        # reproduce the draw stream: positions then a second uniform block
        config = SwarmConfig(bounds=BOX, n_candidates=6, max_iters=5, seed=3)
        state = initialize(config, sphere_factory([0.5, 0.0, 20.0]))
        rng = np.random.default_rng(3)
        lo, hi = BOX[:, 0], BOX[:, 1]
        x = lo + (hi - lo) * rng.random((6, 3))
        u2 = lo + (hi - lo) * rng.random((6, 3))
        assert np.allclose(state.positions, x)
        assert np.allclose(state.velocities, (u2 - x) / 2.0)

    def test_personal_bests_start_at_positions(self):
        config = SwarmConfig(bounds=BOX, n_candidates=9, max_iters=5, seed=11)
        state = initialize(config, sphere_factory([0.2, 1.0, 15.0]))
        assert np.array_equal(state.pbest_positions, state.positions)

    def test_informant_set_size_matches_direct_simulation(self):
        # oracle: simulate the membership process independently
        n, k = 40, 3
        rng = np.random.default_rng(42)
        sizes_oracle = []
        for _ in range(3000):
            members = [{i} for i in range(n)]
            for j in range(n):
                for target in rng.integers(0, n, k):
                    members[target].add(j)
            sizes_oracle.extend(len(m) for m in members)
        rng2 = np.random.default_rng(7)
        sizes_impl = []
        for _ in range(3000):
            informs = _draw_informants(rng2, n, k)
            sizes_impl.extend(informs.sum(axis=0).tolist())
        assert np.mean(sizes_impl) == pytest.approx(np.mean(sizes_oracle), abs=0.05)
        # closed form: 1 + (n-1) * (1 - (1-1/n)^k)
        expected = 1 + (n - 1) * (1 - (1 - 1 / n) ** k)
        assert np.mean(sizes_impl) == pytest.approx(expected, abs=0.05)

    def test_self_always_informs(self):
        rng = np.random.default_rng(1)
        informs = _draw_informants(rng, 25, 3)
        assert np.all(np.diag(informs))


class TestStep:
    def test_stationary_fixed_point(self):
        # a candidate sitting at its own personal best, which is also its
        # neighborhood best, with zero velocity does not move
        config = SwarmConfig(bounds=BOX, n_candidates=4, max_iters=10, seed=2)
        objective = sphere_factory([0.5, 0.0, 20.0])
        state = initialize(config, objective)
        state.velocities[:] = 0.0
        state.positions[:] = state.pbest_positions
        # make candidate 0 the best everywhere so nbest == pbest == position
        state.pbest_values[:] = 1.0
        state.pbest_values[0] = 0.0
        state.informants[:] = False
        np.fill_diagonal(state.informants, True)
        state.informants[0, :] = True  # candidate 0 informs everyone
        before = state.positions[0].copy()
        step(state, config, objective)
        assert np.array_equal(state.positions[0], before)
        assert np.array_equal(state.velocities[0], 0.0 * before)

    def test_sphere_convergence_without_refinement(self):
        # pure swarm dynamics, no quasi-Newton polish anywhere
        target = np.array([0.61, -0.37, 17.3])
        config = SwarmConfig(bounds=BOX, n_candidates=40, max_iters=200, seed=4)
        objective = sphere_factory(target)
        state = initialize(config, objective)
        for _ in range(config.max_iters):
            step(state, config, objective)
        assert np.all(np.abs(state.best_x - target) < 1e-4)

    def test_boundary_optimum_clamps_with_zero_velocity(self):
        # optimum outside the box: the swarm should pile onto the face
        target = np.array([-1.0, 0.0, 20.0])  # below the lo=0 face of dim 0
        config = SwarmConfig(bounds=BOX, n_candidates=30, max_iters=80,
                             seed=8, refine_every=0)
        objective = sphere_factory(target)
        state = initialize(config, objective)
        for _ in range(config.max_iters):
            step(state, config, objective)
            assert np.all(state.positions >= BOX[:, 0])
            assert np.all(state.positions <= BOX[:, 1])
        assert state.best_x[0] == 0.0
        # any candidate currently pinned at the face has zero velocity there
        pinned = state.positions[:, 0] == 0.0
        assert np.all(state.velocities[pinned, 0] == 0.0)

    def test_personal_best_equals_min_over_visits(self):
        config = SwarmConfig(bounds=BOX, n_candidates=10, max_iters=40,
                             seed=13, refine_every=0)
        history = []

        def recording(x):
            values = np.sum((x - np.array([0.3, 0.5, 22.0])) ** 2, axis=-1)
            history.extend(values.tolist())
            return values

        state = initialize(config, recording)
        visits = [[v] for v in history[-config.n_candidates:]]
        for _ in range(config.max_iters):
            mark = len(history)
            step(state, config, recording)
            for i, v in enumerate(history[mark:mark + config.n_candidates]):
                visits[i].append(v)
        for i in range(config.n_candidates):
            assert state.pbest_values[i] == min(visits[i])

    def test_informants_redraw_iff_no_improvement(self):
        config = SwarmConfig(bounds=BOX, n_candidates=8, max_iters=60,
                             seed=17, refine_every=0)
        objective = sphere_factory([0.5, 0.0, 20.0])
        state = initialize(config, objective)
        redraws = 0
        for _ in range(config.max_iters):
            best_before = state.best_value
            count_before = state.informant_redraws
            step(state, config, objective)
            improved = state.best_value < best_before
            assert state.informant_redraws == count_before + (0 if improved else 1)
            redraws = state.informant_redraws
        assert redraws > 0  # late iterations stall and must trigger redraws


class TestRefine:
    def test_quadratic_bowl_converges(self):
        target = np.array([0.4, 0.8, 18.0])
        x, val = refine(np.array([0.9, -1.5, 27.0]), sphere_factory(target),
                        BOX, max_steps=50)
        assert val < 1e-8
        assert np.all(np.abs(x - target) < 1e-4)

    def test_start_at_minimum_unchanged(self):
        target = np.array([0.4, 0.8, 18.0])
        x, val = refine(target, sphere_factory(target), BOX, max_steps=50)
        assert val == 0.0
        assert np.allclose(x, target)

    def test_never_worse_than_input_on_fit_loss(self):
        sample = sample_incomes(TwoClassParams(0.1, 1500.0, 2.0), 20_000, seed=19)
        ctx = FitContext(sample, k=500)
        bounds = np.array([[1e-6, 0.2], [1.0, 3.0],
                           [ctx.mean / 2, 2 * ctx.mean]])
        rng = np.random.default_rng(23)
        for _ in range(100):
            start = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * rng.random(3)
            f_start = ctx.objective_batch(start[None, :])[0]
            _, f_end = refine(start, ctx.objective_batch, bounds, max_steps=15)
            assert f_end <= f_start

    def test_nonfinite_start_returns_input(self):
        def bad(x):
            return np.full(len(x), np.nan)

        start = np.array([0.5, 0.0, 20.0])
        x, val = refine(start, bad, BOX, max_steps=10)
        assert np.array_equal(x, start)


class TestOptimize:
    def test_trace_monotone_nonincreasing(self):
        config = SwarmConfig(bounds=BOX, n_candidates=15, max_iters=50, seed=29)
        result = optimize(config, sphere_factory([0.7, 1.1, 12.0]))
        assert np.all(np.diff(result.trace) <= 0)

    def test_same_seed_identical_different_seed_close(self):
        sample = sample_incomes(TwoClassParams(0.1, 1800.0, 1.8), 50_000, seed=31)
        ctx = FitContext(sample, k=1000)
        bounds = np.array([[1e-6, 0.2], [1.0, 3.0],
                           [ctx.mean / 2, 2 * ctx.mean]])

        def run(seed):
            config = SwarmConfig(bounds=bounds, n_candidates=25, max_iters=80,
                                 seed=seed)
            return optimize(config, ctx.objective_batch)

        a, b = run(1), run(1)
        assert np.array_equal(a.x, b.x)
        assert a.value == b.value
        assert a.trace == b.trace
        c = run(2)
        assert abs(a.value - c.value) < 1e-3

    def test_final_refinement_runs_even_with_periodic_disabled(self):
        target = np.array([0.61, -0.37, 17.3])
        config = SwarmConfig(bounds=BOX, n_candidates=10, max_iters=10,
                             seed=37, refine_every=0)
        result = optimize(config, sphere_factory(target))
        # ten swarm iterations alone cannot hit 1e-10; the final polish can
        assert result.value < 1e-10


class TestCallShape:
    """The population, and one refinement point with its gradient probes, cost one call each."""

    @staticmethod
    def recording_sphere(shapes):
        sphere = sphere_factory([0.4, 0.8, 18.0])

        def objective(x):
            shapes.append(np.shape(x))
            return sphere(x)

        return objective

    def test_initialize_and_step_one_population_call(self):
        config = SwarmConfig(bounds=BOX, n_candidates=7, max_iters=5, seed=3)
        shapes = []
        objective = self.recording_sphere(shapes)
        state = initialize(config, objective)
        assert shapes == [(7, 3)]
        for _ in range(config.max_iters):
            shapes.clear()
            step(state, config, objective)
            assert shapes == [(7, 3)]

    def test_refine_point_and_gradient_calls(self):
        shapes = []
        refine(np.array([0.9, -1.5, 27.0]), self.recording_sphere(shapes), BOX,
               max_steps=5)
        assert shapes[0] == (1, 3)
        assert set(shapes[1:]) == {(7, 3)}

    def test_refine_keeps_first_best_probe_in_probe_order(self):
        # every row of the first point-and-gradient call beats the start; its
        # first probe (x + h0, row 1) is the best, and ties later in the order lose
        start = np.array([0.5, 0.0, 20.0])
        calls = []

        def objective(x):
            calls.append(np.array(x))
            if len(x) == 1:
                return np.full(1, 10.0)
            values = np.full(len(x), 5.0)
            values[1] = 1.0
            values[4] = 1.0
            return values

        x, val = refine(start, objective, BOX, max_steps=1)
        first_call = next(c for c in calls if len(c) == 7)
        assert val == 1.0
        assert np.array_equal(x, first_call[1])
        assert x[0] > start[0] and np.array_equal(x[1:], start[1:])

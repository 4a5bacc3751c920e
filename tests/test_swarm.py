"""Swarm dynamics, informant draws, quasi-Newton refinement, hybrid run.

Objectives map an (n, d) array of points to n values. Each stage or
search is a generator, run to its end on one objective by ``run``.
"""

import copy

import numpy as np
import pytest

from incomefit import (
    FitContext,
    FitSettings,
    TwoClassParams,
    drive,
    initialize,
    refine,
    sample_incomes,
    search,
    step,
)
from incomefit import swarm
from incomefit.fitting import ridge_seed
from incomefit.objective import stacked_objective
from incomefit.swarm import C2, K_INFORMANTS, OptimizeResult

BOX = np.array([[0.0, 1.0], [-2.0, 2.0], [10.0, 30.0]])


def run(stage, objective):
    """The result of one stage or search, its rows scored by ``objective``."""
    return drive([stage], lambda live, blocks: objective(blocks[0]))[0]


def context_objective(ctx):
    return lambda X: stacked_objective([ctx], [X])


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
            state = run(initialize(np.c_[lo, hi], 8, int(trial)),
                        lambda x: np.sum(x ** 2, axis=-1))
            assert np.all(state.positions >= lo) and np.all(state.positions <= hi)

    def test_seed_determinism_bitwise(self):
        objective = sphere_factory([0.5, 0.0, 20.0])
        a = run(initialize(BOX, 12, 5), objective)
        b = run(initialize(BOX, 12, 5), objective)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.pbest_values, b.pbest_values)

    def test_velocity_is_half_difference_of_uniform_draws(self):
        # reproduce the draw stream: positions then a second uniform block
        state = run(initialize(BOX, 6, 3), sphere_factory([0.5, 0.0, 20.0]))
        rng = np.random.default_rng(3)
        lo, hi = BOX[:, 0], BOX[:, 1]
        x = lo + (hi - lo) * rng.random((6, 3))
        u2 = lo + (hi - lo) * rng.random((6, 3))
        assert np.allclose(state.positions, x)
        assert np.allclose(state.velocities, (u2 - x) / 2.0)

    def test_personal_bests_start_at_positions(self):
        state = run(initialize(BOX, 9, 11), sphere_factory([0.2, 1.0, 15.0]))
        assert np.array_equal(state.pbest_positions, state.positions)

    def test_social_target_is_first_best_of_self_and_drawn_informants(self):
        # replay the step's draws from a copy of its generator; from rest at its own
        # personal best, in a box too wide to clamp, a candidate's velocity is
        # C2 * lam2 * (social target - position), with exact zeros elsewhere
        n, d = 40, BOX.shape[0]
        wide = BOX + np.array([-100.0, 100.0])
        objective = sphere_factory([0.5, 0.0, 20.0])
        ties = 0
        for seed in range(20):
            state = run(initialize(BOX, n, seed), objective)
            state.velocities[:] = 0.0
            # few distinct values, so that many candidates meet equal bests
            state.pbest_values = np.random.default_rng(seed).integers(0, 3, n).astype(float)
            replay = copy.deepcopy(state.rng)
            drawn = replay.integers(0, n, (n, K_INFORMANTS))
            replay.random((n, d))
            lam2 = replay.random((n, d))
            positions = state.positions.copy()
            values = state.pbest_values.copy()
            run(step(state, wide, 10), objective)
            for i in range(n):
                read = [i, *drawn[i].tolist()]
                target = min(read, key=lambda j: values[j])     # min keeps the first
                ties += len({j for j in read if values[j] == values[target]}) > 1
                expected = C2 * lam2[i] * (positions[target] - positions[i])
                assert np.array_equal(state.velocities[i], expected)
        assert ties > 100


class TestStep:
    def test_stationary_fixed_point(self):
        # a candidate sitting at its own personal best, which is also its
        # neighborhood best, with zero velocity does not move
        objective = sphere_factory([0.5, 0.0, 20.0])
        state = run(initialize(BOX, 4, 2), objective)
        state.velocities[:] = 0.0
        state.positions[:] = state.pbest_positions
        # make candidate 0 the best everywhere so nbest == pbest == position
        state.pbest_values[:] = 1.0
        state.pbest_values[0] = 0.0
        before = state.positions[0].copy()
        run(step(state, BOX, 10), objective)
        assert np.array_equal(state.positions[0], before)
        assert np.array_equal(state.velocities[0], 0.0 * before)

    def test_sphere_convergence_without_refinement(self):
        # pure swarm dynamics, no quasi-Newton polish anywhere
        target = np.array([0.61, -0.37, 17.3])
        max_iters = 200
        objective = sphere_factory(target)
        state = run(initialize(BOX, 40, 4), objective)
        for _ in range(max_iters):
            run(step(state, BOX, max_iters), objective)
        assert np.all(np.abs(state.best_x - target) < 1e-4)

    def test_boundary_optimum_clamps_with_zero_velocity(self):
        # optimum outside the box: the swarm should pile onto the face
        target = np.array([-1.0, 0.0, 20.0])  # below the lo=0 face of dim 0
        max_iters = 80
        objective = sphere_factory(target)
        state = run(initialize(BOX, 30, 8), objective)
        for _ in range(max_iters):
            run(step(state, BOX, max_iters), objective)
            assert np.all(state.positions >= BOX[:, 0])
            assert np.all(state.positions <= BOX[:, 1])
        assert state.best_x[0] == 0.0
        # any candidate currently pinned at the face has zero velocity there
        pinned = state.positions[:, 0] == 0.0
        assert np.all(state.velocities[pinned, 0] == 0.0)

    def test_personal_best_equals_min_over_visits(self):
        n, max_iters = 10, 40
        history = []

        def recording(x):
            values = np.sum((x - np.array([0.3, 0.5, 22.0])) ** 2, axis=-1)
            history.extend(values.tolist())
            return values

        state = run(initialize(BOX, n, 13), recording)
        visits = [[v] for v in history[-n:]]
        for _ in range(max_iters):
            mark = len(history)
            run(step(state, BOX, max_iters), recording)
            for i, v in enumerate(history[mark:mark + n]):
                visits[i].append(v)
        for i in range(n):
            assert state.pbest_values[i] == min(visits[i])

    def test_one_informant_draw_per_step(self):
        max_iters = 60
        objective = sphere_factory([0.5, 0.0, 20.0])
        state = run(initialize(BOX, 8, 17), objective)
        assert state.informant_redraws == 0
        for t in range(1, max_iters + 1):
            run(step(state, BOX, max_iters), objective)
            assert state.informant_redraws == state.t == t


class TestRefine:
    def test_quadratic_bowl_converges(self):
        target = np.array([0.4, 0.8, 18.0])
        x, val = run(refine(np.array([0.9, -1.5, 27.0]), BOX, max_steps=50),
                     sphere_factory(target))
        assert val < 1e-8
        assert np.all(np.abs(x - target) < 1e-4)

    def test_start_at_minimum_unchanged(self):
        target = np.array([0.4, 0.8, 18.0])
        x, val = run(refine(target, BOX, max_steps=50), sphere_factory(target))
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
            f_start = stacked_objective([ctx], [start[None, :]])[0]
            _, f_end = run(refine(start, bounds, max_steps=15), context_objective(ctx))
            assert f_end <= f_start

    def test_collapsed_probe_pair_outside_drive(self):
        # the first coordinate's box is too narrow for a nonzero probe step, so
        # its probe pair collapses to one point and its slope is zero; the polish
        # runs without drive's floating-point errstate, and warns of nothing
        polish = refine(np.array([0.0, 0.9]), np.array([[0.0, 1e-320], [0.0, 1.0]]),
                        max_steps=10)
        objective = sphere_factory([0.0, 0.3])
        values = None
        with pytest.raises(StopIteration) as stop:
            while True:
                values = objective(polish.send(values))
        x, _ = stop.value.value
        assert x[0] == 0.0 and abs(x[1] - 0.3) < 1e-6

    def test_nonfinite_start_returns_input(self):
        def bad(x):
            return np.full(len(x), np.nan)

        start = np.array([0.5, 0.0, 20.0])
        x, val = run(refine(start, BOX, max_steps=10), bad)
        assert np.array_equal(x, start)


class TestOptimize:
    def test_trace_monotone_nonincreasing(self):
        result = run(search(BOX, FitSettings(n_candidates=15, max_iters=50), 29),
                     sphere_factory([0.7, 1.1, 12.0]))
        assert np.all(np.diff(result.trace) <= 0)

    def test_same_seed_identical_different_seed_close(self):
        sample = sample_incomes(TwoClassParams(0.1, 1800.0, 1.8), 50_000, seed=31)
        ctx = FitContext(sample, k=1000)
        bounds = np.array([[1e-6, 0.2], [1.0, 3.0],
                           [ctx.mean / 2, 2 * ctx.mean]])

        def fit(seed):
            return run(search(bounds, FitSettings(n_candidates=25, max_iters=80), seed),
                       context_objective(ctx))

        a, b = fit(1), fit(1)
        assert np.array_equal(a.x, b.x)
        assert a.value == b.value
        assert a.trace == b.trace
        c = fit(2)
        assert abs(a.value - c.value) < 1e-3

    def test_final_refinement_runs_even_with_periodic_disabled(self):
        target = np.array([0.61, -0.37, 17.3])
        settings = FitSettings(n_candidates=10, max_iters=10, refine_every=0)
        result = run(search(BOX, settings, 37), sphere_factory(target))
        # ten swarm iterations alone cannot hit 1e-10; the final polish can
        assert result.value < 1e-10


def search_polishing_every_time(bounds, settings, seed, start=None):
    """``search``, with every scheduled polish run even from the previous polish's start."""
    state = yield from initialize(bounds, settings.n_candidates, seed, start)
    best_x, best_value = state.best_x.copy(), state.best_value
    trace, trace_points = [best_value], [best_x.copy()]
    for t in range(1, settings.max_iters + 1):
        yield from step(state, bounds, settings.max_iters)
        if state.best_value < best_value:
            best_value, best_x = state.best_value, state.best_x.copy()
        if settings.refine_every and t % settings.refine_every == 0:
            rx, rv = yield from refine(best_x, bounds, settings.refine_max_steps)
            if rv < best_value:
                best_value, best_x = rv, rx.copy()
        trace.append(best_value)
        trace_points.append(best_x.copy())
    rx, rv = yield from refine(best_x, bounds, settings.refine_max_steps)
    if rv < best_value:
        best_value, best_x = rv, rx.copy()
    trace.append(best_value)
    trace_points.append(best_x.copy())
    return OptimizeResult(best_x, best_value, trace, trace_points)


class TestSkippedPolish:
    """A polish from the start of the search's previous polish is skipped, and changes nothing."""

    CRITERION_8 = FitSettings(k=2000, n_candidates=24, max_iters=80, refine_every=20,
                              refine_max_steps=40)

    def ridge_seeded_fit(self):
        sample = sample_incomes(TwoClassParams(0.1, 1800.0, 1.8), 20_000, seed=7002)
        ctx = FitContext(sample, k=self.CRITERION_8.k)
        box = self.CRITERION_8.search_box(ctx.mean)
        return box, self.CRITERION_8, ridge_seed(ctx, box), context_objective(ctx)

    def sphere_fit(self):
        return (BOX, FitSettings(n_candidates=10, max_iters=40, refine_every=5), None,
                sphere_factory([0.61, -0.37, 17.3]))

    @pytest.mark.parametrize("fit", ["ridge_seeded_fit", "sphere_fit"])
    def test_same_result_as_polishing_every_time(self, fit, monkeypatch):
        bounds, settings, start, objective = getattr(self, fit)()
        starts = []

        def recording_refine(point, bounds, max_steps):
            starts.append(np.array(point))
            return refine(point, bounds, max_steps)

        monkeypatch.setattr(swarm, "refine", recording_refine)
        skipping = run(search(bounds, settings, 5, start), objective)
        every = run(search_polishing_every_time(bounds, settings, 5, start), objective)
        assert skipping.x.tobytes() == every.x.tobytes()
        assert skipping.value == every.value
        assert np.array(skipping.trace).tobytes() == np.array(every.trace).tobytes()
        assert (np.array(skipping.trace_points).tobytes()
                == np.array(every.trace_points).tobytes())
        assert not any(np.array_equal(a, b) for a, b in zip(starts, starts[1:]))
        assert len(starts) < settings.max_iters // settings.refine_every + 1


class TestConfig:
    @pytest.mark.parametrize("field", ["refine_every", "refine_max_steps"])
    def test_rejects_negative_refine_settings(self, field):
        # refine_every=-3 would still refine every third iteration, as t % -3 == 0
        with pytest.raises(ValueError, match=field):
            FitSettings(**{field: -3})


class TestDrive:
    def test_searches_driven_together_match_each_alone(self):
        contexts = [FitContext(sample_incomes(TwoClassParams(0.1, T, alpha), 20_000, seed=seed),
                            k=k)
                    for T, alpha, seed, k in [(1500.0, 2.0, 41, 400), (900.0, 1.6, 43, 150)]]
        spheres = [sphere_factory([0.2, 1.5, 25.0]), sphere_factory([0.9, -0.4, 11.0])]
        objectives = [context_objective(ctx) for ctx in contexts] + spheres
        box = [np.array([[1e-6, 0.2], [1.0, 3.0], [ctx.mean / 2, 2 * ctx.mean]])
               for ctx in contexts] + [BOX, BOX]
        schedules = [FitSettings(n_candidates=12, max_iters=25, refine_every=10),
                     FitSettings(n_candidates=7, max_iters=1, refine_every=0,
                                 refine_max_steps=0),      # done after its first four rounds
                     FitSettings(n_candidates=9, max_iters=30, refine_every=7),
                     FitSettings(n_candidates=5, max_iters=12, refine_every=0)]
        configs = list(zip(box, schedules, [1, 2, 3, 4]))
        rounds = []

        def evaluate(live, blocks):
            # the context searches' rows in one stacked call, each sphere's on its own
            rounds.append(list(live))
            on_context = [j for j, i in enumerate(live) if i < len(contexts)]
            values = [None if i < len(contexts) else objectives[i](block)
                      for i, block in zip(live, blocks)]
            if on_context:
                stacked = stacked_objective([contexts[live[j]] for j in on_context],
                                            [blocks[j] for j in on_context])
                ends = np.cumsum([len(blocks[j]) for j in on_context])[:-1]
                for j, part in zip(on_context, np.split(stacked, ends)):
                    values[j] = part
            return np.concatenate(values)

        together = drive([search(*config) for config in configs], evaluate)
        assert 1 in rounds[3] and all(1 not in live for live in rounds[4:])
        for config, objective, result in zip(configs, objectives, together):
            alone = run(search(*config), objective)
            assert result.x.tobytes() == alone.x.tobytes()
            assert result.value == alone.value
            assert np.array(result.trace).tobytes() == np.array(alone.trace).tobytes()
            assert (np.array(result.trace_points).tobytes()
                    == np.array(alone.trace_points).tobytes())


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
        shapes = []
        objective = self.recording_sphere(shapes)
        state = run(initialize(BOX, 7, 3), objective)
        assert shapes == [(7, 3)]
        for _ in range(5):
            shapes.clear()
            run(step(state, BOX, 5), objective)
            assert shapes == [(7, 3)]

    def test_refine_point_and_gradient_calls(self):
        shapes = []
        run(refine(np.array([0.9, -1.5, 27.0]), BOX, max_steps=5),
            self.recording_sphere(shapes))
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

        x, val = run(refine(start, BOX, max_steps=1), objective)
        first_call = next(c for c in calls if len(c) == 7)
        assert val == 1.0
        assert np.array_equal(x, first_call[1])
        assert x[0] > start[0] and np.array_equal(x[1:], start[1:])

"""End-to-end fit of the two-class model to one income sample."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ccdf import DEFAULT_CLASS_POINTS, IncomeSample, empirical_gini
from .model import TwoClassParams, theoretical_gini
from .objective import (P_MAX, SENTINEL_LOSS, FitContext, LossBreakdown, SearchPoint,
                        stacked_objective)
from .swarm import OptimizeResult, drive, search


# The search box of every fit: p up to objective.P_MAX, a finite mean
# needs alpha > 1, and T lies near the sample mean.
ALPHA_MIN = 1.0
T_SCALES = (0.5, 2.0)

# The ridge scan that seeds each swarm: RIDGE_POINTS fractions evenly spaced
# over [RIDGE_P_MIN, P_MAX], then as many within two of their spacings of the
# best. Each pass is one loss call of RIDGE_POINTS rows.
RIDGE_P_MIN = 1e-4
RIDGE_POINTS = 1000


@dataclass(frozen=True)
class FitSettings:
    """Everything that shapes a fit apart from the data and the seed."""

    k: int = DEFAULT_CLASS_POINTS
    n_candidates: int = 40
    max_iters: int = 200
    refine_every: int = 10
    refine_max_steps: int = 100
    alpha_max: float = 3.0

    def __post_init__(self):
        floors = {"k": 2, "n_candidates": 2, "max_iters": 1, "refine_every": 0,
                  "refine_max_steps": 0}
        for name, floor in floors.items():
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be at least {floor}, got {getattr(self, name)}")
        if not ALPHA_MIN < self.alpha_max < math.inf:
            raise ValueError(f"alpha_max must be finite and above {ALPHA_MIN}, "
                             f"got {self.alpha_max}")

    def search_box(self, mean_income: float) -> np.ndarray:
        """The (3, 2) box of (p, alpha, T) that every fit searches.

        p in (0, P_MAX], its open lower edge a small positive bound;
        alpha in [ALPHA_MIN, alpha_max]; T in T_SCALES times the sample
        mean.
        """
        return np.array([[1e-6, P_MAX], [ALPHA_MIN, self.alpha_max],
                         [T_SCALES[0] * mean_income, T_SCALES[1] * mean_income]])


@dataclass(eq=False)
class FitResult:
    point: SearchPoint
    params: TwoClassParams
    crossover: float
    loss: LossBreakdown
    gini_theoretical: float
    gini_empirical: float
    rmsle_exponential: float
    n_exponential: int
    rmsle_pareto: float
    n_pareto: int
    crossover_clamped: bool
    trace: list[float]
    trace_points: list[np.ndarray]


class FitError(ValueError):
    """Fit could not produce a non-degenerate model for the sample."""


def ridge_seed(context: FitContext, box: np.ndarray) -> np.ndarray | None:
    """Best point of a coarse-to-fine scan of ``context.ridge`` in the (3, 2) ``box``.

    The loss is rugged in p at the scale of one sample income, so a swarm
    started at random often settles in the wrong basin; the scan puts one
    particle in the best one it sees (Clauset, Shalizi and Newman's scan
    over every candidate crossover, with alpha profiled out). None when
    every scanned point is degenerate.
    """
    def best(p):
        rows = context.ridge(p, box)
        values = stacked_objective([context], [rows])
        i = int(np.argmin(values))
        return rows[i], float(values[i])

    x, value = best(np.linspace(RIDGE_P_MIN, P_MAX, RIDGE_POINTS))
    reach = 2.0 * (P_MAX - RIDGE_P_MIN) / (RIDGE_POINTS - 1)
    fine_x, fine_value = best(np.linspace(max(x[0] - reach, RIDGE_P_MIN),
                                          min(x[0] + reach, P_MAX), RIDGE_POINTS))
    if fine_value < value:
        x, value = fine_x, fine_value
    return x if value < SENTINEL_LOSS else None


def fit_group(contexts: list[FitContext], settings: FitSettings,
              seeds: list[int | np.random.SeedSequence]) -> list[OptimizeResult]:
    """Swarm search of each context on its own seed, all advanced together.

    Each swarm starts with one particle at the context's ``ridge_seed``.
    Each round scores the rows of every unfinished search in one stacked
    loss call, so a group of fits shares the fixed cost of a call; each
    result equals that of the context's search alone.
    """
    searches = []
    for context, seed in zip(contexts, seeds):
        box = settings.search_box(context.mean)
        searches.append(search(box, settings, seed, start=ridge_seed(context, box)))
    return drive(searches, lambda live, blocks: stacked_objective(
        [contexts[i] for i in live], blocks))


def solution(context: FitContext, result: OptimizeResult) -> LossBreakdown:
    """Loss breakdown at the best point found.

    FitError when it is degenerate, or when its Pareto class holds at
    least half of the people: the upper class is a minority.
    """
    breakdown = context.loss_at(*result.x.tolist())
    if breakdown.degenerate:
        raise FitError("optimizer found no non-degenerate model for this sample")
    if breakdown.params.lam >= 0.5:
        raise FitError(f"best model puts a majority in the Pareto tail (top fraction "
                       f"{breakdown.params.lam:.6g}); the upper class must be a minority")
    return breakdown


def fit_sample(sample: IncomeSample, settings: FitSettings = FitSettings(),
               seed: int | np.random.SeedSequence = 0,
               context: FitContext | None = None) -> FitResult:
    """Fit the two-class model by swarm search over (p, alpha, T).

    Raises FitError when the best point found is still degenerate (for
    example on an all-equal sample with a single CCDF knot) or puts a
    majority in the Pareto tail.
    """
    if context is None:
        context = FitContext(sample, settings.k)
    result, = fit_group([context], settings, [seed])
    breakdown = solution(context, result)
    point = SearchPoint(*result.x.tolist())
    params = breakdown.params
    # split where the model's body meets its tail, T*ln(1/lam)
    rmsle_exp, n_exp, rmsle_par, n_par, _ = context.split_errors(
        params.temperature, params.crossover, math.log(params.lam), params.alpha)
    return FitResult(
        point=point,
        params=params,
        crossover=breakdown.crossover,
        loss=breakdown,
        gini_theoretical=theoretical_gini(params.lam, params.alpha),
        gini_empirical=empirical_gini(sample),
        rmsle_exponential=rmsle_exp,
        n_exponential=n_exp,
        rmsle_pareto=rmsle_par,
        n_pareto=n_par,
        crossover_clamped=point.p < context.min_fraction,
        trace=result.trace,
        trace_points=result.trace_points,
    )

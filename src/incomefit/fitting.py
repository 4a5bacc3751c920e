"""End-to-end fit of the two-class model to one income sample."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ccdf import DEFAULT_CLASS_POINTS, IncomeSample, empirical_gini
from .model import TwoClassParams, theoretical_gini
from .objective import P_MAX, FitContext, LossBreakdown, SearchPoint, stacked_objective
from .swarm import OptimizeResult, drive, search


# The search box of every fit: p up to objective.P_MAX, a finite mean
# needs alpha > 1, and T lies near the sample mean.
ALPHA_MIN = 1.0
T_SCALES = (0.5, 2.0)


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
    seed: int | np.random.SeedSequence
    settings: FitSettings
    trace: list[float] = field(default_factory=list)
    trace_points: list[np.ndarray] = field(default_factory=list)


class FitError(ValueError):
    """Fit could not produce a non-degenerate model for the sample."""


def region_rmsle(context: FitContext,
                 params: TwoClassParams) -> tuple[float, int, float, int]:
    """Log-error split of the loss grid at the model's crossover.

    Points at or above the crossover count toward the Pareto side; each
    side reports the root mean square over its own points, so the two
    regions recombine to the total when weighted by point counts.
    """
    sq_exp, n_exp, sq_par, n_par = context.split_errors(params.temperature, params.crossover,
                                                        math.log(params.lam), params.alpha)
    rmsle_exp = math.sqrt(max(sq_exp, 0.0) / n_exp) if n_exp else 0.0
    rmsle_par = math.sqrt(max(sq_par, 0.0) / n_par) if n_par else 0.0
    return rmsle_exp, n_exp, rmsle_par, n_par


def fit_group(contexts: list[FitContext], settings: FitSettings,
              seeds: list[int | np.random.SeedSequence]) -> list[OptimizeResult]:
    """Swarm search of each context on its own seed, all advanced together.

    Each round scores the rows of every unfinished search in one stacked
    loss call, so a group of fits shares the fixed cost of a call; each
    result equals that of the context's search alone.
    """
    searches = [search(settings.search_box(context.mean), settings, seed)
                for context, seed in zip(contexts, seeds)]
    return drive(searches, lambda live, blocks: stacked_objective(
        [contexts[i] for i in live], blocks))


def solution(context: FitContext, result: OptimizeResult) -> LossBreakdown:
    """Loss breakdown at the best point found; FitError when it is degenerate."""
    breakdown = context.loss_at(*result.x.tolist())
    if breakdown.degenerate or breakdown.params is None:
        raise FitError("optimizer found no non-degenerate model for this sample")
    return breakdown


def fit_sample(sample: IncomeSample, settings: FitSettings = FitSettings(),
               seed: int | np.random.SeedSequence = 0,
               context: FitContext | None = None) -> FitResult:
    """Fit the two-class model by swarm search over (p, alpha, T).

    Raises FitError when the best point found is still degenerate (for
    example on an all-equal sample with a single CCDF knot).
    """
    if context is None:
        context = FitContext(sample, settings.k)
    result, = fit_group([context], settings, [seed])
    breakdown = solution(context, result)
    point = SearchPoint(*result.x.tolist())
    params = breakdown.params
    assert breakdown.crossover is not None
    rmsle_exp, n_exp, rmsle_par, n_par = region_rmsle(context, params)
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
        seed=seed,
        settings=settings,
        trace=result.trace,
        trace_points=result.trace_points,
    )

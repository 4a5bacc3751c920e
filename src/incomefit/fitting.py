"""End-to-end fit of the two-class model to one income sample."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ccdf import DEFAULT_CLASS_POINTS, IncomeSample, empirical_gini
from .model import TwoClassParams, theoretical_gini
from .objective import FitContext, LossBreakdown, SearchPoint
from .swarm import OptimizeResult, SwarmConfig, optimize


@dataclass(frozen=True)
class FitSettings:
    """Everything that shapes a fit apart from the data and the seed."""

    k: int = DEFAULT_CLASS_POINTS
    n_candidates: int = 40
    max_iters: int = 200
    refine_every: int = 10
    refine_max_steps: int = 100
    p_max: float = 0.2
    alpha_min: float = 1.0
    alpha_max: float = 3.0
    t_lower_scale: float = 0.5
    t_upper_scale: float = 2.0

    def swarm_config(self, mean_income: float, seed: int) -> SwarmConfig:
        """Swarm over the search box of this fit.

        p in (0, p_max], its open lower edge a small positive bound;
        alpha in [alpha_min, alpha_max]; T in [t_lower_scale,
        t_upper_scale] times the sample mean.
        """
        bounds = [[1e-6, self.p_max],
                  [self.alpha_min, self.alpha_max],
                  [self.t_lower_scale * mean_income, self.t_upper_scale * mean_income]]
        return SwarmConfig(bounds=bounds, n_candidates=self.n_candidates,
                           max_iters=self.max_iters, seed=seed,
                           refine_every=self.refine_every,
                           refine_max_steps=self.refine_max_steps)


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
    seed: int
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
    residuals, split = context.log_residuals(params.temperature, params.crossover,
                                             math.log(params.lam), params.alpha)
    sq = residuals ** 2
    n_exp, n_par = split, sq.size - split
    rmsle_exp = float(np.sqrt(np.mean(sq[:split]))) if n_exp else 0.0
    rmsle_par = float(np.sqrt(np.mean(sq[split:]))) if n_par else 0.0
    return rmsle_exp, n_exp, rmsle_par, n_par


def fit_sample(sample: IncomeSample, settings: FitSettings = FitSettings(),
               seed: int = 0, context: FitContext | None = None) -> FitResult:
    """Fit the two-class model by swarm search over (p, alpha, T).

    Raises FitError when the best point found is still degenerate (for
    example on an all-equal sample with a single CCDF knot).
    """
    if context is None:
        context = FitContext(sample, settings.k)
    config = settings.swarm_config(sample.mean, seed)
    result: OptimizeResult = optimize(config, context.objective_batch)
    breakdown = context.loss_at(*result.x)
    if breakdown.degenerate or breakdown.params is None:
        raise FitError("optimizer found no non-degenerate model for this sample")
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
        crossover_clamped=point.p < context.ccdf.min_fraction,
        seed=seed,
        settings=settings,
        trace=result.trace,
        trace_points=result.trace_points,
    )

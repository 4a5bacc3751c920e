"""Bootstrap resampling with out-of-bag validation of the fit.

Each replica draws N observations with replacement as a training set;
the observations never drawn form the test set. The model is fitted on
the training set and its log-error evaluated on both sets, giving
replica distributions for every indicator. A fixed-proportion baseline
(tail share pinned, temperature set to the sample mean, tail index
fitted alone) provides the comparison against the optimal-crossover fit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from ._pool import map_in_order
from .ccdf import DEFAULT_CLASS_POINTS, IncomeSample
from .fitting import ALPHA_MIN, FitError, FitSettings, fit_sample
from .model import TwoClassParams
from .objective import FitContext

log = logging.getLogger(__name__)

MIN_INCOMES = 3                         # the fewest that can leave 2 out of bag


@dataclass(frozen=True)
class ReplicaRecord:
    replica: int                        # spawn index r: SeedSequence(seed).spawn(R)[r]
    crossover: float
    top_fraction: float
    temperature: float
    pareto_index: float
    gini: float
    train_rmsle: float
    test_rmsle: float


INDICATORS = tuple(f.name for f in fields(ReplicaRecord))[1:]   # every field after replica


@dataclass(frozen=True)
class IndicatorStats:
    mean: float
    std: float
    ci_low: float
    ci_high: float
    cv: float


@dataclass(eq=False)
class BootstrapSummary:
    stats: dict[str, IndicatorStats]
    n_requested: int
    n_effective: int
    replicas: list[ReplicaRecord]


@dataclass(frozen=True)
class BaselineFit:
    top_fraction: float
    temperature: float
    pareto_index: float
    crossover: float
    train_rmsle: float
    test_rmsle: float | None


def bootstrap_pair(sample: IncomeSample, seed: int | np.random.SeedSequence
                   ) -> tuple[IncomeSample, IncomeSample]:
    """Train set of N draws with replacement plus the out-of-bag test set.

    Every original observation lands in exactly one side: drawn at least
    once (train) or never (test). Train repeats each income of the sorted
    sample by its draw count and test holds the zero-count incomes. A
    test set of fewer than 2 incomes, too few for a sample, triggers a
    fresh draw from the same generator; a sample of under 3 incomes can
    never leave 2 out, and is rejected. Both sides come out ascending and
    hold values the sample has already checked, so neither is sorted
    or checked again.
    """
    asc, n = sample.ascending, sample.n
    if n < MIN_INCOMES:
        raise ValueError(f"need at least {MIN_INCOMES} incomes to leave 2 out of bag, got {n}")
    rng = np.random.default_rng(seed)
    while True:
        # the draws index the descending order; reversed, the counts line up with asc
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)[::-1]
        test = asc[counts == 0]
        if test.size >= 2:
            return (IncomeSample._from_ascending(np.repeat(asc, counts)),
                    IncomeSample._from_ascending(test))


def _class_rmsle(params: TwoClassParams, sample: IncomeSample, k: int) -> float:
    """Log error of a fitted model on a sample's own class statistic."""
    return FitContext(sample, k).residual_rmsle(params.temperature, params.crossover,
                                                math.log(params.lam), params.alpha)


def _replica(shared: tuple[IncomeSample, FitSettings],
             item: tuple[int, np.random.SeedSequence]) -> ReplicaRecord | str:
    """Fit replica r on its own stream: its record, or why it was dropped."""
    sample, settings = shared
    r, stream = item
    resample, swarm = stream.spawn(2)
    try:
        train, test = bootstrap_pair(sample, resample)
        fit = fit_sample(train, settings, seed=swarm)
        test_rmsle = _class_rmsle(fit.params, test, settings.k)
    except (FitError, ValueError) as exc:
        return str(exc)
    return ReplicaRecord(
        replica=r,
        crossover=fit.crossover,
        top_fraction=fit.params.lam,
        temperature=fit.params.temperature,
        pareto_index=fit.params.alpha,
        gini=fit.gini_theoretical,
        train_rmsle=fit.loss.rmsle,
        test_rmsle=test_rmsle,
    )


def run_validation(sample: IncomeSample, n_replicas: int,
                   settings: FitSettings = FitSettings(),
                   seed: int = 0) -> BootstrapSummary:
    """Fit R bootstrap replicas and aggregate the indicator distributions.

    Replica r draws from child r of ``SeedSequence(seed).spawn(R)``,
    itself split into a resampling and a swarm stream, so every stream is
    independent within a run and across master seeds, and each replica
    is reproducible on its own. Replicas run on worker processes, one per
    available CPU, with the same results for any count. Replicas whose
    fit is degenerate are dropped and logged in replica order; the
    summary reports the effective count.
    """
    if n_replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {n_replicas}")
    if sample.n < MIN_INCOMES:
        raise ValueError(f"need at least {MIN_INCOMES} incomes to leave 2 out of bag, "
                         f"got {sample.n}")
    streams = np.random.SeedSequence(seed).spawn(n_replicas)
    replicas: list[ReplicaRecord] = []
    for r, outcome in enumerate(map_in_order(_replica, list(enumerate(streams)),
                                             (sample, settings))):
        if isinstance(outcome, str):
            log.warning("replica %d dropped: %s", r, outcome)
        else:
            replicas.append(outcome)
    stats: dict[str, IndicatorStats] = {}
    if replicas:
        for name in INDICATORS:
            vec = np.array([getattr(rec, name) for rec in replicas], dtype=float)
            mean = float(np.mean(vec))
            std = float(np.std(vec, ddof=1)) if vec.size > 1 else 0.0
            lo, hi = np.percentile(vec, [2.5, 97.5])
            cv = std / mean if mean > 0 else float("nan")
            stats[name] = IndicatorStats(mean, std, float(lo), float(hi), cv)
    return BootstrapSummary(stats=stats, n_requested=n_replicas,
                            n_effective=len(replicas), replicas=replicas)


def fixed_proportion_fit(sample: IncomeSample, lam0: float = 0.05,
                         k: int = DEFAULT_CLASS_POINTS,
                         alpha_bounds: tuple[float, float] = (ALPHA_MIN, FitSettings.alpha_max),
                         test_sample: IncomeSample | None = None) -> BaselineFit:
    """Baseline with the tail share pinned at ``lam0``.

    Temperature is the whole-sample mean, the crossover is the
    interpolated CCDF inverse at lam0, and only the tail index is
    fitted, to the least tail log error within ``alpha_bounds``. The
    resulting two-part model is generally discontinuous at the
    crossover.
    """
    if not 0.0 < lam0 < 1.0:
        raise ValueError(f"tail proportion must be in (0, 1), got {lam0}")
    context = FitContext(sample, k)
    temperature = sample.mean
    m_c = context.ccdf.inverse(lam0)
    split = int(np.searchsorted(context.fit_points, m_c))
    g = context.fit_log_income[split:] - math.log(m_c)
    # only points above the crossover carry the slope; with none, alpha is undefined
    n_tail = int(np.count_nonzero(g > 0.0))
    if n_tail < 10:
        raise ValueError(f"only {n_tail} class points above the crossover; "
                         "need at least 10 to fit the tail index")
    log_lam0 = np.log(lam0)
    # the tail residual r0 + alpha*g is linear in alpha, so its square is a
    # parabola whose minimiser over the range is the clipped slope
    r0 = context.fit_log_fraction[split:] - log_lam0
    alpha = float(np.clip(-(r0 @ g) / (g @ g), *alpha_bounds))
    model = (temperature, m_c, log_lam0, alpha)
    test_rmsle = None
    if test_sample is not None:
        test_rmsle = FitContext(test_sample, k).residual_rmsle(*model)
    return BaselineFit(lam0, temperature, alpha, m_c, context.residual_rmsle(*model), test_rmsle)

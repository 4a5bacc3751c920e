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

from . import _pool
from .ccdf import DEFAULT_CLASS_POINTS, IncomeSample, build_ccdf
from .fitting import ALPHA_MIN, FitError, FitSettings, fit_group, solution
from .model import TwoClassParams, theoretical_gini
from .objective import ClassResiduals, FitContext

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
        # (a contiguous copy: np.repeat and the mask below run on it 40% faster)
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)[::-1].copy()
        test = asc[counts == 0]
        if test.size >= 2:
            return (IncomeSample._from_ascending(np.repeat(asc, counts)),
                    IncomeSample._from_ascending(test))


def _two_part_rmsle(residuals: ClassResiduals, *model: float) -> float:
    """Log error over all fit points of ``model`` (see ``ClassResiduals.split_errors``)."""
    sq_body, n_body, sq_tail, n_tail = residuals.split_errors(*model)
    return math.sqrt(max(sq_body + sq_tail, 0.0) / (n_body + n_tail))


def _class_rmsle(params: TwoClassParams, residuals: ClassResiduals) -> float:
    """Log error of a fitted model on a sample's class statistic."""
    return _two_part_rmsle(residuals, params.temperature, params.crossover,
                           math.log(params.lam), params.alpha)


def _prepare(sample: IncomeSample, settings: FitSettings, resample: np.random.SeedSequence
             ) -> tuple[FitContext, ClassResiduals]:
    """The train set's search context and the test set's class statistic.

    Neither keeps its sample, so a replica waiting in its group holds only
    what the fit and the out-of-bag error read.
    """
    train, test = bootstrap_pair(sample, resample)
    return FitContext(train, settings.k), ClassResiduals(build_ccdf(test, settings.k))


def _replica_group(shared: tuple[IncomeSample, FitSettings],
                   group: list[tuple[int, np.random.SeedSequence]]) -> list[ReplicaRecord | str]:
    """Fit a group of replicas together, each on its own streams.

    Each replica gives its record, or why it was dropped.
    """
    sample, settings = shared
    outcomes: dict[int, ReplicaRecord | str] = {}
    ready = []
    for r, stream in group:
        resample, swarm = stream.spawn(2)
        try:
            ready.append((r, swarm, *_prepare(sample, settings, resample)))
        except ValueError as exc:
            outcomes[r] = str(exc)
    results = fit_group([context for _, _, context, _ in ready], settings,
                        [swarm for _, swarm, _, _ in ready])
    for (r, _, context, residuals), result in zip(ready, results):
        try:
            breakdown = solution(context, result)
        except FitError as exc:
            outcomes[r] = str(exc)
            continue
        params = breakdown.params
        outcomes[r] = ReplicaRecord(
            replica=r,
            crossover=breakdown.crossover,
            top_fraction=params.lam,
            temperature=params.temperature,
            pareto_index=params.alpha,
            gini=theoretical_gini(params.lam, params.alpha),
            train_rmsle=breakdown.rmsle,
            test_rmsle=_class_rmsle(params, residuals),
        )
    return [outcomes[r] for r, _ in group]


def run_validation(sample: IncomeSample, n_replicas: int,
                   settings: FitSettings = FitSettings(),
                   seed: int = 0) -> BootstrapSummary:
    """Fit R bootstrap replicas and aggregate the indicator distributions.

    Replica r draws from child r of ``SeedSequence(seed).spawn(R)``,
    itself split into a resampling and a swarm stream, so every stream is
    independent within a run and across master seeds, and each replica
    is reproducible on its own. Replicas run on worker processes, one per
    available CPU, each fitting groups of consecutive replicas together,
    with the same results for any worker count and group size. Replicas
    whose fit is degenerate are dropped and logged in replica order; the
    summary reports the effective count.
    """
    if n_replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {n_replicas}")
    if sample.n < MIN_INCOMES:
        raise ValueError(f"need at least {MIN_INCOMES} incomes to leave 2 out of bag, "
                         f"got {sample.n}")
    items = list(enumerate(np.random.SeedSequence(seed).spawn(n_replicas)))
    replicas: list[ReplicaRecord] = []
    outcomes = _pool.map_groups(_replica_group, items, (sample, settings))
    for r, outcome in enumerate(outcomes):
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
    ccdf = build_ccdf(sample, k)
    train = ClassResiduals(ccdf)
    temperature = sample.mean
    m_c = ccdf.inverse(lam0)
    log_lam0 = np.log(lam0)
    # only points above the crossover carry the slope; with none, alpha is undefined
    n_tail = train.fit_points.size - int(np.searchsorted(train.fit_points, m_c, side="right"))
    if n_tail < 10:
        raise ValueError(f"only {n_tail} class points above the crossover; "
                         "need at least 10 to fit the tail index")
    # the tail error is a parabola in alpha, so the least one in range is the clipped slope
    alpha = float(np.clip(train.tail_slope(m_c, log_lam0), *alpha_bounds))
    model = (temperature, m_c, log_lam0, alpha)
    test_rmsle = None
    if test_sample is not None:
        test_rmsle = _two_part_rmsle(ClassResiduals(build_ccdf(test_sample, k)), *model)
    return BaselineFit(lam0, temperature, alpha, m_c, _two_part_rmsle(train, *model), test_rmsle)

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
from scipy.optimize import minimize_scalar

from .ccdf import DEFAULT_CLASS_POINTS, IncomeSample
from .fitting import FitError, FitSettings, fit_sample
from .model import TwoClassParams
from .objective import FitContext

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class ReplicaRecord:
    seed: int
    crossover: float
    top_fraction: float
    temperature: float
    pareto_index: float
    gini: float
    train_rmsle: float
    test_rmsle: float


INDICATORS = tuple(f.name for f in fields(ReplicaRecord))[1:]   # every field after seed


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


def bootstrap_pair(sample: IncomeSample, seed: int) -> tuple[IncomeSample, IncomeSample]:
    """Train set of N draws with replacement plus the out-of-bag test set.

    Every original observation lands in exactly one side: drawn at least
    once (train) or never (test). An empty test set triggers a redraw
    with the incremented seed.
    """
    n = sample.n
    values = sample.values
    current = seed
    while True:
        rng = np.random.default_rng(current)
        idx = rng.integers(0, n, size=n)
        mask = np.ones(n, dtype=bool)
        mask[idx] = False
        if mask.any():
            return IncomeSample(values[idx]), IncomeSample(values[mask])
        current += 1


def _class_rmsle(params: TwoClassParams, sample: IncomeSample, k: int) -> float:
    """Log error of a fitted model on a sample's own class statistic."""
    r, _ = FitContext(sample, k).log_residuals(params.temperature, params.crossover,
                                               math.log(params.lam), params.alpha)
    return float(np.sqrt(np.mean(r * r)))


def run_validation(sample: IncomeSample, n_replicas: int,
                   settings: FitSettings = FitSettings(),
                   seed: int = 0) -> BootstrapSummary:
    """Fit R bootstrap replicas and aggregate the indicator distributions.

    Replica seeds derive from the master seed and the replica index
    (resampling on even offsets, the swarm on odd ones), so replicas are
    reproducible independently of execution order. Replicas whose fit is
    degenerate are dropped and logged; the summary reports the effective
    count.
    """
    if n_replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {n_replicas}")
    replicas: list[ReplicaRecord] = []
    for r in range(n_replicas):
        pair_seed = seed + 2 * r
        try:
            train, test = bootstrap_pair(sample, pair_seed)
            fit = fit_sample(train, settings, seed=pair_seed + 1)
            test_rmsle = _class_rmsle(fit.params, test, settings.k)
        except (FitError, ValueError) as exc:
            log.warning("replica %d dropped: %s", r, exc)
            continue
        replicas.append(ReplicaRecord(
            seed=pair_seed,
            crossover=fit.crossover,
            top_fraction=fit.params.lam,
            temperature=fit.params.temperature,
            pareto_index=fit.params.alpha,
            gini=fit.gini_theoretical,
            train_rmsle=fit.loss.rmsle,
            test_rmsle=test_rmsle,
        ))
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
                         alpha_bounds: tuple[float, float] = (1.0, 3.0),
                         test_sample: IncomeSample | None = None) -> BaselineFit:
    """Baseline with the tail share pinned at ``lam0``.

    Temperature is the whole-sample mean, the crossover is the
    interpolated CCDF inverse at lam0, and only the tail index is
    fitted, by a bounded 1-D search minimizing the tail log error. The
    resulting two-part model is generally discontinuous at the
    crossover.
    """
    if not 0.0 < lam0 < 1.0:
        raise ValueError(f"tail proportion must be in (0, 1), got {lam0}")
    context = FitContext(sample, k)
    temperature = sample.mean
    m_c = context.ccdf.inverse(lam0)
    n_tail = context.fit_points.size - int(np.searchsorted(context.fit_points, m_c))
    if n_tail < 10:
        raise ValueError(f"only {n_tail} class points above the crossover; "
                         "need at least 10 to fit the tail index")
    log_lam0 = np.log(lam0)

    def tail_error(alpha: float) -> float:
        r, split = context.log_residuals(temperature, m_c, log_lam0, alpha)
        return float(np.mean(r[split:] ** 2))

    res = minimize_scalar(tail_error, bounds=alpha_bounds, method="bounded",
                          options={"xatol": 1e-4})
    alpha = float(res.x)

    def two_part_rmsle(ctx: FitContext) -> float:
        r, _ = ctx.log_residuals(temperature, m_c, log_lam0, alpha)
        return float(np.sqrt(np.mean(r * r)))

    train_rmsle = two_part_rmsle(context)
    test_rmsle = None
    if test_sample is not None:
        test_rmsle = two_part_rmsle(FitContext(test_sample, k))
    return BaselineFit(lam0, temperature, alpha, m_c, train_rmsle, test_rmsle)

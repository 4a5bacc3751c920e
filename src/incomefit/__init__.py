"""Two-class income distribution fitting and inequality indicators."""

from .ccdf import (
    IncomeSample,
    build_ccdf,
    class_statistic,
    empirical_gini,
    empirical_mean,
    inverse_ccdf,
)
from .model import (
    TwoClassParams,
    crossover_income,
    draw_incomes,
    exponential_regime_mean,
    gini_expansion,
    model_ccdf,
    model_log_ccdf,
    model_mean,
    model_pdf,
    sample_incomes,
    theoretical_gini,
)
from .objective import (
    FitContext,
    SENTINEL_LOSS,
    SearchPoint,
    l1_penalty,
    l2_penalty,
    resolve_params,
    rmsle,
)
from .swarm import SwarmConfig, initialize, optimize, refine, step
from .fitting import FitSettings, fit_sample
from .bootstrap import bootstrap_pair, fixed_proportion_fit, run_validation
from .series import affine_regression, build_series, pearson
from .pipeline import (
    DatasetSpec,
    cmd_baseline,
    cmd_bootstrap,
    cmd_fit,
    cmd_series,
    cmd_synth,
    ingest,
)

__version__ = "0.1.0"

"""Two-class income distribution fitting and inequality indicators."""

import os

# One BLAS thread unless the caller chose a count: the fits run one per
# worker process, and an idle BLAS thread spins while a fit runs, taking
# the CPU a worker needs. It takes effect only before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .ccdf import IncomeSample, build_ccdf, class_statistic, empirical_gini
from .model import (
    TwoClassParams,
    crossover_income,
    draw_incomes,
    model_ccdf,
    model_mean,
    sample_incomes,
    theoretical_gini,
)
from .objective import FitContext, SENTINEL_LOSS, SearchPoint
from .swarm import drive, initialize, refine, search, step
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

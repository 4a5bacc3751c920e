"""The package's public names, and the separation of the test oracle from the loss kernel."""

import ast
import types
from pathlib import Path

import pytest

import incomefit
from incomefit import ccdf, model, objective

PUBLIC = [
    "DatasetSpec", "FitContext", "FitSettings", "IncomeSample", "SENTINEL_LOSS",
    "SearchPoint", "TwoClassParams", "affine_regression", "bootstrap_pair", "build_ccdf",
    "build_series", "class_statistic", "cmd_baseline", "cmd_bootstrap", "cmd_fit",
    "cmd_series", "cmd_synth", "crossover_income", "draw_incomes", "drive",
    "empirical_gini", "fit_sample", "fixed_proportion_fit", "ingest",
    "initialize", "model_ccdf", "model_mean", "pearson", "refine", "run_validation",
    "sample_incomes", "search", "step", "theoretical_gini",
]

# the reference functions live in tests/oracle.py, which nothing in the package imports
ORACLE_ONLY = ["resolve_params", "rmsle", "l1_penalty", "l2_penalty", "model_pdf",
               "model_log_ccdf", "exponential_regime_mean", "empirical_mean",
               "gini_expansion"]

KERNEL = {"stacked_objective", "_losses", "_squared_errors", "ClassResiduals", "FitContext"}


def test_public_names():
    names = [name for name, value in vars(incomefit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(names) == PUBLIC


@pytest.mark.parametrize("module", [incomefit, objective, model, ccdf],
                         ids=lambda module: module.__name__)
def test_oracle_names_not_in_package(module):
    assert [name for name in ORACLE_ONLY if hasattr(module, name)] == []


def test_oracle_reads_no_kernel_name():
    # a parity test compares the kernel with the oracle, so the oracle must not
    # reach the kernel's arithmetic, by import or by attribute
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            used.update({node.name.rpartition(".")[2], node.asname})
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert used & KERNEL == set()

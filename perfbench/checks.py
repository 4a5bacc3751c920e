"""Checks of the CLI's written outputs.

Each check compares an output with a computation made here, apart from
the program, or with a property the method must have. None compares
with a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

import gen

# numpy 2 writes scalars as np.float64(...); numeric checks read through it
_WRAPPED = re.compile(r"^np\.float\d*\((.*)\)$")
_PLAIN_DECIMAL = re.compile(r"^[-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$|^[-+]?(nan|inf)$")
# fields that hold text rather than numbers
TEXT_FIELDS = frozenset({"path", "income_column", "filters", "stratify_by",
                         "crossover_clamped", "name", "branch"})

INDICATORS = ("crossover", "top_fraction", "temperature", "pareto_index",
              "gini", "train_rmsle", "test_rmsle")


def number(text: str) -> float:
    text = text.strip()
    match = _WRAPPED.match(text)
    return float(match.group(1) if match else text)


def read_sections(path: Path) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif " = " in line:
            key, value = line.split(" = ", 1)
            current[key] = value
    return sections


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    delimiter = "\t" if path.suffix == ".tsv" else ","
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    return rows[0], rows[1:]


def column(path: Path, name: str) -> np.ndarray:
    header, rows = read_table(path)
    i = header.index(name)
    return np.array([number(row[i]) for row in rows])


def readback_problems(out: Path, files) -> list[str]:
    """Every numeric field of every written file must be a plain decimal."""
    problems = []
    for name in files:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        if path.suffix == ".txt":
            fields = [(key, value) for items in read_sections(path).values()
                      for key, value in items.items()]
        else:
            header, rows = read_table(path)
            fields = [(key, value) for row in rows for key, value in zip(header, row)]
        bad = [(k, v) for k, v in fields
               if k not in TEXT_FIELDS and not _PLAIN_DECIMAL.match(v.strip())]
        if bad:
            problems.append(f"{name}: {len(bad)} of {len(fields)} fields are not plain "
                            f"decimals, e.g. {bad[0][0]}={bad[0][1]}")
    return problems


def closed_form_gini(lam: float, alpha: float) -> float:
    """Gini of the two-class law; depends on the top fraction and Pareto index only."""
    log_lam = math.log(lam)
    num = (1.0 - lam * lam) / 2.0 - lam * lam * log_lam / (2.0 * alpha - 1.0)
    den = (1.0 - lam) - lam * log_lam / (alpha - 1.0)
    return 1.0 - num / den


def rank_gini(incomes: np.ndarray) -> float:
    """G = 2 * sum(i * m_(i)) / (N * sum(m)) - (N + 1) / N over ascending order."""
    asc = np.sort(incomes)
    n = asc.size
    i = np.arange(1, n + 1, dtype=float)
    return float(2.0 * np.dot(i, asc) / (n * asc.sum()) - (n + 1.0) / n)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class BootstrapCheck:
    """bootstrap-2e5: replica count, summary statistics, per-replica identities."""

    outputs = ("summary.txt", "replicas.csv")

    def __init__(self, replicas: int):
        self.replicas = replicas
        self.oob_rmsle = math.nan

    def problems(self, out: Path) -> list[str]:
        summary = read_sections(out / "summary.txt")
        found = []
        requested = int(number(summary["replicas"]["requested"]))
        effective = int(number(summary["replicas"]["effective"]))
        if requested != self.replicas or effective != self.replicas:
            found.append(f"effective replicas {effective}/{requested}, expected {self.replicas}")
        table = {name: column(out / "replicas.csv", name) for name in INDICATORS}
        if table["gini"].size != self.replicas:
            found.append(f"replicas.csv holds {table['gini'].size} rows")
        for name in INDICATORS:
            vec = table[name]
            stats = {k: number(v) for k, v in summary[name].items()}
            lo, hi = np.percentile(vec, [2.5, 97.5])
            expected = {"mean": float(np.mean(vec)), "std": float(np.std(vec, ddof=1)),
                        "ci_low": float(lo), "ci_high": float(hi)}
            for key, value in expected.items():
                if not close(stats[key], value, 1e-12):
                    found.append(f"{name} {key} {stats[key]} != numpy {value}")
            if not stats["ci_low"] <= stats["mean"] <= stats["ci_high"]:
                found.append(f"{name} mean outside its interval")
        self.oob_rmsle = number(summary["test_rmsle"]["mean"])
        for i, (lam, m_c, t, a, g) in enumerate(zip(
                table["top_fraction"], table["crossover"], table["temperature"],
                table["pareto_index"], table["gini"])):
            if not close(lam, math.exp(-m_c / t), 1e-12):
                found.append(f"replica {i}: top_fraction != exp(-m_c/T)")
            if not close(g, closed_form_gini(lam, a), 1e-12):
                found.append(f"replica {i}: Gini differs from the closed form")
        return found


class SeriesCheck:
    """series-8y: years, deflation, yearly Gini, correlation and regression."""

    outputs = ("series.csv", "correlations.txt", "regression.txt", "gini_pair.csv",
               "tail_pair.csv")

    def __init__(self, inputs: gen.Inputs):
        self.deflators = inputs.deflators
        self.gini_by_year = {y: rank_gini(v) for y, v in inputs.women_by_year.items()}

    def problems(self, out: Path) -> list[str]:
        path = out / "series.csv"
        col = {name: column(path, name) for name in (
            "year", "top_fraction", "temperature", "temperature_deflated", "pareto_index",
            "crossover", "crossover_deflated", "gini_theoretical", "gini_empirical")}
        found = []
        years = [int(y) for y in col["year"]]
        if years != list(gen.SERIES_YEARS):
            return [f"series.csv years {years}"]
        ref = self.deflators[gen.SERIES_REFERENCE_YEAR]
        for i, year in enumerate(years):
            factor = ref / self.deflators[year]
            for name in ("temperature", "crossover"):
                if not close(col[name + "_deflated"][i], col[name][i] * factor, 1e-12):
                    found.append(f"{year}: {name}_deflated != nominal * ref/index")
            if not close(col["gini_empirical"][i], self.gini_by_year[year], 1e-9):
                found.append(f"{year}: empirical Gini differs from the filtered rows")
        corr = read_sections(out / "correlations.txt")
        for section, (x, y) in {
                "pareto_index_vs_top_fraction": ("top_fraction", "pareto_index"),
                "empirical_vs_theoretical_gini": ("gini_theoretical", "gini_empirical")}.items():
            rho = number(corr[section]["rho"])
            expected = float(np.corrcoef(col[x], col[y])[0, 1])
            if not close(rho, expected, 1e-9):
                found.append(f"{section} rho {rho} != np.corrcoef {expected}")
        reg = read_sections(out / "regression.txt")["empirical_gini_on_theoretical_gini"]
        slope, intercept = np.polyfit(col["gini_theoretical"], col["gini_empirical"], 1)
        if not close(number(reg["slope"]), float(slope), 1e-8):
            found.append(f"slope {reg['slope']} != np.polyfit {slope}")
        if not close(number(reg["intercept"]), float(intercept), 1e-8):
            found.append(f"intercept {reg['intercept']} != np.polyfit {intercept}")
        return found

"""CSV ingestion, report emission and the command implementations.

All emitted files are plain delimited text or key/value sections,
deterministic byte for byte given identical inputs, seeds and
configuration.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .ccdf import IncomeSample
from .bootstrap import (
    BootstrapSummary,
    INDICATORS,
    fixed_proportion_fit,
    run_validation,
)
from .fitting import FitResult, FitSettings, fit_sample
from .model import TwoClassParams, draw_incomes, model_ccdf
from .objective import FitContext
from .series import (
    IndicatorSeries,
    affine_regression,
    build_series,
    check_deflators,
    pearson,
)

CURVE_POINTS_PER_BRANCH = 500


@dataclass(frozen=True)
class DatasetSpec:
    """Where the data lives and how to slice it."""

    path: str
    income_column: str
    filters: dict[str, str] = field(default_factory=dict)
    stratify_by: str | None = None


@dataclass(eq=False)
class IngestResult:
    sample: IncomeSample
    strata: dict[str, IncomeSample]
    n_rows: int
    n_used: int
    dropped: dict[str, int]
    skipped_strata: dict[str, int]      # category -> incomes, for categories under 2


@contextmanager
def _parsing(path, reader):
    """Yield ``reader``; a csv parser error becomes a ValueError naming the file and line."""
    try:
        yield reader
    except csv.Error as exc:
        # a DictReader counts a line only once it parses; its inner parser counts on reading
        line = getattr(reader, "reader", reader).line_num
        raise ValueError(f"{path}, line {line}: {exc}") from None


def ingest(spec: DatasetSpec) -> IngestResult:
    """Read, clean and optionally stratify an income CSV.

    Rows failing the equality filters are set aside; among the selected
    rows, missing, unparseable, non-finite (``inf``, ``nan``, overflowing
    literals such as ``1e400``) and non-positive incomes are dropped with
    per-reason counts. Retained incomes keep their source values
    exactly. Strata with fewer than 2 incomes are left out and recorded
    in ``skipped_strata``.
    """
    dropped = {"filtered": 0, "missing": 0, "unparseable": 0, "nonfinite": 0,
               "nonpositive": 0}
    incomes: list[float] = []
    labels: list[str] = []
    with (open(spec.path, newline="", encoding="utf-8") as fh,
          _parsing(spec.path, csv.DictReader(fh)) as reader):
        if reader.fieldnames is None or spec.income_column not in reader.fieldnames:
            raise ValueError(f"income column {spec.income_column!r} not found in {spec.path}")
        for col in list(spec.filters) + ([spec.stratify_by] if spec.stratify_by else []):
            if col not in reader.fieldnames:
                raise ValueError(f"column {col!r} not found in {spec.path}")
        n_rows = 0
        for row in reader:
            n_rows += 1
            if any(row[col] != val for col, val in spec.filters.items()):
                dropped["filtered"] += 1
                continue
            raw = (row[spec.income_column] or "").strip()
            if raw == "":
                dropped["missing"] += 1
                continue
            try:
                value = float(raw)
            except ValueError:
                dropped["unparseable"] += 1
                continue
            if not math.isfinite(value):
                dropped["nonfinite"] += 1
                continue
            if not value > 0.0:
                dropped["nonpositive"] += 1
                continue
            incomes.append(value)
            if spec.stratify_by:
                labels.append(row[spec.stratify_by])
    if len(incomes) < 2:
        raise ValueError(f"no usable incomes in {spec.path} "
                         f"(rows read: {n_rows}, dropped: {dropped})")
    sample = IncomeSample(incomes)
    strata: dict[str, IncomeSample] = {}
    skipped: dict[str, int] = {}
    if spec.stratify_by:
        arr = np.asarray(incomes)
        lab = np.asarray(labels)
        for category in sorted(set(labels)):
            vals = arr[lab == category]
            if vals.size >= 2:
                strata[category] = IncomeSample(vals)
            else:
                skipped[category] = int(vals.size)
    return IngestResult(sample, strata, n_rows, len(incomes), dropped, skipped)


def _fmt(value) -> str:
    # float() first: numpy 2 scalars are float subclasses whose repr is np.float64(...)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_sections(path: Path, sections: list[tuple[str, list[tuple[str, object]]]]):
    lines = []
    for title, items in sections:
        lines.append(f"[{title}]")
        for key, value in items:
            lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _settings_items(settings: FitSettings, seed: int) -> list[tuple[str, object]]:
    return [(f.name, getattr(settings, f.name)) for f in fields(settings)] + [("seed", seed)]


def _dataset_items(spec: DatasetSpec, result: IngestResult) -> list[tuple[str, object]]:
    filters = ";".join(f"{c}={v}" for c, v in sorted(spec.filters.items())) or "none"
    return [
        ("path", spec.path),
        ("income_column", spec.income_column),
        ("filters", filters),
        ("stratify_by", spec.stratify_by or "none"),
        ("rows_read", result.n_rows),
        ("incomes_used", result.n_used),
        ("dropped_filtered", result.dropped["filtered"]),
        ("dropped_missing", result.dropped["missing"]),
        ("dropped_unparseable", result.dropped["unparseable"]),
        ("dropped_nonfinite", result.dropped["nonfinite"]),
        ("dropped_nonpositive", result.dropped["nonpositive"]),
    ]


def write_fit_report(path: Path, fit: FitResult, spec: DatasetSpec,
                     ingested: IngestResult):
    sections = [
        ("dataset", _dataset_items(spec, ingested)),
        ("parameters", [
            ("top_fraction", fit.params.lam),
            ("temperature", fit.params.temperature),
            ("pareto_index", fit.params.alpha),
            ("crossover_income", fit.crossover),
            ("search_fraction", fit.point.p),
            ("crossover_clamped", fit.crossover_clamped),
        ]),
        ("gini", [
            ("theoretical", fit.gini_theoretical),
            ("empirical", fit.gini_empirical),
        ]),
        ("loss", [
            ("rmsle", fit.loss.rmsle),
            ("mean_penalty", fit.loss.mean_penalty),
            ("fraction_penalty", fit.loss.fraction_penalty),
            ("total", fit.loss.total),
        ]),
        # per-region values are root mean squares over each region's own
        # class points, split at the crossover (crossover point counts
        # toward the Pareto side)
        ("rmsle_by_region", [
            ("exponential", fit.rmsle_exponential),
            ("exponential_points", fit.n_exponential),
            ("pareto", fit.rmsle_pareto),
            ("pareto_points", fit.n_pareto),
            ("total", fit.loss.rmsle),
        ]),
        ("optimizer", [
            ("initial_best", fit.trace[0] if fit.trace else float("nan")),
            ("final_best", fit.loss.total),
            ("iterations", len(fit.trace) - 2 if len(fit.trace) >= 2 else 0),
        ]),
        ("config", _settings_items(fit.settings, fit.seed)),
    ]
    _write_sections(path, sections)


def write_plot_data(out_dir: Path, fit: FitResult, context: FitContext):
    """Plot-ready files: empirical points, fitted curve, axis markers."""
    points = context.ccdf.class_points
    fractions = context.ccdf.evaluate(points)
    _write_csv(out_dir / "ccdf_points.csv", ["income", "fraction"],
               zip(points.tolist(), fractions.tolist()))

    params = fit.params
    m_c = fit.crossover
    lo = float(context.sample.ascending[0])
    hi = float(context.sample.values[0])
    body = np.geomspace(max(lo, 1e-9), m_c, CURVE_POINTS_PER_BRANCH, endpoint=False)
    tail = np.geomspace(m_c, max(hi, m_c * (1 + 1e-9)), CURVE_POINTS_PER_BRANCH)
    curve = np.concatenate([body, tail])
    branch = ["exponential"] * body.size + ["pareto"] * tail.size
    values = model_ccdf(params, curve)
    _write_csv(out_dir / "model_curve.csv", ["income", "fraction", "branch"],
               zip(curve.tolist(), values.tolist(), branch))

    _write_csv(out_dir / "markers.csv", ["name", "income"],
               [("temperature", params.temperature), ("crossover", m_c)])

    with open(out_dir / "trace.tsv", "w", encoding="utf-8") as fh:
        fh.write("iteration\tbest_loss\tp\talpha\ttemperature\n")
        for i, (val, pt) in enumerate(zip(fit.trace, fit.trace_points)):
            fh.write(f"{i}\t{_fmt(val)}\t{_fmt(pt[0])}\t{_fmt(pt[1])}\t{_fmt(pt[2])}\n")


def cmd_fit(spec: DatasetSpec, out_dir: str | Path,
            settings: FitSettings = FitSettings(), seed: int = 0) -> FitResult:
    """Full pipeline: ingest, build the CCDF, optimize, emit report and plots."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingested = ingest(spec)
    context = FitContext(ingested.sample, settings.k)
    fit = fit_sample(ingested.sample, settings, seed=seed, context=context)
    write_fit_report(out / "report.txt", fit, spec, ingested)
    write_plot_data(out, fit, context)
    return fit


def _summary_sections(summary: BootstrapSummary, settings: FitSettings,
                      seed: int) -> list[tuple[str, list[tuple[str, object]]]]:
    sections = [("replicas", [
        ("requested", summary.n_requested),
        ("effective", summary.n_effective),
    ])]
    for name in INDICATORS:
        if name not in summary.stats:
            continue
        s = summary.stats[name]
        sections.append((name, [
            ("mean", s.mean),
            ("std", s.std),
            ("ci_low", s.ci_low),
            ("ci_high", s.ci_high),
            ("cv", s.cv),
        ]))
    sections.append(("config", _settings_items(settings, seed)))
    return sections


def _write_bootstrap_outputs(out: Path, prefix: str, summary: BootstrapSummary,
                             settings: FitSettings, seed: int):
    name = f"summary_{prefix}.txt" if prefix else "summary.txt"
    _write_sections(out / name, _summary_sections(summary, settings, seed))
    rows = [(r.seed, r.crossover, r.top_fraction, r.temperature,
             r.pareto_index, r.gini, r.train_rmsle, r.test_rmsle)
            for r in summary.replicas]
    name = f"replicas_{prefix}.csv" if prefix else "replicas.csv"
    _write_csv(out / name, ["seed"] + list(INDICATORS), rows)


def cmd_bootstrap(spec: DatasetSpec, n_replicas: int, out_dir: str | Path,
                  settings: FitSettings = FitSettings(),
                  seed: int = 0) -> dict[str, BootstrapSummary]:
    """Bootstrap validation of the whole sample and of each stratum.

    A stratum with fewer than 2 incomes is skipped with one printed line.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingested = ingest(spec)
    summaries: dict[str, BootstrapSummary] = {}
    for category, count in ingested.skipped_strata.items():
        print(f"{category}: skipped, {count} income(s), need at least 2")
    if spec.stratify_by:
        for category, sub in sorted(ingested.strata.items()):
            summary = run_validation(sub, n_replicas, settings, seed=seed)
            summaries[category] = summary
            _write_bootstrap_outputs(out, category, summary, settings, seed)
    else:
        summary = run_validation(ingested.sample, n_replicas, settings, seed=seed)
        summaries["all"] = summary
        _write_bootstrap_outputs(out, "", summary, settings, seed)
    return summaries


def cmd_baseline(spec: DatasetSpec, lam0: float, out_dir: str | Path,
                 settings: FitSettings = FitSettings(), seed: int = 0):
    """Optimal fit versus fixed-proportion baseline on the same data."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingested = ingest(spec)
    fit = fit_sample(ingested.sample, settings, seed=seed)
    base = fixed_proportion_fit(ingested.sample, lam0, settings.k,
                                (settings.alpha_min, settings.alpha_max))
    _write_sections(out / "baseline.txt", [
        ("optimal", [
            ("top_fraction", fit.params.lam),
            ("temperature", fit.params.temperature),
            ("pareto_index", fit.params.alpha),
            ("crossover_income", fit.crossover),
            ("train_rmsle", fit.loss.rmsle),
        ]),
        ("fixed_proportion", [
            ("top_fraction", base.top_fraction),
            ("temperature", base.temperature),
            ("pareto_index", base.pareto_index),
            ("crossover_income", base.crossover),
            ("train_rmsle", base.train_rmsle),
        ]),
        ("config", _settings_items(settings, seed)),
    ])
    return fit, base


def read_deflators(path: str | Path) -> dict[int, float]:
    """Two-column CSV (year, index value) to a mapping; each year once."""
    deflators: dict[int, float] = {}
    with (open(path, newline="", encoding="utf-8") as fh,
          _parsing(path, csv.reader(fh)) as reader):
        header = next(reader, None)
        if header is None:
            raise ValueError(f"deflator file {path} is empty")
        if len(header) < 2:
            raise ValueError(f"deflator file {path} needs two columns (year, index)")
        for row in reader:
            if not row or not row[0].strip():
                continue
            try:
                year, index = int(row[0]), float(row[1])
            except (IndexError, ValueError):
                raise ValueError(f"deflator file {path}: row {row} needs an integer "
                                 "year and a numeric index") from None
            if year in deflators:
                raise ValueError(f"deflator file {path}: duplicate year {year}")
            deflators[year] = index
    return deflators


def cmd_series(specs_by_year: dict[int, DatasetSpec], deflator_path: str | Path,
               reference_year: int, out_dir: str | Path,
               settings: FitSettings = FitSettings(),
               seed: int = 0) -> IndicatorSeries:
    """Per-year fits, deflation, correlations and regression outputs."""
    if len(specs_by_year) < 3:
        raise ValueError(f"need at least 3 years for correlations, got {len(specs_by_year)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deflators = read_deflators(deflator_path)
    check_deflators(deflators, specs_by_year, reference_year)
    samples = {year: ingest(spec).sample for year, spec in sorted(specs_by_year.items())}
    series = build_series(samples, deflators, reference_year, settings, seed=seed)

    _write_csv(out / "series.csv",
               ["year", "top_fraction", "temperature", "temperature_deflated",
                "pareto_index", "crossover", "crossover_deflated",
                "gini_theoretical", "gini_empirical"],
               [(r.year, r.top_fraction, r.temperature, r.temperature_deflated,
                 r.pareto_index, r.crossover, r.crossover_deflated,
                 r.gini_theoretical, r.gini_empirical) for r in series.records])

    lam = series.column("top_fraction")
    alpha = series.column("pareto_index")
    g_theo = series.column("gini_theoretical")
    g_emp = series.column("gini_empirical")
    corr_tail = pearson(lam, alpha, seed=seed)
    corr_gini = pearson(g_theo, g_emp, seed=seed)
    _write_sections(out / "correlations.txt", [
        ("pareto_index_vs_top_fraction", [
            ("rho", corr_tail.rho), ("rho_std", corr_tail.rho_std),
            ("p_value", corr_tail.p_value), ("n", corr_tail.n),
        ]),
        ("empirical_vs_theoretical_gini", [
            ("rho", corr_gini.rho), ("rho_std", corr_gini.rho_std),
            ("p_value", corr_gini.p_value), ("n", corr_gini.n),
        ]),
        ("config", _settings_items(settings, seed)),
    ])

    reg = affine_regression(g_theo, g_emp)
    _write_sections(out / "regression.txt", [
        ("empirical_gini_on_theoretical_gini", [
            ("slope", reg.slope), ("slope_se", reg.slope_se),
            ("intercept", reg.intercept), ("intercept_se", reg.intercept_se),
            ("residual_se", reg.residual_se),
            ("rho", reg.rho), ("p_value", reg.p_value), ("n", reg.n),
        ]),
        ("config", _settings_items(settings, seed)),
    ])

    _write_csv(out / "gini_pair.csv", ["gini_theoretical", "gini_empirical"],
               zip(g_theo.tolist(), g_emp.tolist()))
    _write_csv(out / "tail_pair.csv", ["top_fraction", "pareto_index"],
               zip(lam.tolist(), alpha.tolist()))
    return series


def cmd_synth(params: TwoClassParams, n: int, seed: int, out_path: str | Path) -> Path:
    """Write n model draws as a single-column income CSV."""
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    values = draw_incomes(params, n, seed)
    out = Path(out_path)
    if out.parent and not out.parent.exists():
        raise ValueError(f"output directory does not exist: {out.parent}")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["income"])
        for v in values:
            writer.writerow([repr(float(v))])
    return out

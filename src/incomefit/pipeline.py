"""CSV ingestion, report emission and the command implementations.

All emitted files are plain delimited text or key/value sections,
deterministic byte for byte given identical inputs, seeds and
configuration.
"""

from __future__ import annotations

import codecs
import csv
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from operator import itemgetter
from pathlib import Path

import numpy as np

from ._pool import map_in_order
from .ccdf import IncomeSample, build_ccdf
from .bootstrap import (
    MIN_INCOMES,
    BootstrapSummary,
    ReplicaRecord,
    fixed_proportion_fit,
    run_validation,
)
from .fitting import ALPHA_MIN, FitResult, FitSettings, fit_sample
from .model import TwoClassParams, draw_incomes, model_ccdf
from .series import (
    IndicatorSeries,
    YearRecord,
    affine_regression,
    build_series,
    check_deflators,
    pearson,
)

CURVE_POINTS_PER_BRANCH = 500
DROP_REASONS = ("filtered", "missing", "unparseable", "nonfinite", "nonpositive")
# bytes of whole lines split at once by the numpy reader: the index arrays of a
# block are several times its size
BLOCK_BYTES = 1 << 18


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
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None


def _locate_columns(spec: DatasetSpec, header: list[str] | None) -> dict[str, int]:
    """The header index of each column the spec uses, checked once."""
    if header is None or spec.income_column not in header:
        raise ValueError(f"income column {spec.income_column!r} not found in {spec.path}")
    others = list(spec.filters) + ([spec.stratify_by] if spec.stratify_by else [])
    for col in others:
        if col not in header:
            raise ValueError(f"column {col!r} not found in {spec.path}")
    used = [spec.income_column, *others]
    for col in used:
        if header.count(col) > 1:
            raise ValueError(f"column {col!r} appears {header.count(col)} times "
                             f"in the header of {spec.path}")
    return {col: header.index(col) for col in used}


def _read_rows(spec: DatasetSpec):
    """Rows read, drop counts, incomes and labels of any file, row by row with ``csv.reader``."""
    dropped = dict.fromkeys(DROP_REASONS, 0)
    incomes: list[float] = []
    labels: list[str] = []
    n_rows = 0
    with (open(spec.path, newline="", encoding="utf-8-sig") as fh,
          _parsing(spec.path, csv.reader(fh)) as reader):
        at = _locate_columns(spec, next(reader, None))
        income = at[spec.income_column]
        stratum = at[spec.stratify_by] if spec.stratify_by else None
        width = max(at.values()) + 1
        wanted = tuple(spec.filters.values())
        filter_key = itemgetter(*(at[col] for col in spec.filters)) if wanted else None
        if len(wanted) == 1:    # an itemgetter of one index gives that field, not a 1-tuple
            wanted = wanted[0]
        for row in reader:
            if not row:
                continue
            n_rows += 1
            if len(row) < width:
                row += [None] * (width - len(row))
            if filter_key is not None and filter_key(row) != wanted:
                dropped["filtered"] += 1
                continue
            raw = (row[income] or "").strip()
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
            if stratum is not None:
                if row[stratum] is None:
                    raise ValueError(f"{spec.path}, line {reader.line_num}: "
                                     f"no value in column {spec.stratify_by!r}")
                labels.append(row[stratum])
    return n_rows, dropped, incomes, labels


def _slices(block: bytes, starts: np.ndarray, ends: np.ndarray) -> list[bytes]:
    """``block[start:end]`` for each pair of offsets."""
    return [block[a:b] for a, b in zip(starts.tolist(), ends.tolist())]


def _split_clean(spec: DatasetSpec):
    """What ``_read_rows`` returns, split with numpy, for a clean file; ``None`` for any other.

    A clean file holds no quote, carriage return, NUL or blank line,
    decodes as UTF-8, holds the header's field count in every row and no
    field longer than ``csv.field_size_limit()``, and ``float()`` accepts
    the bytes of every selected income that is not all spaces. The csv
    module splits such a file at every comma and newline, so both readers
    see the same fields, and an income whose bytes ``float()`` accepts is
    the value the row loop reads from its stripped text. The rows go
    through in blocks of whole lines: the index arrays of a whole file at
    once would take several times the memory of the file.
    """
    with open(spec.path, "rb") as fh:
        data = fh.read()
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if (start == len(data) or data.startswith(b"\n", start)
            or any(bad in data for bad in (b'"', b"\r", b"\0"))):
        return None
    if not data.isascii():
        try:
            data.decode("utf-8-sig")
        except UnicodeDecodeError:
            return None
    pos = data.find(b"\n", start) + 1 or len(data)
    header = data[start:pos].rstrip(b"\n").decode().split(",")
    limit = csv.field_size_limit()
    if max(map(len, header)) > limit:
        return None
    at = _locate_columns(spec, header)
    income = at[spec.income_column]
    stratum = at[spec.stratify_by] if spec.stratify_by else None
    # a filter value that cannot be UTF-8 (a lone surrogate) gets bytes no valid file holds
    filters = [(at[col], value.encode("utf-8", "surrogatepass"))
               for col, value in spec.filters.items()]
    width = len(header)
    dropped = dict.fromkeys(DROP_REASONS, 0)
    incomes = [np.empty(0)]
    labels: list[str] = []
    n_rows = 0
    while pos < len(data):
        stop = data.find(b"\n", min(pos + BLOCK_BYTES, len(data)) - 1) + 1 or len(data)
        block = data[pos:stop]
        pos = stop
        if not block.endswith(b"\n"):     # the last line, without its newline
            block += b"\n"
        buf = np.frombuffer(block, np.uint8)
        seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
        rows = seps.size // width
        newline = buf[seps] == ord("\n")
        if (seps.size != rows * width or np.count_nonzero(newline) != rows
                or not newline[width - 1::width].all()):
            return None
        ends = seps.reshape(rows, width)
        starts = np.empty_like(ends)
        starts.flat[0] = 0
        starts.flat[1:] = seps[:-1] + 1
        lengths = ends - starts
        # a blank line is a row of one empty field
        if lengths.max() > limit or not (ends[:, -1] > starts[:, 0]).all():
            return None
        keep = np.ones(rows, bool)
        for col, value in filters:
            keep &= lengths[:, col] == len(value)
            first = starts[keep, col]
            same = np.ones(first.size, bool)
            for offset, byte in enumerate(value):
                same &= buf[first + offset] == byte
            keep[keep] = same
        picked = np.flatnonzero(keep)
        first, last = starts[picked, income], ends[picked, income]
        # a field not all spaces holds a byte other than a space in [first, last)
        present = (last > first) & np.logical_or.reduceat(
            buf != ord(" "), np.stack((first, last), 1).ravel())[::2]
        try:
            values = np.fromiter(map(float, _slices(block, first[present], last[present])),
                                 float, np.count_nonzero(present))
        except ValueError:
            return None
        finite = np.isfinite(values)
        usable = finite & (values > 0.0)
        n_rows += rows
        dropped["filtered"] += rows - picked.size
        dropped["missing"] += picked.size - values.size
        dropped["nonfinite"] += values.size - int(np.count_nonzero(finite))
        dropped["nonpositive"] += int(np.count_nonzero(finite) - np.count_nonzero(usable))
        incomes.append(values[usable])
        if stratum is not None:
            used = picked[present][usable]
            labels += map(bytes.decode, _slices(block, starts[used, stratum],
                                                ends[used, stratum]))
    return n_rows, dropped, np.concatenate(incomes), labels


def ingest(spec: DatasetSpec) -> IngestResult:
    """Read, clean and optionally stratify an income CSV.

    Rows failing the equality filters are set aside; among the selected
    rows, missing, unparseable, non-finite (``inf``, ``nan``, overflowing
    literals such as ``1e400``) and non-positive incomes are dropped with
    per-reason counts. Retained incomes keep their source values
    exactly. Strata with fewer than 2 incomes are left out and recorded
    in ``skipped_strata``. Blank lines are skipped without counting, a
    row too short to hold a used column reads ``None`` there, a leading
    UTF-8 byte-order mark is ignored, and a header naming a used column
    twice is rejected. A clean file is split with numpy; any other is
    read again as text, row by row with ``csv.reader``, which goes faster
    over a file than over the bytes already read. Both give the same
    result.
    """
    n_rows, dropped, incomes, labels = _split_clean(spec) or _read_rows(spec)
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


def _write_records(path: Path, cls, records):
    """One header row from the fields of dataclass ``cls``, then one row per record."""
    _write_csv(path, [f.name for f in fields(cls)], map(astuple, records))


def _items(record) -> list[tuple[str, object]]:
    """A dataclass's (field name, value) pairs, in field order."""
    return [(f.name, getattr(record, f.name)) for f in fields(record)]


def _settings_items(settings: FitSettings, seed: int) -> list[tuple[str, object]]:
    return _items(settings) + [("seed", seed)]


def _model_items(lam, temperature, alpha, crossover) -> list[tuple[str, object]]:
    return [("top_fraction", lam), ("temperature", temperature),
            ("pareto_index", alpha), ("crossover_income", crossover)]


def _dataset_items(spec: DatasetSpec, result: IngestResult) -> list[tuple[str, object]]:
    filters = ";".join(f"{c}={v}" for c, v in sorted(spec.filters.items())) or "none"
    return [
        ("path", spec.path),
        ("income_column", spec.income_column),
        ("filters", filters),
        ("stratify_by", spec.stratify_by or "none"),
        ("rows_read", result.n_rows),
        ("incomes_used", result.n_used),
    ] + [(f"dropped_{reason}", count) for reason, count in result.dropped.items()]


def write_fit_report(path: Path, fit: FitResult, spec: DatasetSpec,
                     ingested: IngestResult):
    sections = [
        ("dataset", _dataset_items(spec, ingested)),
        ("parameters", _model_items(fit.params.lam, fit.params.temperature,
                                    fit.params.alpha, fit.crossover) + [
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
            ("final_best", fit.trace[-1] if fit.trace else float("nan")),
            ("iterations", len(fit.trace) - 2 if len(fit.trace) >= 2 else 0),
        ]),
        ("config", _settings_items(fit.settings, fit.seed)),
    ]
    _write_sections(path, sections)


def write_plot_data(out_dir: Path, fit: FitResult, sample: IncomeSample):
    """Plot-ready files: empirical points, fitted curve, axis markers."""
    ccdf = build_ccdf(sample, fit.settings.k)
    points = ccdf.class_points
    fractions = ccdf.evaluate(points)
    _write_csv(out_dir / "ccdf_points.csv", ["income", "fraction"],
               zip(points.tolist(), fractions.tolist()))

    params = fit.params
    m_c = fit.crossover
    lo = float(sample.ascending[0])
    hi = float(sample.values[0])
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
    fit = fit_sample(ingested.sample, settings, seed=seed)
    write_fit_report(out / "report.txt", fit, spec, ingested)
    write_plot_data(out, fit, ingested.sample)
    return fit


def _summary_sections(summary: BootstrapSummary, settings: FitSettings,
                      seed: int) -> list[tuple[str, list[tuple[str, object]]]]:
    sections = [("replicas", [
        ("requested", summary.n_requested),
        ("effective", summary.n_effective),
    ])]
    sections += [(name, _items(stats)) for name, stats in summary.stats.items()]
    sections.append(("config", _settings_items(settings, seed)))
    return sections


def cmd_bootstrap(spec: DatasetSpec, n_replicas: int, out_dir: str | Path,
                  settings: FitSettings = FitSettings(),
                  seed: int = 0) -> dict[str, BootstrapSummary]:
    """Bootstrap validation of the whole sample and of each stratum.

    A stratum with fewer than ``MIN_INCOMES`` incomes, too few to leave 2
    out of bag, is skipped with one printed line, in category order; a
    category holding a path separator, or strata none of which holds
    ``MIN_INCOMES`` incomes, are rejected before any fit.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingested = ingest(spec)
    separators = {"/", os.sep, os.altsep} - {None}
    for category in ingested.strata:
        if separators & set(category):
            raise ValueError(f"--stratify-by category {category!r} holds a path separator")
    groups = [("all", ingested.sample)]
    if spec.stratify_by:
        sizes = ingested.skipped_strata | {c: s.n for c, s in ingested.strata.items()}
        if max(sizes.values()) < MIN_INCOMES:
            raise ValueError(f"no --stratify-by category holds at least {MIN_INCOMES} "
                             f"incomes: {dict(sorted(sizes.items()))}")
        groups = []
        for category in sorted(sizes):
            if sizes[category] >= MIN_INCOMES:
                groups.append((category, ingested.strata[category]))
            else:
                print(f"{category}: skipped, {sizes[category]} income(s), "
                      f"need at least {MIN_INCOMES}")
    summaries: dict[str, BootstrapSummary] = {}
    for category, sub in groups:
        summary = summaries[category] = run_validation(sub, n_replicas, settings, seed=seed)
        suffix = f"_{category}" if spec.stratify_by else ""
        _write_sections(out / f"summary{suffix}.txt",
                        _summary_sections(summary, settings, seed))
        _write_records(out / f"replicas{suffix}.csv", ReplicaRecord, summary.replicas)
    return summaries


def cmd_baseline(spec: DatasetSpec, lam0: float, out_dir: str | Path,
                 settings: FitSettings = FitSettings(), seed: int = 0):
    """Optimal fit versus fixed-proportion baseline on the same data."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingested = ingest(spec)
    fit = fit_sample(ingested.sample, settings, seed=seed)
    base = fixed_proportion_fit(ingested.sample, lam0, settings.k,
                                (ALPHA_MIN, settings.alpha_max))
    _write_sections(out / "baseline.txt", [
        ("optimal", _model_items(fit.params.lam, fit.params.temperature,
                                 fit.params.alpha, fit.crossover)
         + [("train_rmsle", fit.loss.rmsle)]),
        ("fixed_proportion", _model_items(base.top_fraction, base.temperature,
                                          base.pareto_index, base.crossover)
         + [("train_rmsle", base.train_rmsle)]),
        ("config", _settings_items(settings, seed)),
    ])
    return fit, base


def read_deflators(path: str | Path) -> dict[int, float]:
    """Two-column CSV (year, index value) to a mapping; each year once.

    A leading UTF-8 byte-order mark is ignored.
    """
    deflators: dict[int, float] = {}
    with (open(path, newline="", encoding="utf-8-sig") as fh,
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


def _read_sample(shared: None, spec: DatasetSpec) -> IncomeSample:
    """One year's cleaned incomes, read on a worker."""
    return ingest(spec).sample


def cmd_series(specs_by_year: dict[int, DatasetSpec], deflator_path: str | Path,
               reference_year: int, out_dir: str | Path,
               settings: FitSettings = FitSettings(),
               seed: int = 0) -> IndicatorSeries:
    """Per-year fits, deflation, correlations and regression outputs.

    The deflators are checked first. Every year is then read on worker
    processes, and the samples are fitted by ``build_series``. A read
    error so comes before any fit, and the earliest year's error first.
    """
    if len(specs_by_year) < 3:
        raise ValueError(f"need at least 3 years for correlations, got {len(specs_by_year)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deflators = read_deflators(deflator_path)
    check_deflators(deflators, specs_by_year, reference_year)
    years = sorted(specs_by_year)
    samples = map_in_order(_read_sample, [specs_by_year[year] for year in years], None)
    series = build_series(dict(zip(years, samples)), deflators, reference_year, settings, seed)

    _write_records(out / "series.csv", YearRecord, series.records)

    lam = series.column("top_fraction")
    alpha = series.column("pareto_index")
    g_theo = series.column("gini_theoretical")
    g_emp = series.column("gini_empirical")
    _write_sections(out / "correlations.txt", [
        ("pareto_index_vs_top_fraction", _items(pearson(lam, alpha, seed=seed))),
        ("empirical_vs_theoretical_gini", _items(pearson(g_theo, g_emp, seed=seed))),
        ("config", _settings_items(settings, seed)),
    ])
    _write_sections(out / "regression.txt", [
        ("empirical_gini_on_theoretical_gini", _items(affine_regression(g_theo, g_emp))),
        ("config", _settings_items(settings, seed)),
    ])

    _write_csv(out / "gini_pair.csv", ["gini_theoretical", "gini_empirical"],
               zip(g_theo.tolist(), g_emp.tolist()))
    _write_csv(out / "tail_pair.csv", ["top_fraction", "pareto_index"],
               zip(lam.tolist(), alpha.tolist()))
    return series


def cmd_synth(params: TwoClassParams, n: int, seed: int, out_path: str | Path) -> Path:
    """Write n model draws as a single-column income CSV."""
    values = draw_incomes(params, n, seed)
    out = Path(out_path)
    if out.parent and not out.parent.exists():
        raise ValueError(f"output directory does not exist: {out.parent}")
    _write_csv(out, ["income"], zip(values.tolist()))
    return out

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
    strata: dict[str, np.ndarray]       # category -> its used incomes, in category order
    n_rows: int
    dropped: dict[str, int]


@contextmanager
def _parsing(path, reader):
    """Yield ``reader``; a csv parser error or bad UTF-8 becomes a ValueError naming the file."""
    try:
        yield reader
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # no line: the text layer decodes ahead of the parser, so line_num is not the bad one
        raise ValueError(f"{path} is not valid UTF-8") from None


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


# _decimals reads each field from the 24 bytes that end where it ends, as 3 words
DECIMAL_BYTES = 19      # the longest field it parses: a uint64 holds every 19-digit integer
_WINDOW = 24
_DOT = ord(".") ^ ord("0")
# bits of each window word that lie before a field of n bytes: [n, word]
_BEFORE_BITS = np.array([[8 * min(max(_WINDOW - 8 * w - n, 0), 8) for w in range(3)]
                         for n in range(_WINDOW + 1)], np.uint64)
# fraction digits + 1 of a dot at window byte 8w + i, by the float64 exponent field of
# its flag bit 8i + w; 0 for no dot, or for a dot outside the last DECIMAL_BYTES bytes.
# A row count and argmax of the (n, 24) dot mask give the same, but made _decimals
# 1.30-1.60 against 0.92-1.18 ms on a 256 KB block's 7656 fields (2-core x86-64, one
# thread): about 4 ms of a filtered series file's 20-25 ms ingest.
_DOT_POWER = np.zeros(1023 + 64, np.intp)
for _w in range(3):
    for _i in range(max(_WINDOW - DECIMAL_BYTES - 8 * _w, 0), 8):
        _DOT_POWER[1023 + 8 * _i + _w] = _WINDOW - 8 * _w - _i
_TENS = np.array([10 ** e for e in range(DECIMAL_BYTES + 1)], np.uint64)
_LONG_TENS = _TENS.astype(np.longdouble)


def _decimals(block: bytes, first: np.ndarray, last: np.ndarray):
    """Each field ``block[a:b]`` as ``float()`` reads it where numpy parses it, and a mask of those.

    numpy parses a field of 1 to ``DECIMAL_BYTES`` bytes, each an ASCII digit
    but for at most one dot, holding a digit. Its digits make an integer
    S < 10**19 and its fraction digits a count k, and S / 10**k is divided once
    in long double, where both are exact, then rounded to float64. Rounding
    twice gives ``float()``'s value unless the long double quotient lies on a
    float64 midpoint, so such a field is left out. The values of the fields left
    out are undefined. The caller checks ``_LONG_DOUBLE_EXACT`` first.
    """
    lengths = last - first
    padded = bytes(_WINDOW) + block         # window j holds block[j - 24:j], zeros before it
    windows = np.ndarray((len(block) + 1,), f"V{_WINDOW}", padded, 0, (1,))
    words = windows[last].view(np.uint64).reshape(-1, 3)
    chars = words.view(np.uint8)
    chars ^= ord("0")                       # a digit to its value, a dot to _DOT
    before = np.take(_BEFORE_BITS, np.minimum(lengths, _WINDOW), axis=0)
    words >>= before                        # and the bytes before the field to 0
    words <<= before
    dot = chars == _DOT
    bad = ((chars > 9) != dot).view(np.uint64)
    dots = dot.view(np.uint64)              # 1 in each dot byte
    words ^= dots * np.uint64(_DOT)         # each dot to a 0
    flags = dots[:, 0] | (dots[:, 1] << np.uint64(1)) | (dots[:, 2] << np.uint64(2))
    parsed = ((lengths <= DECIMAL_BYTES) & ((bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0)
              & ((flags & (flags - np.uint64(1))) == 0) & (lengths > (flags != 0)))
    power = np.take(_DOT_POWER, flags.astype(np.float64).view(np.uint64) >> np.uint64(52))
    # each word's 8 digits to their value: pairs, then fours, then all eight
    for bits, scale, mask in ((8, 10, 0x00FF00FF00FF00FF), (16, 100, 0x0000FFFF0000FFFF),
                              (32, 10000, 0xFFFFFFFF)):
        words = words * np.uint64(scale) + (words >> np.uint64(bits))
        words &= np.uint64(mask)
    # the digits with the dot read as a 0 are 10**(k+1) H + R for S = 10**k H + R: so 10 S
    digits = (words[:, 0] * np.uint64(10 ** 8) + words[:, 1]) * np.uint64(10 ** 8) + words[:, 2]
    digits += np.uint64(9) * (digits % _TENS[power])
    quotient = digits.astype(np.longdouble) / _LONG_TENS[power]
    # on a float64 midpoint the low 11 of the 64 significand bits read 0x400
    parsed &= (quotient.view(np.uint64)[::2] & np.uint64(0x7FF)) != np.uint64(0x400)
    return quotient.astype(np.float64), parsed


def _long_double_is_exact() -> bool:
    """Whether ``_decimals`` gives ``float()``'s value here: true where long double is the
    x87 format in 16 bytes, with its 64-bit significand first, and divides to 64 bits."""
    if np.finfo(np.longdouble).nmant != 63 or np.dtype(np.longdouble).itemsize != 16:
        return False
    # a 53-bit long double division misreads the first two; the third is a midpoint
    fields = [b"3701652.09199425772", b"8132021.3161695995", b"9007199254740993",
              b"9999999999999999999", b"0.1", b"5."]
    block = b",".join(fields)
    last = np.cumsum([len(f) + 1 for f in fields]) - 1
    values, parsed = _decimals(block, last - [len(f) for f in fields], last)
    return (parsed.tolist() == [True, True, False, True, True, True]
            and values[parsed].tolist() == [float(f) for f in fields if f != fields[2]])


_LONG_DOUBLE_EXACT = _long_double_is_exact()


def _split_clean(spec: DatasetSpec):
    """What ``_read_rows`` returns, split with numpy, for a clean file; ``None`` for any other.

    A clean file holds no quote, carriage return, NUL or blank line,
    decodes as UTF-8, holds the header's field count in every row and no
    field longer than ``csv.field_size_limit()``, and ``float()`` accepts
    the bytes of every selected income that is not all spaces. The csv
    module splits such a file at every comma and newline, so both readers
    see the same fields. ``_decimals`` parses the plain decimal incomes and
    ``float()`` the others, and either gives the value the row loop reads
    from the stripped text. The rows go through in blocks of whole lines:
    the index arrays of a whole file at once would take several times the
    memory of the file.
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
        newline = buf == ord("\n")
        seps = np.flatnonzero(newline | (buf == ord(",")))
        rows = int(np.count_nonzero(newline))
        # every width-th separator a newline, and no other: width - 1 commas on each line
        if seps.size != rows * width or not (buf[seps[width - 1::width]] == ord("\n")).all():
            return None
        ends = seps.reshape(rows, width)
        starts = np.empty_like(ends)
        starts.flat[0] = 0
        np.add(seps[:-1], 1, out=starts.reshape(-1)[1:])   # 20 times faster than .flat[1:] =
        lengths = ends - starts
        # a blank line is a row of one empty field
        if lengths.max() > limit or not (ends[:, -1] > starts[:, 0]).all():
            return None
        keep = np.ones(rows, bool)
        for col, value in filters:
            keep &= lengths[:, col] == len(value)
            picked = np.flatnonzero(keep)
            first = starts[picked, col]
            same = np.ones(picked.size, bool)
            for offset, byte in enumerate(value):
                same &= buf[first + offset] == byte
            keep[picked] = same
        picked = np.flatnonzero(keep)
        first, last = starts[picked, income], ends[picked, income]
        values, parsed = (_decimals(block, first, last) if _LONG_DOUBLE_EXACT
                          else (np.empty(picked.size), np.zeros(picked.size, bool)))
        # the rest go to float(); one of spaces alone is missing
        rest = np.flatnonzero(~parsed)
        texts = [text.strip(b" ") for text in _slices(block, first[rest], last[rest])]
        try:
            values[rest] = [float(text) if text else 0.0 for text in texts]
        except ValueError:
            return None
        present = np.ones(picked.size, bool)
        present[rest] = list(map(bool, texts))
        values = values[present]
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
    exactly. With a stratify column, ``strata`` holds the used incomes
    of every category, however few: callers decide which to fit. Blank
    lines are skipped without counting, a row too short to hold a used
    column reads ``None`` there, a leading UTF-8 byte-order mark is
    ignored, and a header naming a used column twice is rejected. A
    clean file is split with numpy, which also parses each income of at
    most ``DECIMAL_BYTES`` bytes, all ASCII digits but for at most one dot;
    every other income goes to ``float()``. Any other file is read again
    as text, row by row with ``csv.reader``, which goes faster over a file
    than over the bytes already read. Both give the same result.
    """
    n_rows, dropped, incomes, labels = _split_clean(spec) or _read_rows(spec)
    if len(incomes) < 2:
        raise ValueError(f"no usable incomes in {spec.path} "
                         f"(rows read: {n_rows}, dropped: {dropped})")
    strata: dict[str, np.ndarray] = {}
    if spec.stratify_by:
        # codes, not a numpy str array: that drops trailing NULs, merging "a" and "a\0"
        codes = {category: i for i, category in enumerate(sorted(set(labels)))}
        code = np.fromiter(map(codes.__getitem__, labels), np.intp, len(labels))
        arr = np.asarray(incomes)
        strata = {category: arr[code == i] for category, i in codes.items()}
    return IngestResult(IncomeSample(incomes), strata, n_rows, dropped)


def _fmt(value) -> str:
    # float() first: numpy 2 scalars are float subclasses whose repr is np.float64(...)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_sections(path: Path, sections: list[tuple[str, list[tuple[str, object]]]],
                    settings: FitSettings, seed: int):
    """Key/value sections, then a ``config`` section echoing the settings and seed."""
    lines = []
    for title, items in [*sections, ("config", _items(settings) + [("seed", seed)])]:
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
        ("incomes_used", result.sample.n),
    ] + [(f"dropped_{reason}", count) for reason, count in result.dropped.items()]


def write_fit_report(path: Path, fit: FitResult, spec: DatasetSpec,
                     ingested: IngestResult, settings: FitSettings, seed: int):
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
            ("initial_best", fit.trace[0]),
            ("final_best", fit.trace[-1]),
            ("iterations", len(fit.trace) - 2),
        ]),
    ]
    _write_sections(path, sections, settings, seed)


def write_plot_data(out_dir: Path, fit: FitResult, sample: IncomeSample, k: int):
    """Plot-ready files: empirical CCDF at ``k`` class points, fitted curve, axis markers."""
    ccdf = build_ccdf(sample, k)
    points = ccdf.class_points
    fractions = ccdf.evaluate(points)
    _write_csv(out_dir / "ccdf_points.csv", ["income", "fraction"],
               zip(points.tolist(), fractions.tolist()))

    params = fit.params
    m_c = fit.crossover
    lo = float(sample.ascending[0])
    hi = float(sample.values[0])
    body = np.geomspace(lo, m_c, CURVE_POINTS_PER_BRANCH, endpoint=False)
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
    write_fit_report(out / "report.txt", fit, spec, ingested, settings, seed)
    write_plot_data(out, fit, ingested.sample, settings.k)
    return fit


def cmd_bootstrap(spec: DatasetSpec, n_replicas: int, out_dir: str | Path,
                  settings: FitSettings = FitSettings(),
                  seed: int = 0) -> dict[str, BootstrapSummary]:
    """Bootstrap validation of the whole sample and of each stratum.

    A stratum with fewer than ``MIN_INCOMES`` incomes, too few to leave 2
    out of bag, is skipped with one printed line, in category order.
    Strata none of which holds ``MIN_INCOMES`` incomes, or a fitted
    category holding a path separator or NUL (it names output files), are
    rejected before any fit.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingested = ingest(spec)
    groups = [("all", ingested.sample)]
    if spec.stratify_by:
        fitted = {c: v for c, v in ingested.strata.items() if v.size >= MIN_INCOMES}
        if not fitted:
            sizes = {c: v.size for c, v in ingested.strata.items()}
            raise ValueError(f"no --stratify-by category holds at least {MIN_INCOMES} "
                             f"incomes: {sizes}")
        unsafe = {"/", os.sep, os.altsep, "\0"} - {None}
        for category in fitted:
            if unsafe & set(category):
                raise ValueError(f"--stratify-by category {category!r} holds a path "
                                 "separator or NUL")
        for category, incomes in ingested.strata.items():
            if category not in fitted:
                print(f"{category}: skipped, {incomes.size} income(s), "
                      f"need at least {MIN_INCOMES}")
        groups = [(c, IncomeSample(v)) for c, v in fitted.items()]
    summaries: dict[str, BootstrapSummary] = {}
    for category, sub in groups:
        summary = summaries[category] = run_validation(sub, n_replicas, settings, seed=seed)
        suffix = f"_{category}" if spec.stratify_by else ""
        _write_sections(out / f"summary{suffix}.txt", [
            ("replicas", [("requested", summary.n_requested),
                          ("effective", summary.n_effective)]),
            *[(name, _items(stats)) for name, stats in summary.stats.items()],
        ], settings, seed)
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
    ], settings, seed)
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
               seed: int = 0) -> list[YearRecord]:
    """Per-year fits, deflation, correlations and regression outputs.

    The deflators are checked first. Every year is then read on worker
    processes, and ``build_series`` fits the samples in groups of
    consecutive years. A read error so comes before any fit, and the
    earliest year's error first.
    """
    if len(specs_by_year) < 3:
        raise ValueError(f"need at least 3 years for correlations, got {len(specs_by_year)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deflators = read_deflators(deflator_path)
    check_deflators(deflators, specs_by_year, reference_year)
    years = sorted(specs_by_year)
    samples = map_in_order(_read_sample, [specs_by_year[year] for year in years], None)
    records = build_series(dict(zip(years, samples)), deflators, reference_year, settings, seed)

    _write_records(out / "series.csv", YearRecord, records)

    lam = [r.top_fraction for r in records]
    alpha = [r.pareto_index for r in records]
    g_theo = [r.gini_theoretical for r in records]
    g_emp = [r.gini_empirical for r in records]
    _write_sections(out / "correlations.txt", [
        ("pareto_index_vs_top_fraction", _items(pearson(lam, alpha, seed=seed))),
        ("empirical_vs_theoretical_gini", _items(pearson(g_theo, g_emp, seed=seed))),
    ], settings, seed)
    _write_sections(out / "regression.txt", [
        ("empirical_gini_on_theoretical_gini", _items(affine_regression(g_theo, g_emp))),
    ], settings, seed)

    _write_csv(out / "gini_pair.csv", ["gini_theoretical", "gini_empirical"],
               zip(g_theo, g_emp))
    _write_csv(out / "tail_pair.csv", ["top_fraction", "pareto_index"], zip(lam, alpha))
    return records


def cmd_synth(params: TwoClassParams, n: int, seed: int, out_path: str | Path) -> Path:
    """Write n model draws as a single-column income CSV.

    Its lines end in a bare newline, so ``ingest`` reads it with the numpy
    split.
    """
    values = draw_incomes(params, n, seed)
    out = Path(out_path)
    if out.parent and not out.parent.exists():
        raise ValueError(f"output directory does not exist: {out.parent}")
    out.write_text("".join(f"{_fmt(v)}\n" for v in ["income", *values.tolist()]),
                   encoding="utf-8")
    return out

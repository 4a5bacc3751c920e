"""Property test: the column-indexed ingest keeps the DictReader rules.

The oracle below is the ``csv.DictReader`` loop that ``ingest`` ran
before it read rows with ``csv.reader`` and header indices, kept
verbatim with its csv-error helper. Both read generated CSVs with blank
lines, short and long rows, quoted fields holding commas and newlines,
padded numbers, non-finite and junk incomes, and lines the csv parser
rejects, with no filter, one filter column or two, each with and without
a stratify column.
"""

import csv
import io
import math
from contextlib import contextmanager

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from incomefit import IncomeSample  # noqa: E402
from incomefit.pipeline import DatasetSpec, IngestResult, ingest  # noqa: E402


@contextmanager
def _parsing(path, reader):
    """Yield ``reader``; a csv parser error becomes a ValueError naming the file and line."""
    try:
        yield reader
    except csv.Error as exc:
        # a DictReader counts a line only once it parses; its inner parser counts on reading
        line = getattr(reader, "reader", reader).line_num
        raise ValueError(f"{path}, line {line}: {exc}") from None


def dict_reader_ingest(spec: DatasetSpec) -> IngestResult:
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
                label = row[spec.stratify_by]
                if label is None:   # a short row: DictReader fills missing fields with None
                    raise ValueError(f"{spec.path}, line {reader.line_num}: "
                                     f"no value in column {spec.stratify_by!r}")
                labels.append(label)
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


def outcome(read, spec):
    """Everything a caller can see of one ingest: its result, or its error message."""
    try:
        r = read(spec)
    except ValueError as exc:
        return "error", str(exc)
    return ("result", r.sample.ascending.tobytes(), r.n_rows, r.n_used,
            list(r.dropped.items()),
            [(c, s.ascending.tobytes()) for c, s in r.strata.items()],
            list(r.skipped_strata.items()))


INCOMES = ["1", "2.5", "1200.75", " 3 ", "\t40\t", "7e2", "+5", "1_000", "-0", "0",
           "-12", "nan", "NaN", "inf", "-inf", "1e400", "1e-400", "", "  ", "abc",
           "1,5", "2\n3", '4"5']
LABELS = ["woman", "man", "", " woman", "x", "a,b", "c\nd", 'q"t']
junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
incomes = st.one_of(st.sampled_from(INCOMES), junk,
                    st.floats(min_value=1e-3, max_value=1e7).map(repr))
labels = st.one_of(st.sampled_from(LABELS), junk)
COLUMNS = ["id", "income", "sex", "color"]


@st.composite
def csv_files(draw):
    """A header of the four columns in any order, then rows cut short or run long.

    A row cut to no fields is a blank line. Each row is quoted where the
    csv module needs it, quoted throughout, or joined raw, so that a
    stray quote or carriage return reaches the parser.
    """
    header = draw(st.permutations(COLUMNS))
    by_column = {"id": junk, "income": incomes, "sex": labels, "color": labels}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(by_column[col]) for col in header]
        fields += draw(st.lists(st.one_of(incomes, labels), max_size=2))
        fields = fields[:draw(st.integers(0, len(fields)))]
        kind = draw(st.sampled_from(["minimal", "all", "raw"]))
        if kind == "raw":
            lines.append(",".join(fields))
        else:
            out = io.StringIO()
            quoting = csv.QUOTE_MINIMAL if kind == "minimal" else csv.QUOTE_ALL
            csv.writer(out, quoting=quoting, lineterminator="").writerow(fields)
            lines.append(out.getvalue())
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + terminator for line in lines)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "hostile.csv"


# no deadline: examples write a file, and their time varies on a loaded machine
@settings(deadline=None, max_examples=500)
@given(text=csv_files(), field_limit=st.sampled_from([None, 8]))
# a short row under --stratify-by, then an oversized field: the first fault is reported
@example(text="income,color,sex,id\n5\n123456789\n", field_limit=8)
def test_ingest_matches_dict_reader(csv_path, text, field_limit):
    csv_path.write_text(text, encoding="utf-8", newline="")
    specs = [DatasetSpec(str(csv_path), "income", filters, stratify)
             for filters in ({}, {"sex": "woman"}, {"sex": "woman", "color": "man"})
             for stratify in (None, "color")]
    limit = csv.field_size_limit()
    if field_limit is not None:     # a field over the limit is a parse error on its line
        csv.field_size_limit(field_limit)
    try:
        expected = [outcome(dict_reader_ingest, spec) for spec in specs]
        assert [outcome(ingest, spec) for spec in specs] == expected
    finally:
        csv.field_size_limit(limit)

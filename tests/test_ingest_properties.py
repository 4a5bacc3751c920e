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
from incomefit import pipeline  # noqa: E402
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


SEPARATORS = (",", "\n", '"')
CLEAN_INCOMES = [v for v in INCOMES if not any(c in v for c in SEPARATORS)]
clean_text = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters=',\n\r"\0'), max_size=6)
clean_by_column = {
    "id": clean_text,
    "income": st.one_of(st.sampled_from(CLEAN_INCOMES), st.floats().map(repr)),
    "sex": st.one_of(st.sampled_from([v for v in LABELS if not any(c in v for c in SEPARATORS)]),
                     clean_text),
}
clean_by_column["color"] = clean_by_column["sex"]


@st.composite
def clean_csv_files(draw):
    """Rows of exactly the header's fields, unquoted, each ending in a newline but
    perhaps the last: files the numpy reader splits when every income parses.

    The header holds the income column and any of the other three, so a
    one-column file, where a blank line is a row of one empty field, is drawn too.
    """
    header = draw(st.permutations(COLUMNS))
    header = [col for col in header[:draw(st.integers(1, 4))] if col != "income"]
    header.insert(draw(st.integers(0, len(header))), "income")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        lines.append(",".join(draw(clean_by_column[col]) for col in header))
    text = "\n".join(lines)
    return text if draw(st.booleans()) else text + "\n"


@settings(deadline=None, max_examples=500)
@given(text=clean_csv_files(), field_limit=st.sampled_from([None, 8]))
# each makes the numpy reader hand the file to the row loop
@example(text='income,sex\n"5",woman\n7,woman\n', field_limit=None)      # a quote
@example(text="income,sex\r\n5,woman\r\n7,woman\r\n", field_limit=None)  # \r\n lines
@example(text="income,sex\n5,wo\0man\n7,woman\n", field_limit=None)      # NUL
@example(text="income\n5\n\n7\n", field_limit=None)                      # blank line
@example(text="income,sex\n5\n7,woman\n", field_limit=None)              # short row
@example(text="income,sex\n5,woman,x\n7,woman\n", field_limit=None)      # long row
@example(text="income\n٣\n7\n", field_limit=None)                   # non-ASCII digit
@example(text="income\n123456789\n7\n", field_limit=8)                   # field over the limit
@example(text="income\nabc\n5\n7\n", field_limit=None)                   # unparseable income
@example(text="income\n\t\n5\n7\n", field_limit=None)                    # a blank that is not spaces
# a clean file of fewer than 2 usable incomes: both readers raise the same error
@example(text="income\n5\n-1\n \n", field_limit=None)
def test_clean_ingest_matches_dict_reader(csv_path, text, field_limit):
    csv_path.write_text(text, encoding="utf-8", newline="")
    specs = [DatasetSpec(str(csv_path), "income", filters, stratify)
             for filters in ({}, {"sex": "woman"}, {"sex": "woman", "color": "man"})
             for stratify in (None, "color")]
    limit = csv.field_size_limit()
    if field_limit is not None:
        csv.field_size_limit(field_limit)
    try:
        expected = [outcome(dict_reader_ingest, spec) for spec in specs]
        assert [outcome(ingest, spec) for spec in specs] == expected
    finally:
        csv.field_size_limit(limit)


CLEAN = ("id,sex,color,income\n1,woman,white,120.5\n2,man,white,80\n3,woman,brown,7e2\n"
         "4,woman,white, \n5,woman,brown,-3\n6,woman,white,inf\n7,woman,black,55\n"
         "8,woman,white,1_000\n9,woman,brown,  41 \n")


def test_clean_file_never_reaches_the_csv_module(tmp_path, monkeypatch):
    path = tmp_path / "clean.csv"
    path.write_text(CLEAN, encoding="utf-8")
    spec = DatasetSpec(str(path), "income", {"sex": "woman"}, "color")
    expected = outcome(dict_reader_ingest, spec)
    assert expected[0] == "result" and expected[6] == [("black", 1)]

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called on a clean file")

    monkeypatch.setattr(pipeline.csv, "reader", no_reader)
    assert outcome(ingest, spec) == expected


def test_quoted_file_is_read_by_the_csv_module(tmp_path, monkeypatch):
    path = tmp_path / "quoted.csv"
    path.write_text(CLEAN.replace("120.5", '"120.5"'), encoding="utf-8")
    spec = DatasetSpec(str(path), "income", {"sex": "woman"}, "color")
    expected = outcome(dict_reader_ingest, spec)
    readers = []

    def counted(*args, **kwargs):
        readers.append(args)
        return csv_reader(*args, **kwargs)

    csv_reader = csv.reader
    monkeypatch.setattr(pipeline.csv, "reader", counted)
    assert outcome(ingest, spec) == expected
    assert len(readers) == 1

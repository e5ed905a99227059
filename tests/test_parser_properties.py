"""Property tests for the CSV readers: every input parses or raises
ValidationError, never another exception.

The earthquake, prediction and KDE points CSVs are each fed arbitrary
bytes (with and without a valid header in front) and CSV-shaped text
built from numbers, blanks, words and stray quotes.  Valid earthquake
tables must parse to the columns ``float`` gives cell by cell, valid
prediction tables to what a per-row reader gives, and a single planted
fault must be named by its row.  The numpy bulk pass must read every
table, valid or not, as the csv row reader alone does, and the row
reader as the block-converting reader it replaced.  Examples are
derandomized so every run checks the same cases.
"""

import csv
import io
import json
import tracemalloc
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakeval import (Circle, ConvexPolygon, Prediction, PredictionSet, Rectangle,
                      ValidationError, load_density, parse_earthquakes,
                      parse_predictions)
from quakeval import catalog as catalog_module
from quakeval.catalog import EARTHQUAKE_HEADER, PREDICTION_HEADER

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SIDECAR = {"0": [[0, 0], [10, 0], [10, 10], [0, 10]]}
KDE_MODEL = {"type": "kde", "bandwidth": [25.0, 0.0, 0.0, 25.0],
             "points_ref": "points.csv",
             "region": {"type": "rectangle", "x_min": 0.0, "x_max": 1000.0,
                        "y_min": 0.0, "y_max": 1000.0}}

# file kind -> (header, file name, parse the file at a path)
READERS = {
    "earthquakes": (EARTHQUAKE_HEADER, "events.csv", parse_earthquakes),
    "predictions": (PREDICTION_HEADER, "preds.csv",
                    lambda path: parse_predictions(path, polygons=SIDECAR)),
    "points": (["x", "y"], "points.csv",
               lambda path: load_density(path.parent / "kde.json")),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("parsers")
    (path / "kde.json").write_text(json.dumps(KDE_MODEL))
    return path


def _parses_or_rejects(workdir, kind: str, data: bytes) -> None:
    _, name, parse = READERS[kind]
    path = workdir / name
    path.write_bytes(data)
    try:
        parse(path)
    except ValidationError as exc:
        # an error about the file's content names the file; the KDE's own
        # check of its mass inside the region names no row
        assert str(exc).startswith(f"{path}: ") or "row" not in str(exc)


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 2000).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e308", "-1e308", "1_0", '"', '""']),
    st.text(max_size=6),
)
rows = st.lists(st.lists(cells, max_size=9).map(",".join), max_size=8)


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY
@given(with_header=st.booleans(), raw=st.binary(max_size=200))
def test_arbitrary_bytes_parse_or_raise_validation_error(workdir, kind, with_header, raw):
    header = ",".join(READERS[kind][0]).encode() + b"\n" if with_header else b""
    _parses_or_rejects(workdir, kind, header + raw)


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY
@given(lines=rows, newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_csv_shaped_text_parses_or_raises_validation_error(workdir, kind, lines, newline):
    text = newline.join([",".join(READERS[kind][0]), *lines]) + newline
    _parses_or_rejects(workdir, kind, text.encode("utf-8"))


# ---------------------------------------------------- valid earthquake tables

REGION = Rectangle(0.0, 100.0, 0.0, 100.0)
RECORD_END = 1000.0


def number_cells(hi: int):
    """Cells that ``float`` reads as a number in [0, hi], some padded
    with whitespace or written with a digit-group underscore."""
    text = st.one_of(
        st.floats(0.0, hi).map(repr),
        st.floats(0.0, hi).map("{:.6e}".format),
        st.integers(10, hi).map(lambda n: f"{str(n)[0]}_{str(n)[1:]}"),
        st.sampled_from(["0", "-0.0", f"{hi}", "1E1"]),
    )
    return st.tuples(st.sampled_from(["", " ", "\t"]), text,
                     st.sampled_from(["", " "])).map("".join)


# each data row with the blank row written before it, if any
valid_rows = st.lists(
    st.tuples(st.sampled_from([None, "", ",,,", " , ,\t, "]),
              st.tuples(number_cells(int(RECORD_END)), number_cells(100),
                        number_cells(100), number_cells(10))),
    max_size=12)


def write_table(path, rows, newline: str, bom: bool) -> list[int]:
    """Write an earthquake CSV; returns each data row's number."""
    lines, numbers = [",".join(EARTHQUAKE_HEADER)], []
    for blank, cells in rows:
        if blank is not None:
            lines.append(blank)
        lines.append(",".join(cells))
        numbers.append(len(lines) - 1)
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"")
                     + (newline.join(lines) + newline).encode("utf-8"))
    return numbers


def parse(path, block: int):
    """``parse_earthquakes`` on ``path``, converting ``block`` rows at once."""
    with mock.patch.object(catalog_module, "_ROW_BLOCK", block):
        return parse_earthquakes(path, region=REGION, record_end=RECORD_END)


layout = dict(newline=st.sampled_from(["\n", "\r\n"]), bom=st.booleans(),
              block=st.sampled_from([1, 3, 1024]))


@PROPERTY
@given(rows=valid_rows, **layout)
def test_valid_tables_parse_to_the_cells_floats(workdir, rows, newline, bom, block):
    path = workdir / "valid.csv"
    write_table(path, rows, newline, bom)
    cat = parse(path, block)
    ref = np.array([[float(c) for c in cells] for _, cells in rows]).reshape(-1, 4)
    ref = ref[np.argsort(ref[:, 0], kind="stable")]
    for column, expected in zip((cat.times, cat.xs, cat.ys, cat.magnitudes), ref.T):
        assert column.tobytes() == expected.tobytes()


# (column, planted cell, the error after "row N: ")
FAULTS = [
    ("time", "1..2", "time value '1..2' is not a number"),
    ("x", "", "x value '' is not a number"),
    ("magnitude", " abc", "magnitude value ' abc' is not a number"),
    ("y", "1e999", "y value '1e999' is not finite"),
    ("time", "nan", "time value 'nan' is not finite"),
    ("time", "-5", "negative time -5"),
    ("y", "150", "epicentre ("),
    ("time", "1500", "time 1500 falls outside the record span [0, 1000]"),
]


@PROPERTY
@given(rows=valid_rows.filter(len), fault=st.sampled_from(FAULTS), data=st.data(),
       **layout)
def test_a_planted_fault_is_named_by_its_row(workdir, rows, fault, data, newline,
                                             bom, block):
    column, cell, message = fault
    k = data.draw(st.integers(0, len(rows) - 1), label="row index")
    blank, cells = rows[k]
    cells = list(cells)
    cells[EARTHQUAKE_HEADER.index(column)] = cell
    rows = [*rows[:k], (blank, tuple(cells)), *rows[k + 1:]]
    path = workdir / "faulty.csv"
    number = write_table(path, rows, newline, bom)[k]
    with pytest.raises(ValidationError) as caught:
        parse(path, block)
    assert str(caught.value).startswith(f"{path}: row {number}: {message}")


def test_a_parse_runs_the_region_test_once(monkeypatch):
    calls = []
    contains = Rectangle.contains
    monkeypatch.setattr(Rectangle, "contains",
                        lambda self, x, y: calls.append(len(x)) or contains(self, x, y))
    text = "time,x,y,magnitude\n5,2,3,4\n1,20,30,4\n"
    parse_earthquakes(io.StringIO(text), region=REGION, record_end=10.0)
    assert calls == [2]


# ---------------------------------------------------- valid prediction tables

def reference_parse_predictions(source, polygons: dict) -> list[Prediction]:
    """The per-row prediction reader the columnar one replaced: one
    ``Circle`` and one ``Prediction`` per row, every cell parsed alone."""
    poly_map = {int(k): ConvexPolygon(v) for k, v in polygons.items()}
    preds = []
    with catalog_module._read_table(source, PREDICTION_HEADER) as table:
        for i, cells in table:
            issue, ws, we = (catalog_module._parse_float(cells[k], i, PREDICTION_HEADER[k])
                             for k in range(3))
            circle_cells = [c.strip() for c in cells[3:6]]
            if all(circle_cells):
                region = Circle(*(catalog_module._parse_float(cells[k], i, PREDICTION_HEADER[k])
                                  for k in range(3, 6)))
            elif any(circle_cells):
                raise ValidationError(
                    f"row {i}: cx, cy and radius must be all present or all empty")
            else:
                if i - 1 not in poly_map:
                    raise ValidationError(
                        f"row {i}: no circle columns and no polygon sidecar entry "
                        f"for row index {i - 1}")
                region = poly_map[i - 1]
            mmin = catalog_module._parse_float(cells[6], i, "min_magnitude")
            try:
                preds.append(Prediction(issue, ws, we, region, mmin))
            except ValidationError as exc:
                raise ValidationError(f"row {i}: {exc}") from None
    return preds


CIRCLES = [("10", "20", "5"), (" 10.0", "2e1 ", "5"), ("60", "60", "7.5"), ("80", "30", "1")]
POLYGONS = [[[0, 0], [10, 0], [10, 10], [0, 10]], [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0],
                                                   [0.0, 10.0]],
            [[50, 50], [70, 50], [60, 65]]]
window_cells = st.tuples(number_cells(100), number_cells(100), number_cells(100))
# a circle from the pool (often repeated), a fresh one, or a polygon from the pool
region_cells = st.one_of(st.sampled_from(CIRCLES),
                         st.tuples(number_cells(100), number_cells(100),
                                   st.integers(1, 50).map(str)),
                         st.sampled_from(range(len(POLYGONS))))
prediction_rows = st.lists(
    st.tuples(st.sampled_from([None, "", ",,,,,,", " , ,\t, , , , "]),
              window_cells, region_cells, number_cells(10)),
    max_size=12)


def write_predictions(path, rows) -> tuple[list[int], dict]:
    """Write a prediction CSV from (blank, (a, b, c), region, magnitude)
    rows, whose window is issued at a and runs from a + b to a + b + c;
    returns each data row's number and the polygon sidecar."""
    lines, numbers, sidecar = [",".join(PREDICTION_HEADER)], [], {}
    for blank, (a, b, c), region, magnitude in rows:
        if blank is not None:
            lines.append(blank)
        start = float(a) + float(b)
        window = [a, repr(start), repr(start + float(c))]
        if isinstance(region, int):
            sidecar[str(len(lines) - 1)] = POLYGONS[region]
            region = ("", " ", "")
        lines.append(",".join([*window, *region, magnitude]))
        numbers.append(len(lines) - 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return numbers, sidecar


@PROPERTY
@given(rows=prediction_rows, block=st.sampled_from([1, 3, 1024]))
def test_valid_prediction_tables_match_the_row_reader(workdir, rows, block):
    path = workdir / "predictions.csv"
    _, sidecar = write_predictions(path, rows)
    with mock.patch.object(catalog_module, "_ROW_BLOCK", block):
        got = parse_predictions(path, polygons=sidecar)
    want = reference_parse_predictions(path, sidecar)
    assert isinstance(got, PredictionSet) and len(got) == len(want)
    for column, field in [("issue_times", "issue_time"), ("window_starts", "window_start"),
                          ("window_ends", "window_end"), ("min_magnitudes", "min_magnitude")]:
        expected = np.array([getattr(p, field) for p in want], dtype=float)
        assert getattr(got, column).tobytes() == expected.tobytes()
    first = list(dict.fromkeys(p.region for p in want))
    assert list(got.regions) == first
    assert got.region_index.tolist() == [first.index(p.region) for p in want]
    assert list(got) == want


# fault -> (replace the row's window, region or magnitude cells, the error after "row N: ")
PREDICTION_FAULTS = {
    "bad number": (("window", ("0", "1..2", "3")), "window_start value '1..2' is not a number"),
    "non-finite": (("magnitude", "inf"), "min_magnitude value 'inf' is not finite"),
    "partial circle": (("region", ("5", "", "3")), "cx, cy and radius must be all present "
                                                   "or all empty"),
    "missing sidecar entry": (("region", ("", "", "")), "no circle columns and no polygon "
                                                        "sidecar entry for row index"),
    "reversed window": (("window", ("0", "5", "4")), "prediction window ends before it starts"),
    "late issue": (("window", ("6", "5", "7")), "prediction issued after its window opened"),
    "zero radius": (("region", ("5", "5", "0")), "circle radius must be positive"),
    "negative radius": (("region", ("5", "5", "-2")), "circle radius must be positive"),
}


def plant_prediction_fault(path, number: int, sidecar: dict, fault: str) -> None:
    """Replace cells of data row ``number`` of a prediction CSV written by
    ``write_predictions`` with those of a ``PREDICTION_FAULTS`` entry."""
    (part, cells), _ = PREDICTION_FAULTS[fault]
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines[number].split(",")
    if part == "window":
        row[:3] = cells
    elif part == "region":
        row[3:6] = cells
        sidecar.pop(str(number - 1), None)
    else:
        row[6] = cells
    lines[number] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@PROPERTY
@given(rows=prediction_rows.filter(len), fault=st.sampled_from(sorted(PREDICTION_FAULTS)),
       data=st.data())
def test_a_planted_prediction_fault_is_named_by_its_row(workdir, rows, fault, data):
    _, message = PREDICTION_FAULTS[fault]
    k = data.draw(st.integers(0, len(rows) - 1), label="row index")
    path = workdir / "faulty-predictions.csv"
    numbers, sidecar = write_predictions(path, rows)
    plant_prediction_fault(path, numbers[k], sidecar, fault)
    with pytest.raises(ValidationError) as caught:
        parse_predictions(path, polygons=sidecar)
    assert str(caught.value).startswith(f"{path}: row {numbers[k]}: {message}")


def test_prediction_faults_come_in_file_order_by_kind():
    header = ",".join(PREDICTION_HEADER)
    window_then_cell = f"{header}\n0,5,4,1,1,1,5\n0,x,4,1,1,1,5\n"
    radius_then_cell = f"{header}\n0,1,4,1,1,0,5\n0,1,4,1,1,1,abc\n"
    window_then_radius = f"{header}\n0,5,4,1,1,1,5\n0,1,4,1,1,-1,5\n"
    for text, message in [(window_then_cell, "row 2: window_start value 'x'"),
                          (radius_then_cell, "row 2: min_magnitude value 'abc'"),
                          (window_then_radius, "row 2: circle radius must be positive")]:
        with pytest.raises(ValidationError, match=message):
            parse_predictions(io.StringIO(text))


# ------------------------------------------- the bulk pass against the row reader

def read_floats(path, bulk: bool, header=EARTHQUAKE_HEADER, nonnegative=("time",)):
    """``_read_floats`` on a file: its row numbers and values, or its error
    message.  Without ``bulk`` the numpy pass declines every block, so the
    row reader reads the whole table."""
    declined = mock.patch.object(catalog_module, "_bulk_block", lambda *args: None)
    try:
        with declined if not bulk else nullcontext():
            with catalog_module._read_table(path, header) as table:
                rows, values = catalog_module._read_floats(table, header, nonnegative)
    except ValidationError as exc:
        return str(exc)
    assert rows.dtype == np.dtype(int) and values.dtype == np.dtype(float)
    return rows.tolist(), values.shape, values.tobytes()


LONG = "1" * 30  # longer than the field limit the tests set
plain_numbers = st.one_of(st.floats(0.0, 1000.0).map(repr), st.integers(0, 1000).map(str),
                          st.floats(0.0, 1000.0).map("{:.6e}".format))
odd_cells = st.sampled_from([
    "", " ", "\t", "nan", "inf", "-inf", "1e999", "-1", "-0.0", "-1e-300", " 5 ", "\t7\t",
    "1_0", "١٢", "٥.5", "1\x00", "\x002", '"3"', '"', '4"', '"5', "x",
    "0x10", "\ufeff1", " 1.5", "1.5 ", "\x1c9", "1e5", "+3", ".5", "5.", LONG,
])
cell = st.one_of(plain_numbers, plain_numbers, plain_numbers, odd_cells)
valid_line = st.lists(plain_numbers, min_size=4, max_size=4).map(",".join)
odd_line = st.one_of(
    st.lists(cell, min_size=4, max_size=4).map(",".join),
    st.lists(cell, min_size=0, max_size=6).map(",".join),
    st.sampled_from(["", " ", "\t ", ",,,", " , ,\t, ", '"1,2",3,4', '1,"2\n3",4,5',
                     "1,2,3,4\r", "1\r2,3,4,5"]),
)
table_lines = st.lists(st.one_of(valid_line, valid_line, valid_line, odd_line), max_size=14)
table_layout = dict(newline=st.sampled_from(["\n", "\r\n", "\r"]), bom=st.booleans(),
                    block=st.sampled_from([1, 2, 3, 5, 1024]),
                    limit=st.sampled_from([None, 20]))


def _write_lines(path, lines, newline, bom, header=EARTHQUAKE_HEADER) -> None:
    text = newline.join([",".join(header), *lines]) + newline
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8"))


@contextmanager
def field_limit(limit):
    """The csv module's field size limit set to ``limit`` (None: as is)."""
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@PROPERTY
@given(lines=table_lines, **table_layout)
def test_bulk_pass_reads_what_the_row_reader_reads(workdir, lines, newline, bom, block,
                                                   limit):
    """Rows and values, or the error message, bit for bit: over blank and
    quoted rows, CR, CRLF and LF line ends, a BOM, NUL characters, numbers
    only ``float`` reads, non-finite and negative cells, wrong field
    counts and fields over the field limit, with faults on either side
    of a block boundary."""
    path = workdir / "bulk.csv"
    _write_lines(path, lines, newline, bom)
    with field_limit(limit), mock.patch.object(catalog_module, "_ROW_BLOCK", block):
        assert read_floats(path, bulk=True) == read_floats(path, bulk=False)


@PROPERTY
@given(good=st.lists(valid_line, min_size=1, max_size=12), data=st.data(),
       block=st.sampled_from([2, 3, 4]))
def test_faults_around_a_block_boundary_are_named_alike(workdir, good, data, block):
    """Two faults planted anywhere in a table of valid rows, so that they
    fall in one block, in neighbouring blocks or far apart: both readers
    name the same row with the same message."""
    lines = list(good)
    for _ in range(2):
        k = data.draw(st.integers(0, len(lines)), label="position")
        lines.insert(k, data.draw(odd_line, label="fault"))
    path = workdir / "boundary.csv"
    _write_lines(path, lines, "\n", False)
    with mock.patch.object(catalog_module, "_ROW_BLOCK", block):
        assert read_floats(path, bulk=True) == read_floats(path, bulk=False)


def _parse_outcome(parse, path, bulk: bool):
    declined = mock.patch.object(catalog_module, "_bulk_block", lambda *args: None)
    try:
        with declined if not bulk else nullcontext():
            return parse(path)
    except ValidationError as exc:
        return str(exc)


@PROPERTY
@given(rows=prediction_rows, block=st.sampled_from([1, 2, 3, 1024]))
def test_prediction_tables_read_alike_in_bulk_and_by_row(workdir, rows, block):
    """Circle rows go in bulk, polygon rows by row; the set or the error
    is the row reader's."""
    path = workdir / "bulk-predictions.csv"
    _, sidecar = write_predictions(path, rows)
    parse = lambda p: parse_predictions(p, polygons=sidecar)  # noqa: E731
    with mock.patch.object(catalog_module, "_ROW_BLOCK", block):
        got, want = _parse_outcome(parse, path, True), _parse_outcome(parse, path, False)
    if isinstance(want, str):
        assert got == want
        return
    for column in ("issue_times", "window_starts", "window_ends", "min_magnitudes",
                   "region_index"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    assert got.regions == want.regions


def reference_read_floats(table, header, nonnegative=(), checked_rows=None):
    """The row tier of ``_read_floats`` as it was before each row was
    converted as it is read: ``_ROW_BLOCK`` rows of cells mapped through
    ``float`` at once and tested as an array, a block at fault read again
    cell by cell, and the pending block converted before an error of the
    reader is raised."""
    width, signed = len(header), [header.index(c) for c in nonnegative]
    rows, values, block = [], [], []

    def convert() -> None:
        cells = [c for _, row in block for c in row]
        try:
            floats = np.fromiter(map(float, cells), float, len(cells)).reshape(-1, width)
        except ValueError:
            floats = None
        if floats is None or not np.isfinite(floats).all() or (floats[:, signed] < 0).any():
            for i, row in block:
                parsed = [catalog_module._parse_float(v, i, c) for v, c in zip(row, header)]
                for k in signed:
                    if parsed[k] < 0:
                        raise ValidationError(f"row {i}: negative {header[k]} {parsed[k]:g}")
        rows.extend(i for i, _ in block)
        values.append(floats)
        block.clear()

    try:
        for item in iter(table) if checked_rows is None else checked_rows(iter(table)):
            block.append(item)
            if len(block) == catalog_module._ROW_BLOCK:
                convert()
    except (ValidationError, csv.Error):
        convert()  # an earlier row at fault comes first
        raise
    convert()
    return np.array(rows, dtype=int), np.concatenate(values)


reference_reader = mock.patch.object(catalog_module, "_read_floats", reference_read_floats)


@PROPERTY
@given(lines=table_lines, data=st.data(), **table_layout)
def test_the_row_reader_reads_as_the_block_converting_reader(workdir, lines, data, newline,
                                                             bom, block, limit):
    """With the bulk pass declining every block, rows converted one at a
    time give the block-converting reader's rows and values bit for bit,
    or its error message, whatever the block size.  A minus sign put
    before some lines makes negative times common among the faults."""
    minus = data.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)),
                      label="minus signs")
    lines = ["-" + line if sign else line for sign, line in zip(minus, lines)]
    path = workdir / "row-reader.csv"
    _write_lines(path, lines, newline, bom)
    with field_limit(limit), mock.patch.object(catalog_module, "_ROW_BLOCK", block):
        got = read_floats(path, bulk=False)
        with reference_reader:
            want = read_floats(path, bulk=False)
    assert got == want


@PROPERTY
@given(rows=prediction_rows.filter(len), data=st.data(), block=st.sampled_from([1, 2, 1024]))
def test_prediction_rows_read_as_the_block_converting_reader(workdir, rows, data, block):
    """Up to two planted prediction faults, with every row read by the row
    reader: the region test of a row comes before its conversion, and
    both before the next row's, as in the block-converting reader."""
    path = workdir / "row-predictions.csv"
    numbers, sidecar = write_predictions(path, rows)
    for _ in range(data.draw(st.integers(0, 2), label="faults")):
        k = data.draw(st.integers(0, len(rows) - 1), label="row index")
        fault = data.draw(st.sampled_from(sorted(PREDICTION_FAULTS)), label="fault")
        plant_prediction_fault(path, numbers[k], sidecar, fault)
    parse = lambda p: parse_predictions(p, polygons=sidecar)  # noqa: E731
    with mock.patch.object(catalog_module, "_ROW_BLOCK", block):
        got = _parse_outcome(parse, path, False)
        with reference_reader:
            want = _parse_outcome(parse, path, False)
    if isinstance(want, str):
        assert got == want
        return
    for column in ("issue_times", "window_starts", "window_ends", "min_magnitudes",
                   "region_index"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    assert got.regions == want.regions


def test_the_row_reader_holds_one_block_of_rows_as_python_floats():
    """A quote in row 1 sends 20k rows to the row reader, whose converted
    rows become an array every block: the parse peaks below three times
    the arrays it returns, where 20k rows held as lists of Python floats
    would take more than seven times."""
    lines = ['"0.5",1.5,2.5,4.5'] + [f"{k}.25,{k % 97}.5,{k % 89}.75,4.5"
                                     for k in range(1, 20000)]
    text = io.StringIO("\n".join([",".join(EARTHQUAKE_HEADER), *lines]) + "\n")
    tracemalloc.start()
    try:
        with catalog_module._read_table(text, EARTHQUAKE_HEADER) as table:
            start = tracemalloc.get_traced_memory()[0]
            rows, values = catalog_module._read_floats(table, EARTHQUAKE_HEADER, ("time",))
            peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rows.tolist() == list(range(1, 20001)) and values[1:, 0].tolist() == \
        [k + 0.25 for k in range(1, 20000)]
    assert peak < 3 * (rows.nbytes + values.nbytes)


ODD_LINES = ['"1",2,3,4', '1,2,3,"4"', '1,"2\n3",4,5', "1\x00,2,3,4", "-1,2,3,4",
             "-0.0,2,3,4", "1,2,3", "1,2,3,4,5", f"{LONG},1,1,1", "", "  ", ",,,",
             "1_0,1,1,1", "١,1,1,1", "nan,1,1,1", "1,inf,1,1", "1,2,3,4\r"]


@pytest.mark.parametrize("where", [0, 2, 3, 5, 6])
@pytest.mark.parametrize("line", ODD_LINES, ids=repr)
def test_one_odd_line_among_valid_rows_reads_alike(workdir, line, where):
    """Each kind of line the bulk pass must decline (or may keep), first,
    last or either side of a block boundary among six valid rows."""
    lines = [f"{k}.5,{k},{2 * k},4.5" for k in range(6)]
    lines.insert(where, line)
    path = workdir / "odd.csv"
    _write_lines(path, lines, "\n", False)
    with field_limit(20), mock.patch.object(catalog_module, "_ROW_BLOCK", 3):
        assert read_floats(path, bulk=True) == read_floats(path, bulk=False)


CHUNK = 8192  # the bytes a text file decodes at a time


@pytest.mark.parametrize("before", [None, 0, 1, 2, 40, 200])
def test_an_undecodable_byte_deep_in_a_file_reads_alike(workdir, before):
    """A byte that is not UTF-8 in the fifth decoded chunk of a file, with
    a short row ``before`` rows ahead of the row that chunk starts in: the
    row reader meets a short row that ends before the chunk first, and so
    must the bulk pass, which hands the lines it read before the bad chunk
    to the row reader."""
    lines = [f"{k}.25,{k % 97}.5,{k % 89}.75,4.5" for k in range(1, 2000)]
    head = ",".join(EARTHQUAKE_HEADER) + "\n"
    ends = np.cumsum([len(head)] + [len(line) + 1 for line in lines])  # after each row
    inside = int(np.searchsorted(ends, 4 * CHUNK, side="right"))  # the row the chunk starts in
    if before is not None:
        lines[inside - before - 1] = "1,2,3"
    data = (head + "\n".join(lines) + "\n").encode()
    bad = int(ends[inside + 3])  # the start of a row a little into the chunk
    path = workdir / "undecodable.csv"
    path.write_bytes(data[:bad] + b"\xff" + data[bad:])
    with mock.patch.object(catalog_module, "_ROW_BLOCK", 64):
        got = read_floats(path, bulk=True)
    assert got == read_floats(path, bulk=False)
    if before is None:
        assert "text is not UTF-8" in got
    elif before:  # the row the chunk starts in may come before the error or not
        assert got.endswith(f"row {inside - before}: expected 4 fields, got 3")


@pytest.mark.parametrize("block", [1, 64, 1024])
@pytest.mark.parametrize("before", [1, 10, 40])
def test_a_bad_number_before_an_undecodable_chunk_is_named_first(workdir, before, block):
    """The rows decoded before a chunk that is not UTF-8 lie wholly before
    the bad byte, and each is converted as it is read: a bad number among
    them is the first fault in file order, and it is named whatever the
    block size."""
    lines = [f"{k}.25,{k % 97}.5,{k % 89}.75,4.5" for k in range(1, 2000)]
    head = ",".join(EARTHQUAKE_HEADER) + "\n"
    ends = np.cumsum([len(head)] + [len(line) + 1 for line in lines])  # after each row
    inside = int(np.searchsorted(ends, 4 * CHUNK, side="right"))  # the row the chunk starts in
    lines[inside - before - 1] = "1,x,3,4"
    data = (head + "\n".join(lines) + "\n").encode()
    bad = int(ends[inside + 3])
    path = workdir / "number-then-undecodable.csv"
    path.write_bytes(data[:bad] + b"\xff" + data[bad:])
    with mock.patch.object(catalog_module, "_ROW_BLOCK", block):
        assert read_floats(path, bulk=True) == read_floats(path, bulk=False) \
            == f"{path}: row {inside - before}: x value 'x' is not a number"

"""Property tests for the CSV readers: every input parses or raises
ValidationError, never another exception.

The earthquake, prediction and KDE points CSVs are each fed arbitrary
bytes (with and without a valid header in front) and CSV-shaped text
built from numbers, blanks, words and stray quotes.  Valid earthquake
tables must parse to the columns ``float`` gives cell by cell, and a
single planted fault must be named by its row.  Examples are
derandomized so every run checks the same cases.
"""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakeval import (Rectangle, ValidationError, load_density, parse_earthquakes,
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

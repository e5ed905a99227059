"""Property tests for the CSV readers: every input parses or raises
ValidationError, never another exception.

The earthquake, prediction and KDE points CSVs are each fed arbitrary
bytes (with and without a valid header in front) and CSV-shaped text
built from numbers, blanks, words and stray quotes.  Examples are
derandomized so every run checks the same cases.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakeval import ValidationError, load_density, parse_earthquakes, parse_predictions
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

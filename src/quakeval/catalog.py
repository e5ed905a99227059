"""Earthquake catalogs, alarm predictions and the aftershock filter.

File formats
------------
Every CSV the package reads or writes follows the same rules:

* The text is UTF-8 with a ``.`` decimal separator.  A leading
  byte-order mark, as spreadsheet programs write, is skipped.
* The first row is the exact header (cells are compared after stripping
  whitespace).
* Data rows are numbered from 1 in file order.  A row whose cells are
  all blank is skipped but keeps its number; any other row must have
  one field per header column.
* A ``ValidationError`` raised while reading a file given by path
  starts with that path, then names the row at fault: ``<path>: row N:
  ...``.  Bytes that are not UTF-8 and CSV syntax errors (such as a
  field over the csv module's size limit) are reported the same way.
* Floats are written as their shortest round-trip ``repr``, so
  ``parse(serialize(catalog))`` reproduces the catalog exactly.

Data rows are converted in blocks of ``_ROW_BLOCK`` lines by numpy's
text reader, which parses numbers with the routine ``float`` uses.  A
block is kept only when it holds one row of finite numbers per line,
in range, with no quote, NUL or over-long line: a block the row reader
would read without a fault, to the same values.  The csv module's row
reader reads each block that is not kept, and the record a quote leaves
open at its last line, then the bulk pass goes on; so it is the row
reader that names every fault, with the same message and row.  It
converts each row, cell by cell with ``float``, as it reads it; its
rows are joined to the kept blocks once the file is read.

Earthquake CSV: header ``time,x,y,magnitude``; times in days since the
record start, positions in km.  The reader rejects a row with the
wrong field count, a field that is not a finite number and a negative
time; ``Catalog`` then rejects a time outside the record span and an
epicentre outside the study region.  A file with faults of both kinds
is reported by the reader's, wherever the other lies.  Among faults of
one kind the first row in file order is named, and in that row the
first bad cell (the time before the epicentre).

Prediction CSV: header
``issue_time,window_start,window_end,cx,cy,radius,min_magnitude``.
Rows with all three of ``cx,cy,radius`` filled describe circular alarm
regions.  A row may leave them empty and take its region from a JSON
sidecar instead: an object mapping the 0-based row index (as a string)
to an array of [x, y] vertices, counterclockwise.  The reader gives a
``PredictionSet`` with one ``Circle`` per distinct ``(cx, cy, radius)``.
It names the first row in file order with a cell fault (a wrong field
count, a bad number, a partial circle, a missing sidecar entry), else
with a radius <= 0, else with a window fault (a window that ends before
it starts, an issue time after it opens); in a row, the window cells
are read before the region cells and those before ``min_magnitude``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import abc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .regions import Circle, ConvexPolygon, Rectangle, Region, contains_region

EARTHQUAKE_HEADER = ["time", "x", "y", "magnitude"]
PREDICTION_HEADER = ["issue_time", "window_start", "window_end",
                     "cx", "cy", "radius", "min_magnitude"]
_TIME_SLACK = 1e-9  # days an event time may stray outside the record
# Candidate index pairs tested at once by the aftershock filter and the
# overlap sweep.  2^13 pairs keep each temporary at 64 KB: 2^15 raised
# peak memory by 2.6 MB on 8k events and saved no time.
_PAIR_BLOCK = 1 << 13
# Lines the bulk pass of ``_read_floats`` converts to floats at once, and
# rows its row reader converts before it moves them into one array.
_ROW_BLOCK = 1024


@dataclass(frozen=True)
class Prediction:
    """One alarm: issued at ``issue_time``, claiming an event of at least
    ``min_magnitude`` inside ``region`` during [window_start, window_end].

    Window bounds are inclusive on both ends.  Zero-duration windows are
    allowed and simply never succeed by chance.
    """

    issue_time: float
    window_start: float
    window_end: float
    region: Region
    min_magnitude: float

    def __post_init__(self):
        try:
            _check_windows(*np.array([[self.issue_time], [self.window_start],
                                      [self.window_end], [self.min_magnitude]], dtype=float))
        except _EventError as exc:
            raise ValidationError(exc.fault) from None

    @property
    def duration(self) -> float:
        return self.window_end - self.window_start


def _check_windows(issue, start, end, magnitude) -> None:
    """Raise an ``_EventError`` for the first prediction with a field that
    is not finite, else a window that ends before it starts, else an
    issue time after the window opens (the order within a row)."""
    finite = np.isfinite(issue) & np.isfinite(start) & np.isfinite(end) \
        & np.isfinite(magnitude)
    reversed_window = end < start
    bad = ~finite | reversed_window | (issue > start)
    if bad.any():
        k = int(np.argmax(bad))
        raise _EventError(k, "prediction fields must be finite" if not finite[k] else
                          "prediction window ends before it starts" if reversed_window[k]
                          else "prediction issued after its window opened", "prediction")


@dataclass(frozen=True, eq=False)
class PredictionSet(abc.Sequence):
    """A sequence of ``Prediction``s held as read-only columns in input
    order, with ``region_index`` pointing into ``regions``, the distinct
    alarm regions in order of first use (the constructor does not merge
    equal regions).  The constructor copies the columns and checks each
    row as ``Prediction`` does, naming the first at fault by its 0-based
    position (``prediction N: ...``).  ``of`` converts a sequence of
    ``Prediction``s; indexing gives ``Prediction`` rows, not checked again.
    """

    issue_times: np.ndarray
    window_starts: np.ndarray
    window_ends: np.ndarray
    min_magnitudes: np.ndarray
    region_index: np.ndarray
    regions: tuple

    def __post_init__(self):
        names = ("issue_times", "window_starts", "window_ends", "min_magnitudes")
        columns = [np.array(getattr(self, name), dtype=float) for name in names]
        index = np.array(self.region_index, dtype=np.intp)
        if index.ndim != 1 or any(c.shape != index.shape for c in columns):
            raise ValidationError("prediction columns must be 1-D and of equal length")
        if len(index) and not 0 <= index.min() <= index.max() < len(self.regions):
            raise ValidationError("region_index must point into regions")
        _check_windows(*columns)
        for name, value in zip((*names, "region_index"), (*columns, index)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "regions", tuple(self.regions))

    @classmethod
    def of(cls, predictions: Sequence[Prediction]) -> "PredictionSet":
        """``predictions`` itself if it is a ``PredictionSet``, otherwise
        the set of the same rows, with equal regions merged."""
        if isinstance(predictions, PredictionSet):
            return predictions
        first: dict = {}
        index = [first.setdefault(p.region, len(first)) for p in predictions]
        fields = np.array([(p.issue_time, p.window_start, p.window_end, p.min_magnitude)
                           for p in predictions], dtype=float).reshape(-1, 4)
        return cls(*fields.T, index, tuple(first))

    def __len__(self) -> int:
        return len(self.region_index)

    def __getitem__(self, k: int) -> Prediction:
        # the set's columns are checked, so its rows skip ``Prediction``'s check
        row = object.__new__(Prediction)
        row.__dict__.update(issue_time=float(self.issue_times[k]),
                            window_start=float(self.window_starts[k]),
                            window_end=float(self.window_ends[k]),
                            region=self.regions[self.region_index[k]],
                            min_magnitude=float(self.min_magnitudes[k]))
        return row

    def check_record(self, region: Region, start: float, end: float, slack: float = 1e-9,
                     record: str = "record", also=None) -> None:
        """Raise a ``ValidationError`` naming the first prediction whose
        window leaves [start - slack, end + slack], the record widened,
        whose alarm region is not inside the study ``region``, or that the
        mask of a (mask, fault) pair ``also`` marks, with the message
        ``fault(k)``; within a prediction the faults come in that order.
        Each distinct alarm region is tested once."""
        outside = (self.window_starts < start - slack) | (self.window_ends > end + slack)
        escaping = np.array([not contains_region(region, r) for r in self.regions],
                            bool)[self.region_index]
        bad = outside | escaping if also is None else outside | escaping | also[0]
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"prediction {k}: " + (
                f"window [{self.window_starts[k]:g}, {self.window_ends[k]:g}] is outside "
                f"the {record} [{start:g}, {end:g}]" if outside[k] else
                "alarm region is not inside the study region" if escaping[k] else also[1](k)))


@dataclass(frozen=True)
class AftershockPolicy:
    """Windows for the aftershock filter (days and km)."""

    time_window: float
    distance_window: float

    def __post_init__(self):
        for name in ("time_window", "distance_window"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # also false for NaN
                raise ValidationError(
                    f"aftershock {name} must be nonnegative and finite, got {value:g}")


class Catalog:
    """An immutable, time-sorted earthquake catalog held as four columns.

    Args:
        times: origin times, days.
        xs, ys: epicentres, km.
        magnitudes: event magnitudes.
        record_start: start of the observation record, days.
        record_end: end of the observation record, days.
        region: study region containing every epicentre.

    The columns are copied once, sorted by time on construction (a
    stable sort, so ties keep their input order).  The column arrays (``times``,
    ``xs``, ``ys``, ``magnitudes``) are read-only and safe to share
    between threads.  The record bounds must be finite and in order.
    Every field must be finite, every time inside the record span (to
    1e-9 days) and every epicentre inside ``region``; otherwise a
    ``ValidationError`` names the first event at fault by its 0-based
    input position (``event N: ...``), and its time if both are at fault.
    """

    def __init__(self, times, xs, ys, magnitudes, record_start: float,
                 record_end: float, region: Region):
        for name, value in (("record_start", record_start), ("record_end", record_end)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value:g}")
        if record_end <= record_start:
            raise ValidationError("record_end must exceed record_start")
        t, x, y, m = (np.asarray(c, dtype=float) for c in (times, xs, ys, magnitudes))
        if t.ndim != 1 or not x.shape == y.shape == m.shape == t.shape:
            raise ValidationError("catalog columns must be 1-D and of equal length")
        if len(t):
            if not all(np.isfinite(c).all() for c in (t, x, y, m)):
                raise ValidationError("catalog fields must be finite")
            late = (t < record_start - _TIME_SLACK) | (t > record_end + _TIME_SLACK)
            outside = ~np.asarray(region.contains(x, y), bool)
            bad = np.flatnonzero(late | outside)
            if len(bad):
                k = int(bad[0])
                fault = (f"time {t[k]:g} falls outside the record span "
                         f"[{record_start:g}, {record_end:g}]" if late[k] else
                         f"epicentre ({x[k]:g}, {y[k]:g}) lies outside the study region")
                raise _EventError(k, fault)
        order = np.argsort(t, kind="stable")
        self._t, self._x, self._y, self._m = t[order], x[order], y[order], m[order]
        for arr in (self._t, self._x, self._y, self._m):
            arr.flags.writeable = False
        self.record_start = float(record_start)
        self.record_end = float(record_end)
        self.region = region

    times = property(lambda self: self._t)
    xs = property(lambda self: self._x)
    ys = property(lambda self: self._y)
    magnitudes = property(lambda self: self._m)

    @property
    def span(self) -> float:
        """Record length in days."""
        return self.record_end - self.record_start

    def __len__(self) -> int:
        return len(self._t)

    def subset(self, mask: np.ndarray) -> "Catalog":
        mask = np.asarray(mask, dtype=bool)
        return Catalog(self._t[mask], self._x[mask], self._y[mask], self._m[mask],
                       self.record_start, self.record_end, self.region)

    def __repr__(self):
        return (f"Catalog({len(self)} events, record [{self.record_start:g}, "
                f"{self.record_end:g}], {type(self.region).__name__})")


class _EventError(ValidationError):
    """The ``fault`` of a ``Catalog`` event (or ``kind`` of row) at 0-based ``position``."""

    def __init__(self, position: int, fault: str, kind: str = "event"):
        super().__init__(f"{kind} {position}: {fault}")
        self.position, self.fault = position, fault


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"row {row}: {column} value {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"row {row}: {column} value {text!r} is not finite")
    return value


def _read_floats(table: "_Table", header: Sequence[str], nonnegative: Sequence[str] = (),
                 checked_rows: Callable[[Iterator], Iterator] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The row numbers and an (n, len(header)) float array of the data
    rows of ``table``.  Every cell must be a finite number, >= 0 in the
    ``nonnegative`` columns.

    The bulk pass converts blocks of ``_ROW_BLOCK`` lines with numpy's
    text reader, and keeps a block only where ``_bulk_block`` shows that
    the row reader would give the same rows without a fault.  The row
    reader reads each block it declines, each row passed through
    ``checked_rows`` (an iterator of rows to an iterator of rows) when
    given, and the bulk pass resumes after it.  Each row is converted as
    it comes, cell by cell in column order and then tested for sign,
    before the next row is read; so the first row at fault in file order
    is named (even before a later row the reader rejects), and in it the
    first cell.  The rows of a declined block become one array, so a
    parse holds at most ``_ROW_BLOCK`` rows as Python floats, and the
    arrays of both passes are joined once at the end.
    """
    width, signed = len(header), [header.index(c) for c in nonnegative]
    # (row numbers, floats) of each block in file order
    parts = [(np.empty(0, dtype=int), np.empty((0, width)))]
    for lines in table.line_blocks():
        floats = _bulk_block(lines, width, signed)
        if floats is not None:
            parts.append((np.arange(table.row + 1, table.row + 1 + len(lines)), floats))
            table.row += len(lines)
            continue
        numbers, cells = [], []
        rows = table.block_rows(lines)
        for i, row in rows if checked_rows is None else checked_rows(rows):
            parsed = [_parse_float(v, i, c) for v, c in zip(row, header)]
            for k in signed:
                if parsed[k] < 0:
                    raise ValidationError(f"row {i}: negative {header[k]} {parsed[k]:g}")
            numbers.append(i)
            cells.extend(parsed)
        parts.append((np.array(numbers, dtype=int),
                      np.array(cells, dtype=float).reshape(-1, width)))
    rows, values = zip(*parts)
    return np.concatenate(rows), np.concatenate(values)


def _bulk_block(lines: list[str], width: int, signed: Sequence[int]) -> np.ndarray | None:
    """The (len(lines), width) floats of a block of data lines, converted
    by numpy's text reader; None where the row reader has to read them.

    numpy's reader gives the row reader's values wherever it accepts a
    line of unquoted cells, as both parse with the same routine after
    stripping the same whitespace; it refuses what ``float`` alone takes
    (underscores, non-ASCII digits).  So a block is kept only if it
    holds no quote character and no NUL, no line longer than the csv
    module's field limit, one row of ``width`` values per line (a blank
    line gives no row), and only finite values, >= 0 in the ``signed``
    columns: then the row reader would find no fault in it either.
    """
    text = "".join(lines)
    if ('"' in text or "\x00" in text or text.isspace()
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        floats = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if (floats.shape != (len(lines), width) or not np.isfinite(floats).all()
            or (floats[:, signed] < 0).any()):
        return None
    return floats


class _Table:
    """The data rows of an open CSV table after its header, numbered from
    1 in file order; ``row`` is the last one read.

    ``line_blocks`` hands out up to ``_ROW_BLOCK`` raw lines at a time
    for the bulk pass, which numbers the rows of a block it keeps (one
    per line) and has the csv module read, with ``block_rows``, the one
    it declines.  Iterating reads every row left the same way.  A row
    whose cells are all blank is skipped, and any other must have one
    field per header column.
    """

    def __init__(self, lines: Iterator[str], width: int):
        self._lines, self._width, self.row = lines, width, 0

    def line_blocks(self) -> Iterator[list[str]]:
        while True:
            lines: list[str] = []
            try:
                lines.extend(itertools.islice(self._lines, _ROW_BLOCK))
            except UnicodeDecodeError as exc:
                if not lines:
                    raise
                # the row reader raises it where it would have: after these lines
                self._lines = _raising(exc)
            if not lines:
                return
            yield lines

    def block_rows(self, lines: list[str]) -> Iterator[tuple[int, list[str]]]:
        """The (row number, cells) of a block of lines, and of the lines
        after it that a quoted record open at its last line runs on to."""
        return self._rows(itertools.chain(lines, self._lines), len(lines))

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        return self._rows(self._lines, math.inf)

    def _rows(self, lines: Iterator[str], stop: float) -> Iterator[tuple[int, list[str]]]:
        """Rows read by the csv module until ``stop`` lines are used up."""
        reader = csv.reader(lines)
        for cells in reader:
            self.row += 1
            if "".join(cells).strip():
                if len(cells) != self._width:
                    raise ValidationError(
                        f"row {self.row}: expected {self._width} fields, got {len(cells)}")
                yield self.row, cells
            if reader.line_num >= stop:
                return


def _raising(exc: Exception) -> Iterator[str]:
    raise exc
    yield  # a generator, so that it raises when first read


@contextmanager
def _read_table(source, header: Sequence[str]) -> Iterator[_Table]:
    """Open a CSV table that follows the rules in the module docstring.

    ``source`` is a path, opened as UTF-8 with any leading byte-order
    mark skipped, or an open text handle.  The with-block receives the
    table's ``_Table``.  Every ``ValidationError`` raised in the block,
    by the reader or by the caller, is prefixed with the path when
    ``source`` is one; undecodable bytes and CSV syntax errors are
    turned into such errors.
    """
    table = None  # until the header has been read
    is_path = isinstance(source, (str, Path))
    prefix = f"{source}: " if is_path else ""
    try:
        with (open(source, encoding="utf-8-sig", newline="") if is_path
              else nullcontext(source)) as fh:
            lines = iter(fh)
            first = next(csv.reader(lines), None)
            if first is None or [h.strip() for h in first] != list(header):
                raise ValidationError(f"CSV must start with header {','.join(header)!r}")
            table = _Table(lines, len(header))
            yield table
    except UnicodeDecodeError as exc:  # its position counts from a read chunk, not the file
        bad = exc.object[exc.start:exc.end]
        where = _undecodable_row(source) if is_path else ""
        raise ValidationError(
            f"{prefix}{where}text is not UTF-8 ({exc.reason}: {bad!r})") from None
    except csv.Error as exc:
        where = "" if table is None else f"row {table.row + 1}: "
        raise ValidationError(f"{prefix}{where}{exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{prefix}{exc}") from None


def _undecodable_row(path) -> str:
    """``"row N: "`` for the data row of a file's first byte that is not
    UTF-8 (``""`` in the header), counting CSV records, not lines."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
        return ""
    except UnicodeDecodeError as exc:  # a stand-in ends the text in the bad byte's record
        text = data[:exc.start].decode("utf-8-sig") + "?"
    try:
        row = sum(1 for _ in csv.reader(io.StringIO(text, newline=""))) - 1
    except csv.Error:
        return ""
    return f"row {row}: " if row >= 1 else ""


def _write_table(header: Sequence[str], rows: Iterable[Sequence],
                 destination=None) -> str | None:
    """Write a CSV table: the header, then one line per row.

    Cells are written with ``str``, so a Python float comes out as its
    shortest round-trip ``repr``; pass numpy floats through ``float`` or
    ``tolist`` first.  Returns the text when ``destination`` is None,
    otherwise writes it there as UTF-8 and returns None.
    """
    with (io.StringIO() if destination is None
          else open(destination, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return fh.getvalue() if destination is None else None


def parse_earthquakes(source, region: Region | None = None,
                      record_start: float = 0.0,
                      record_end: float | None = None) -> Catalog:
    """Read an earthquake CSV into a Catalog.

    Args:
        source: path or open text handle.
        region: declared study region.  When omitted, the bounding box of
            the events (padded by 1 km on degenerate axes) is used.
        record_start: record origin, days.  Defaults to 0.
        record_end: record end, days.  Defaults to the last event time.

    Raises:
        ValidationError: missing or wrong header, a bad field or
            negative time (found by the reader), or a time outside the
            record span or an epicentre outside the declared region
            (found by ``Catalog``).  The message names the offending
            1-based data row; the module docstring gives the order.
    """
    with _read_table(source, EARTHQUAKE_HEADER) as table:
        rows, values = _read_floats(table, EARTHQUAKE_HEADER, nonnegative=("time",))
        t, x, y, m = values.T
        if region is None:
            region = _bounding_region(x, y)
        if record_end is None:
            last = float(t.max()) if len(t) else record_start
            record_end = last if last > record_start else record_start + 1.0
        try:
            return Catalog(t, x, y, m, record_start, record_end, region)
        except _EventError as exc:
            raise ValidationError(f"row {rows[exc.position]}: {exc.fault}") from None


def _bounding_region(xs: np.ndarray, ys: np.ndarray) -> Rectangle:
    if not len(xs):
        return Rectangle(0.0, 1.0, 0.0, 1.0)
    x0, x1, y0, y1 = float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 0.5, y1 + 0.5
    return Rectangle(x0, x1, y0, y1)


def serialize_earthquakes(catalog: Catalog, destination=None) -> str | None:
    """Write a catalog back to CSV; returns the text when no destination."""
    columns = (catalog.times, catalog.xs, catalog.ys, catalog.magnitudes)
    return _write_table(EARTHQUAKE_HEADER, zip(*(c.tolist() for c in columns)),
                        destination)


def parse_predictions(source, polygons=None) -> PredictionSet:
    """Read a prediction CSV (and optional polygon sidecar).

    Args:
        source: path or open text handle for the CSV.
        polygons: path to a JSON sidecar, or an already-loaded mapping of
            row index to vertex list, for rows whose cx/cy/radius are empty.

    Raises:
        ValidationError: a bad CSV row (named by its 1-based number) or a
            malformed sidecar (named by its path).
    """
    poly_map: dict[int, ConvexPolygon] = {}
    if polygons is not None:
        is_path = isinstance(polygons, (str, Path))
        name = str(polygons) if is_path else "polygon sidecar"
        try:
            if is_path:
                polygons = json.loads(Path(polygons).read_text(encoding="utf-8"))
            if not isinstance(polygons, dict):
                raise ValidationError("expected an object mapping row indices to vertices")
            for key, verts in polygons.items():
                poly_map[int(key)] = ConvexPolygon(verts)
        except (TypeError, ValueError) as exc:  # includes JSON and ValidationError
            raise ValidationError(f"{name}: {exc}") from None

    row_polygons: dict[int, ConvexPolygon] = {}

    def with_region_cells(table: Iterator[tuple[int, list[str]]]):
        """The rows with their region cells checked and a polygon row's circle
        cells set to zeros; ``row_polygons`` maps a polygon row to its polygon.
        A block the bulk pass keeps has every circle cell filled, so it holds
        only circles."""
        for i, cells in table:
            present = [bool(c.strip()) for c in cells[3:6]]
            if not all(present):
                if any(present) or i - 1 not in poly_map:
                    for cell, column in zip(cells[:3], PREDICTION_HEADER):
                        _parse_float(cell, i, column)  # a window cell at fault comes first
                    raise ValidationError(
                        f"row {i}: cx, cy and radius must be all present or all empty"
                        if any(present) else f"row {i}: no circle columns and no polygon "
                        f"sidecar entry for row index {i - 1}")
                cells = [*cells[:3], "0", "0", "0", cells[6]]
                row_polygons[i] = poly_map[i - 1]
            yield i, cells

    with _read_table(source, PREDICTION_HEADER) as table:
        rows, values = _read_floats(table, PREDICTION_HEADER, checked_rows=with_region_cells)
        issue, start, end, cx, cy, radius, magnitude = values.T
        polygons = [row_polygons.get(i) for i in rows.tolist()]
        is_circle = np.array([polygon is None for polygon in polygons], dtype=bool)
        flat = np.flatnonzero(is_circle & (radius <= 0))
        if len(flat):
            raise ValidationError(f"row {rows[flat[0]]}: circle radius must be positive")
        first: dict = {}  # a circle's key is its (cx, cy, radius), a polygon's itself
        index = [first.setdefault(polygon or circle, len(first)) for polygon, circle
                 in zip(polygons, zip(cx.tolist(), cy.tolist(), radius.tolist()))]
        regions = [Circle(*key) if isinstance(key, tuple) else key for key in first]
        try:
            return PredictionSet(issue, start, end, magnitude, index, regions)
        except _EventError as exc:
            raise ValidationError(f"row {rows[exc.position]}: {exc.fault}") from None


def serialize_predictions(predictions: Sequence[Prediction],
                          destination=None) -> tuple[str, dict] | None:
    """Write predictions to CSV text plus a polygon sidecar mapping."""
    ps = PredictionSet.of(predictions)
    if not all(isinstance(r, (Circle, ConvexPolygon)) for r in ps.regions):
        raise ValidationError("prediction CSV rows carry circles or polygons, not rectangles")
    cells = [[float(r.cx), float(r.cy), float(r.radius)] if isinstance(r, Circle)
             else ["", "", ""] for r in ps.regions]
    sidecar = {str(k): ps.regions[r].vertices.tolist()
               for k, r in enumerate(ps.region_index.tolist())
               if isinstance(ps.regions[r], ConvexPolygon)}
    rows = [[issue, start, end, *cells[r], magnitude] for issue, start, end, r, magnitude
            in zip(ps.issue_times.tolist(), ps.window_starts.tolist(),
                   ps.window_ends.tolist(), ps.region_index.tolist(),
                   ps.min_magnitudes.tolist())]
    text = _write_table(PREDICTION_HEADER, rows, destination)
    if destination is None:
        return text, sidecar
    if sidecar:
        Path(destination).with_suffix(".regions.json").write_text(
            json.dumps(sidecar), encoding="utf-8")
    return None


def validate_predictions_against(predictions: Sequence[Prediction],
                                 catalog: Catalog) -> None:
    """Check every prediction window and region against a catalog's record."""
    PredictionSet.of(predictions).check_record(catalog.region, catalog.record_start,
                                               catalog.record_end)


@dataclass(frozen=True)
class FilterResult:
    """The kept and excluded parts of a filtered catalog, and read-only
    int columns giving each excluded event's input position and that of
    the mainshock which shadowed it."""

    kept: Catalog
    excluded: Catalog
    excluded_index: np.ndarray
    excluded_by: np.ndarray


def _pair_blocks(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple]:
    """Every index pair (i, j) with lo[i] <= j < hi[i], in blocks of at most
    ``_PAIR_BLOCK`` pairs, as (a, i, j): the block's first row, and
    aligned index arrays ordered by i, then j.  Blocks hold whole rows
    and come in row order, except that a row with more pairs than a
    block holds comes alone, split over several blocks."""
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    a = 0
    while a < len(lo):
        base = ends[a] - counts[a]  # pairs before row a
        b = max(int(np.searchsorted(ends, base + _PAIR_BLOCK, side="right")), a + 1)
        if counts[a] > _PAIR_BLOCK:
            for first in range(lo[a], hi[a], _PAIR_BLOCK):
                j = np.arange(first, min(first + _PAIR_BLOCK, hi[a]))
                yield a, np.full(len(j), a), j
        else:
            c = counts[a:b]
            i = np.repeat(np.arange(a, b), c)
            j = np.arange(base, ends[b - 1]) + np.repeat(lo[a:b] - (ends[a:b] - c), c)
            yield a, i, j
        a = b


def filter_aftershocks(catalog: Catalog, policy: AftershockPolicy) -> FilterResult:
    """Remove likely aftershocks from a catalog.

    An event is excluded iff some earlier *retained* event with strictly
    larger magnitude lies within ``policy.time_window`` days and
    ``policy.distance_window`` km.  Deciding events in time order against
    the retained set makes the rule idempotent: filtering a filtered
    catalog changes nothing.  Equal-magnitude pairs never shadow each
    other, and an excluded event cannot itself exclude anything.  The
    culprit named for an exclusion is the first retained shadowing event
    in time order.

    Events are settled in blocks of consecutive events, whose candidate
    pairs (an event and the earlier events in its time window) number
    at most ``_PAIR_BLOCK``, so memory beyond the columns stays bounded.
    Candidates from before a block are already settled, and only the
    retained ones are tested.  ``_settle`` decides the shadowing pairs
    inside a block in one vectorized pass; only events that pass leaves
    open are settled one by one.
    """
    t, x, y, m = catalog.times, catalog.xs, catalog.ys, catalog.magnitudes
    n = len(catalog)
    # events in [t - time_window, t) are the candidates, ties in time excluded
    lo = np.searchsorted(t, t - policy.time_window, side="left")
    hi = np.searchsorted(t, t, side="left")
    r2 = policy.distance_window ** 2
    kept = np.ones(n, dtype=bool)
    culprit = np.full(n, -1)

    def shadowing(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The candidate pairs where j shadows i, in their order."""
        hit = (m[j] > m[i]) & ((x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2 <= r2)
        return i[hit], j[hit]

    for a, i, j in _pair_blocks(lo, hi):
        before = j < a
        ie, je = i[before], j[before]
        live = kept[je] & kept[ie]
        ie, je = shadowing(ie[live], je[live])
        kept[ie] = False
        first = _run_starts(ie)
        culprit[ie[first]] = je[first]
        # pairs inside the block, among the events not yet excluded
        ib, jb = i[~before], j[~before]
        live = kept[ib] & kept[jb]
        _settle(*shadowing(ib[live], jb[live]), kept, culprit)
    excluded_index = np.flatnonzero(~kept)
    excluded_by = culprit[excluded_index]
    for arr in (excluded_index, excluded_by):
        arr.flags.writeable = False
    return FilterResult(catalog.subset(kept), catalog.subset(~kept),
                        excluded_index, excluded_by)


def _settle(child: np.ndarray, parent: np.ndarray, kept: np.ndarray,
            culprit: np.ndarray) -> None:
    """Decide the events shadowed inside one block of the aftershock filter.

    ``(child, parent)`` are the shadowing pairs among the block's events
    not yet settled, ordered by child, then parent; a parent that is no
    child here is kept.  One vectorized pass excludes every event with
    such a parent.  The rest have only shadowers that are children here
    and come earlier, so settling them one by one in time order decides
    each shadower first.  ``kept`` and ``culprit`` are updated in place.
    """
    if not len(child):
        return
    first = np.flatnonzero(_run_starts(child))
    stop = np.append(first[1:], len(child))
    events = child[first]
    inner = events[np.minimum(np.searchsorted(events, parent), len(events) - 1)] == parent
    outer = np.logical_or.reduceat(~inner, first)
    kept[events[outer]] = False
    rest = ~outer
    for e, s, f in zip(events[rest].tolist(), first[rest].tolist(), stop[rest].tolist()):
        kept[e] = not kept[parent[s:f]].any()
    # the culprit is the first kept shadower, first in its child's run
    hit = kept[parent] & ~kept[child]
    c, p = child[hit], parent[hit]
    first = _run_starts(c)
    culprit[c[first]] = p[first]


def _run_starts(sorted_index: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a sorted index array starts."""
    start = np.ones(len(sorted_index), dtype=bool)
    start[1:] = sorted_index[1:] != sorted_index[:-1]
    return start


def serialize_exclusions(result: FilterResult, destination=None) -> str | None:
    """Audit CSV for a filter run: original row, event fields, culprit row."""
    ex = result.excluded
    columns = (result.excluded_index, ex.times, ex.xs, ex.ys, ex.magnitudes,
               result.excluded_by)
    return _write_table(["index", "time", "x", "y", "magnitude", "excluded_by"],
                        zip(*(c.tolist() for c in columns)), destination)

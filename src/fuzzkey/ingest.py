"""CSV loading and min-max normalization.

Dialect: UTF-8 with an optional byte-order mark, first line is the header
(ASCII names without tabs), comma separator, LF or CRLF endings, no quoting
(cells must not contain commas), ASCII decimal numerics (digits 0-9) with
optional sign and exponent.  A column named exactly ``target`` is split
off and carried along; it never influences scoring.

:func:`load_table` streams the file: it reads the header line, then hands
``numpy.loadtxt`` one data line at a time, each first checked against a
gate of exactly one non-blank cell per column made of ASCII numeric
characters.  Neither the text nor a list of its lines is ever held, and the
table is the only full-size buffer: the target is its last column, and the
dataset's rows and target are views of it.  Any miss sends the whole file
to the reference parser: a header it would reject, no data rows, a line the
gate rejects (an empty line, a non-ASCII byte), a cell ``loadtxt`` cannot
convert, a value that is not finite, or an input that cannot be read twice,
such as a pipe.  The reference decodes the whole text, parses the lines
that fit in bulk and every other line cell by cell, and raises the
diagnostic or accepts the file.  Both give bit-identical values, since
``loadtxt`` and ``float`` both convert with ``PyOS_string_to_double``.
"""

from __future__ import annotations

import codecs
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError

_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")
# A cell of the bulk paths: characters of ASCII decimal numerics and the
# spaces or tabs that str.strip and float both remove.  Over these characters
# float() accepts exactly what _NUMBER_RE accepts after stripping: no
# underscores, no inf or nan; anything else raises ValueError.
_BULK_CELL = r"[0-9eE+\-. \t]*"
# A cell of the streamed path: the same, with at least one character that is
# not blank, since loadtxt skips an empty line.
_STREAMED_CELL = rb"[ \t]*[0-9eE+\-.]" + _BULK_CELL.encode()

TARGET_COLUMN = "target"


def _freeze(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Dataset:
    """Rectangular numeric table: feature columns plus an optional target.

    A float64 array handed in as ``rows`` or ``target`` is frozen in place,
    marked read-only rather than copied, so the caller must not write to its
    memory through another view; anything else is converted to a new array.
    """

    feature_names: tuple[str, ...]
    rows: np.ndarray
    target: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        rows = _freeze(np.atleast_2d(self.rows))
        object.__setattr__(self, "rows", rows)
        if self.target is not None:
            object.__setattr__(self, "target", _freeze(self.target))
        if rows.shape[1] != len(self.feature_names):
            raise DataFormatError(
                f"{len(self.feature_names)} feature names but {rows.shape[1]} columns"
            )
        if rows.shape[0] < 1:
            raise DataFormatError("dataset must contain at least one row")
        if not np.all(np.isfinite(rows)):
            raise DataFormatError("dataset values must all be finite")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    def column(self, i: int) -> np.ndarray:
        return self.rows[:, i]


@dataclass(frozen=True)
class NormalizedDataset(Dataset):
    """Dataset rescaled into [0, 1], keeping per-feature (min, max)."""

    ranges: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "ranges", tuple((float(lo), float(hi)) for lo, hi in self.ranges)
        )
        if len(self.ranges) != self.n_features:
            raise DataFormatError("one (min, max) pair per feature required")
        if not np.all((self.rows >= 0.0) & (self.rows <= 1.0)):
            raise DataFormatError("normalized values must lie in [0, 1]")


def _parse_cell(cell: str, row_number: int, column_number: int, name: str) -> float:
    if not _NUMBER_RE.fullmatch(cell):
        raise DataFormatError(
            f"row {row_number}, column {column_number} ({name}): not a number: {cell!r}"
        )
    value = float(cell)
    if not math.isfinite(value):
        raise DataFormatError(
            f"row {row_number}, column {column_number} ({name}): value is not finite: {cell!r}"
        )
    return value


def _parse_row(
    path: str | Path, line: str, row_number: int, names: list[str], drop_incomplete_rows: bool
) -> list[float] | None:
    """Per-cell reference parser for one data line; ``None`` drops the line."""
    cells = [cell.strip() for cell in line.split(",")]
    if len(cells) != len(names):
        raise DataFormatError(
            f"{path}: row {row_number}: expected {len(names)} cells, got {len(cells)}"
        )
    if any(cell == "" for cell in cells):
        if drop_incomplete_rows:
            return None
        column_number = cells.index("") + 1
        raise DataFormatError(f"{path}: row {row_number}, column {column_number}: missing value")
    return [_parse_cell(cell, row_number, i + 1, names[i]) for i, cell in enumerate(cells)]


def _parse_header(path: str | Path, line: str) -> list[str]:
    names = [cell.strip() for cell in line.split(",")]
    if any(name == "" for name in names):
        raise DataFormatError(f"{path}: header contains an empty column name")
    for column_number, name in enumerate(names, start=1):
        # names go verbatim into the tab-separated ASCII selection
        if not name.isascii() or "\t" in name:
            raise DataFormatError(
                f"{path}: column {column_number}: name {name!r} is not ASCII without tabs"
            )
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise DataFormatError(f"{path}: duplicate header names {duplicates}")
    if names == [TARGET_COLUMN]:
        raise DataFormatError(f"{path}: no feature columns besides {TARGET_COLUMN!r}")
    return names


def _columns(names: list[str]) -> list[int]:
    """Column numbers in file order, the target column moved last."""
    return sorted(range(len(names)), key=lambda i: names[i] == TARGET_COLUMN)


def _reference_table(
    path: str | Path, handle: io.BufferedReader, drop_incomplete_rows: bool
) -> tuple[list[str], np.ndarray]:
    """Header names and table, columns ordered by :func:`_columns`, parsed
    line by line from the decoded text of ``handle``: every diagnostic comes
    from here."""
    try:
        text = handle.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if text.startswith("\ufeff"):
        text = text[1:]  # a byte-order mark is no part of the first name
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    names = _parse_header(path, lines[0])

    data = lines[1:]
    table = np.empty((len(data), len(names)))
    full_row = re.compile(_BULK_CELL + f"(?:,{_BULK_CELL}){{{len(names) - 1}}}").fullmatch
    recheck = []
    for i, line in enumerate(data):
        if full_row(line):
            try:
                # numpy parses each str cell with float(), so values are bit-identical
                table[i] = line.split(",")
                continue
            except ValueError:
                pass
        recheck.append(i)
    # lines are rechecked in file order, so the first bad line raises first
    nonfinite = np.flatnonzero(~np.isfinite(table).all(axis=1)).tolist()
    keep = np.ones(len(data), dtype=bool)
    for i in sorted(set(recheck).union(nonfinite)):
        parsed = _parse_row(path, data[i], i + 2, names, drop_incomplete_rows)
        if parsed is None:
            keep[i] = False
        else:
            table[i] = parsed
    if not keep.any():
        raise DataFormatError(f"{path}: no data rows")
    return names, table[np.ix_(keep, _columns(names))]


def _line(raw: bytes) -> bytes:
    """``raw`` without its newline and one carriage return before it."""
    return raw.removesuffix(b"\n").removesuffix(b"\r")


def _streamed_table(
    path: str | Path, handle: io.BufferedReader
) -> tuple[list[str], np.ndarray] | None:
    """Header names and table, columns ordered by :func:`_columns`, in one
    pass over ``handle``; ``None`` on any miss."""
    try:
        header = _line(handle.readline().removeprefix(codecs.BOM_UTF8)).decode("utf-8")
        names = _parse_header(path, header)
    except (UnicodeDecodeError, DataFormatError):
        return None  # the reference may find a UTF-8 error further on first
    if not handle.peek(1):
        return None  # no data rows, which loadtxt would only warn about
    full_row = re.compile(
        _STREAMED_CELL + rb"(?:," + _STREAMED_CELL + rb"){%d}" % (len(names) - 1)
    ).fullmatch

    def data_lines():
        # binary lines split on \n only, as the reference does
        for raw in handle:
            line = _line(raw)
            if not full_row(line):
                raise ValueError("line needs the reference parser")
            yield line

    try:
        table = np.loadtxt(
            data_lines(),
            delimiter=",",
            comments=None,
            usecols=_columns(names),
            ndmin=2,
            encoding="ascii",
        )
    except ValueError:
        return None
    if not np.isfinite(table).all():
        return None
    return names, table


def load_table(path: str | Path, drop_incomplete_rows: bool = False) -> Dataset:
    """Parse a CSV file into a :class:`Dataset`.

    Missing (empty) cells are a hard error unless ``drop_incomplete_rows``
    is set, in which case the whole row is skipped.  Row and column numbers
    in diagnostics are 1-based; the header is row 1.
    """
    with open(path, "rb") as handle:
        found = None
        # a miss reads the file again from the start, which a pipe cannot
        if handle.seekable():
            found = _streamed_table(path, handle)
            handle.seek(0)
        names, table = found or _reference_table(path, handle, drop_incomplete_rows)
    feature_names = tuple(name for name in names if name != TARGET_COLUMN)
    if len(feature_names) == len(names):
        return Dataset(feature_names=feature_names, rows=table)
    # views of the one table: the target column is its last
    return Dataset(feature_names=feature_names, rows=table[:, :-1], target=table[:, -1])


def _column_extremes(rows: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` over axis 0, equal bit for bit to ``float(reduce(column))``.

    Finite values that compare equal share their bits, except 0.0 and -0.0,
    and which of the two a reduction returns depends on its path through
    memory.  So a column whose extreme compares equal to zero is reduced
    again on its own.
    """
    extremes = reduce(rows, axis=0)
    for i in np.flatnonzero(extremes == 0.0).tolist():
        extremes[i] = reduce(rows[:, i])
    return extremes


def normalize(dataset: Dataset) -> NormalizedDataset:
    """Min-max rescale each feature into [0, 1].

    Constant columns carry no ordering information and map to 0.5
    everywhere, which scores as the neutral midpoint downstream.  A column
    whose span ``hi - lo`` overflows is rescaled with halved operands.
    """
    rows = dataset.rows
    lo = _column_extremes(rows, np.min)
    hi = _column_extremes(rows, np.max)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        span = hi - lo
        scaled = rows - lo
        scaled /= span
        overflow = np.flatnonzero(~np.isfinite(span))
        if overflow.size:
            # the span of a finite column can overflow; halved operands cannot
            lo2, hi2 = lo[overflow] / 2, hi[overflow] / 2
            scaled[:, overflow] = (rows[:, overflow] / 2 - lo2) / (hi2 - lo2)
    scaled[:, hi == lo] = 0.5
    return NormalizedDataset(
        feature_names=dataset.feature_names,
        rows=scaled,
        target=dataset.target,
        ranges=tuple(zip(lo.tolist(), hi.tolist())),
    )

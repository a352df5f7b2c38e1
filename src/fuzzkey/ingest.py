"""CSV loading and min-max normalization.

Dialect: UTF-8 with an optional byte-order mark, first line is the header
(ASCII names without tabs), comma separator, LF or CRLF endings, no quoting
(cells must not contain commas), ASCII decimal numerics (digits 0-9) with
optional sign and exponent.  A column named exactly ``target`` is split
off and carried along; it never influences scoring.

:func:`load_table` reads every input, a pipe too, in one pass that never
seeks, and raises the first error in file order; no line may be longer
than :data:`MAX_LINE_BYTES`.  A data line of one non-blank cell of ASCII
numeric characters per column goes to ``numpy.loadtxt`` as it is.  Any
other line is decoded and parsed cell by cell on its own, then goes on as
the ``repr`` of its values, is dropped, or ends the pass with its
diagnostic held.  The gate passes a few bad cells (``1e``, ``1 2``,
``1e999``), so when ``loadtxt`` rejects a cell or reads a value that is not
finite, that chunk's lines are parsed again cell by cell up to the first
bad one.
Values are bit-identical either way, since ``loadtxt`` and ``float`` both
use ``PyOS_string_to_double``.

``loadtxt`` parses the lines a chunk of about ``_SCORE_BLOCK`` values at a
time, and each chunk is written column by column to an unlinked temporary
file, 8 bytes per value, the target column last (:class:`_Spill`).
:func:`load_table` reads that file back into one table, whose views are
the dataset's rows and target.  ``analyze`` reads it back a block of
columns at a time instead (:meth:`_Spill.normalized_blocks`), so a run
from a path never holds the n x F matrix.
"""

from __future__ import annotations

import codecs
import io
import itertools
import math
import re
import tempfile
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError

_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")
# A cell of the streamed pass: characters of ASCII decimal numerics and the
# spaces or tabs that str.strip and float both remove, at least one of them
# not blank, since loadtxt skips an empty line.  Over these characters
# float() accepts exactly what _NUMBER_RE accepts after stripping: no
# underscores, no inf or nan; anything else raises ValueError.
_CELL = rb"[ \t]*[0-9eE+\-.][0-9eE+\-. \t]*"
# a longer line, not counting its newline, is a data format error; reading
# stops one byte past it, so an endless line such as /dev/zero ends too
MAX_LINE_BYTES = 1 << 24
# values per block: a parsed chunk of rows, a read-back block of columns and
# a scoring block each hold about this many, so memory is bounded per block
_SCORE_BLOCK = 1 << 15

TARGET_COLUMN = "target"


def _freeze(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array, dtype=float)
    array.flags.writeable = False
    return array


def _all_finite(array: np.ndarray) -> bool:
    """Whether every value is finite, with no temporary as large as
    ``array``: ``np.min`` and ``np.max`` return NaN if any value is NaN."""
    # min() raises on a zero-size array, whose values are all finite
    return array.size == 0 or bool(np.isfinite(array.min()) and np.isfinite(array.max()))


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
        if not _all_finite(rows):
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
        # finite by now, so the extremes bound every value
        if self.rows.size and not (self.rows.min() >= 0.0 and self.rows.max() <= 1.0):
            raise DataFormatError("normalized values must lie in [0, 1]")


def _parse_cell(path: str | Path, cell: str, row_number: int, column_number: int, name: str) -> float:
    if not _NUMBER_RE.fullmatch(cell):
        raise DataFormatError(
            f"{path}: row {row_number}, column {column_number} ({name}): not a number: {cell!r}"
        )
    value = float(cell)
    if not math.isfinite(value):
        raise DataFormatError(
            f"{path}: row {row_number}, column {column_number} ({name}): value is not finite: {cell!r}"
        )
    return value


def _parse_row(
    path: str | Path, line: str, row_number: int, names: list[str], drop_incomplete_rows: bool
) -> list[float] | None:
    """Per-cell parser for one data line; ``None`` drops the line."""
    n_cells = line.count(",") + 1  # before a split, which would hold every cell of a long line
    if n_cells != len(names):
        raise DataFormatError(f"{path}: row {row_number}: expected {len(names)} cells, got {n_cells}")
    cells = [cell.strip() for cell in line.split(",")]
    if any(cell == "" for cell in cells):
        if drop_incomplete_rows:
            return None
        column_number = cells.index("") + 1
        raise DataFormatError(f"{path}: row {row_number}, column {column_number}: missing value")
    return [_parse_cell(path, cell, row_number, i + 1, names[i]) for i, cell in enumerate(cells)]


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
    counts = Counter(names)
    if len(counts) != len(names):
        duplicates = sorted(name for name, count in counts.items() if count > 1)
        raise DataFormatError(f"{path}: duplicate header names {duplicates}")
    if names == [TARGET_COLUMN]:
        raise DataFormatError(f"{path}: no feature columns besides {TARGET_COLUMN!r}")
    return names


def _columns(names: list[str]) -> list[int]:
    """Column numbers in file order, the target column moved last."""
    return sorted(range(len(names)), key=lambda i: names[i] == TARGET_COLUMN)


def _lines(path: str | Path, handle: io.BufferedIOBase) -> Iterator[tuple[int, int, bytes]]:
    """``(row number, byte offset, line)`` for each line of ``handle`` from its
    start, the line without its newline and one carriage return before it,
    and the first without a byte-order mark, which the offsets count and the
    cap does not.  Lines split on ``\\n`` only, and no read takes more than
    one byte past the cap and a mark."""
    raw = handle.readline(len(codecs.BOM_UTF8) + MAX_LINE_BYTES + 1)
    offset = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    raw, row_number = raw[offset:], 1
    while raw:
        line = raw.removesuffix(b"\n")
        if len(line) > MAX_LINE_BYTES:
            raise DataFormatError(f"{path}: row {row_number} is longer than {MAX_LINE_BYTES} bytes")
        yield row_number, offset, line.removesuffix(b"\r")
        row_number += 1
        offset += len(raw)
        raw = handle.readline(MAX_LINE_BYTES + 1)


def _text(path: str | Path, line: bytes, offset: int) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {offset + exc.start})") from None


def _table(
    path: str | Path, handle: io.BufferedIOBase, drop_incomplete_rows: bool, spill: io.BufferedRandom
) -> tuple[list[str], list[int]]:
    """Header names and the row count of each chunk of the table written to
    ``spill``, in one pass over ``handle`` that never seeks; raises the first
    error in file order.  A chunk of about ``_SCORE_BLOCK`` values goes to
    ``spill`` one column after another, columns ordered by :func:`_columns`."""
    lines = _lines(path, handle)
    header = next(lines, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    names = _parse_header(path, _text(path, header[2], header[1]))
    full_row = re.compile(_CELL + rb"(?:," + _CELL + rb"){%d}" % (len(names) - 1)).fullmatch
    held, numbers = None, []  # numbers: the row number of each line of the chunk

    def data_lines():
        nonlocal held
        streamed = False
        try:
            for row_number, offset, line in lines:
                if not full_row(line):
                    text = _text(path, line, offset)
                    values = _parse_row(path, text, row_number, names, drop_incomplete_rows)
                    if values is None:
                        continue
                    line = ",".join(map(repr, values)).encode()
                streamed = True
                numbers.append(row_number)
                yield line
        except DataFormatError as exc:
            held = exc  # ends the stream; a row above may still hold an earlier error
        if not streamed:
            # no row above to rescan, and loadtxt would only warn about no data
            raise held or DataFormatError(f"{path}: no data rows")

    stream, columns, counts = data_lines(), _columns(names), []
    while chunk := list(itertools.islice(stream, max(1, _SCORE_BLOCK // len(names)))):
        try:
            table = np.loadtxt(
                chunk, delimiter=",", comments=None, usecols=columns, ndmin=2, encoding="ascii"
            )
        except ValueError:
            table = None
        if table is None or not _all_finite(table):
            # the gate passes cells only the per-cell parser names (1e, 1 2, 1e999).
            # Every earlier chunk parsed, so the first bad row is here or held.
            # These lines are ASCII: gate characters, or the reprs of floats
            for row_number, line in zip(numbers, chunk):
                _parse_row(path, line.decode(), row_number, names, drop_incomplete_rows)
            # a backstop: the rescan raises for every cell loadtxt refuses
            raise held or DataFormatError(f"{path}: dataset values must all be finite")
        spill.write(np.ascontiguousarray(table.T))
        counts.append(len(table))
        numbers.clear()
    if held is not None:
        raise held
    return names, counts


class _Spill:
    """A CSV file's table in an unlinked temporary file: chunks of rows, one
    after another, each written one column after another in the order of
    :func:`_columns`.  Any set of adjacent columns of a chunk is one read."""

    def __init__(self, names: list[str], file: io.BufferedRandom, counts: list[int]) -> None:
        self._names, self._file, self._counts = names, file, counts
        self.feature_names = tuple(name for name in names if name != TARGET_COLUMN)
        self.has_target = len(self.feature_names) < len(names)
        self.n_rows = sum(counts)

    def __enter__(self) -> "_Spill":
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()

    def _pieces(self, start: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
        """``(first row, piece)`` for each chunk, the piece its columns
        ``start`` to ``stop`` as a (stop - start) x rows array."""
        row = 0
        for count in self._counts:
            piece = np.empty((stop - start, count))
            self._file.seek(piece.itemsize * (len(self._names) * row + start * count))
            if self._file.readinto(piece) != piece.nbytes:
                raise OSError("the temporary table file ended early")
            yield row, piece
            row += count

    def table(self) -> np.ndarray:
        """The whole n x F table, one row per CSV data row."""
        table = np.empty((self.n_rows, len(self._names)))
        for row, piece in self._pieces(0, len(self._names)):
            table[row : row + piece.shape[1]] = piece.T
        return table

    def normalized_blocks(self) -> Iterator[tuple[np.ndarray, tuple[tuple[float, float], ...]]]:
        """Each block of ``max(1, _SCORE_BLOCK // n)`` features, min-max
        rescaled as a contiguous f x n array, with each feature's ``(min,
        max)``; equal bit for bit to the matching columns and ranges of
        ``normalize(load_table(path))``."""
        n_features = len(self.feature_names)
        width = max(1, _SCORE_BLOCK // self.n_rows)
        for start in range(0, n_features, width):
            block = np.empty((min(width, n_features - start), self.n_rows))
            for row, piece in self._pieces(start, start + len(block)):
                block[:, row : row + piece.shape[1]] = piece
            # the table's columns are strided unless it has only one
            ranges = _rescale(block.T, block.T, strided=len(self._names) > 1)
            yield block, ranges


def _spill(path: str | Path, drop_incomplete_rows: bool) -> _Spill:
    """Parse a CSV file into a :class:`_Spill`, which the caller closes."""
    with open(path, "rb") as handle:
        file = tempfile.TemporaryFile()
        try:
            names, counts = _table(path, handle, drop_incomplete_rows, file)
        except BaseException:
            file.close()
            raise
    return _Spill(names, file, counts)


def load_table(path: str | Path, drop_incomplete_rows: bool = False) -> Dataset:
    """Parse a CSV file into a :class:`Dataset`.

    Missing (empty) cells are a hard error unless ``drop_incomplete_rows``
    is set, in which case the whole row is skipped.  Row and column numbers
    in diagnostics are 1-based; the header is row 1.
    """
    with _spill(path, drop_incomplete_rows) as spill:
        table = spill.table()
    if not spill.has_target:
        return Dataset(feature_names=spill.feature_names, rows=table)
    # the target column is the table's last
    return Dataset(feature_names=spill.feature_names, rows=table[:, :-1], target=table[:, -1])


def _column_extremes(rows: np.ndarray, reduce, strided: bool = False) -> np.ndarray:
    """``reduce`` over axis 0, equal bit for bit to ``float(reduce(column))``.

    Finite values that compare equal share their bits, except 0.0 and -0.0,
    and which of the two a reduction returns depends on its path through
    memory: strided columns pick the same zero whatever their stride, and a
    contiguous column may pick the other.  So a column whose extreme
    compares equal to zero is reduced again on its own, through a strided
    copy if ``strided`` is set: the column stands for one that was strided.
    """
    extremes = reduce(rows, axis=0)
    for i in np.flatnonzero(extremes == 0.0).tolist():
        column = rows[:, i]
        extremes[i] = reduce(np.repeat(column, 2)[::2] if strided else column)
    return extremes


def _rescale(
    rows: np.ndarray, out: np.ndarray, strided: bool = False
) -> tuple[tuple[float, float], ...]:
    """Min-max rescale each column of ``rows`` into ``out``, which may be
    ``rows`` itself; returns each column's ``(min, max)``, taken as
    :func:`_column_extremes` takes them."""
    lo = _column_extremes(rows, np.min, strided)
    hi = _column_extremes(rows, np.max, strided)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        span = hi - lo
        # the span of a finite column can overflow; halved operands cannot.
        # They are taken before the pass below can overwrite ``rows``
        overflow = np.flatnonzero(~np.isfinite(span))
        lo2, hi2 = lo[overflow] / 2, hi[overflow] / 2
        halved = (rows[:, overflow] / 2 - lo2) / (hi2 - lo2)
        np.subtract(rows, lo, out=out)
        out /= span
        out[:, overflow] = halved
    out[:, hi == lo] = 0.5
    return tuple(zip(lo.tolist(), hi.tolist()))


def normalize(dataset: Dataset) -> NormalizedDataset:
    """Min-max rescale each feature into [0, 1], into a new matrix.

    Constant columns carry no ordering information and map to 0.5
    everywhere, which scores as the neutral midpoint downstream.  A column
    whose span ``hi - lo`` overflows is rescaled with halved operands.  The
    dataset's arrays are never written.  The target is copied, so no view
    keeps the dataset's table alive.  A run from a path rescales each block
    of columns it reads back with the same :func:`_rescale`, so its values
    and ranges equal ``normalize(load_table(path))`` bit for bit.
    """
    scaled = np.empty_like(dataset.rows)
    ranges = _rescale(dataset.rows, scaled)
    return NormalizedDataset(
        feature_names=dataset.feature_names,
        rows=scaled,
        target=None if dataset.target is None else dataset.target.copy(),
        ranges=ranges,
    )

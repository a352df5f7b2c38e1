"""CSV loading and min-max normalization.

Dialect: UTF-8 with an optional byte-order mark, first line is the header
(ASCII names without tabs), comma separator, LF or CRLF endings, no quoting
(cells must not contain commas), ASCII decimal numerics (digits 0-9) with
optional sign and exponent.  A column named exactly ``target`` is split
off and carried along; it never influences scoring.  Missing (empty) cells
are an error unless incomplete rows are dropped.  Row and column numbers
in diagnostics are 1-based; the header is row 1.

:func:`_spill` reads every input, a pipe too, in one pass that never
seeks, and raises the first error in file order; no line may be longer
than :data:`MAX_LINE_BYTES`.  ``numpy.loadtxt`` reads each chunk of about
``_SCORE_BLOCK`` values whole if it can; else the per-cell parser reads it
line by line and names its first bad cell.  Wherever ``loadtxt`` reads a
finite value, the per-cell parser reads the same bits: both use
``PyOS_string_to_double``.

Each chunk is written column by column to an unlinked temporary file, 8
bytes per value, the target column last, at a fixed stride per chunk
(:class:`_Spill`).  This process reads and cuts the chunks, and copies
the text of up to ``_ROUND`` chunks at a time to a second unlinked
temporary file, whatever ``jobs`` is.  It forks up to ``jobs`` processes
per round, no more than the usable CPUs or the chunks, which each read
every P-th chunk of the copy, parse it, write it to the file and store
its row count in a map shared with this process.  Then it parses, in file
order, every chunk that no process did: each chunk of a round of one
share (``jobs`` 1, one CPU or one chunk), and each process's chunks from
the one it failed or died on.  So the first error in file order is the
one raised, by this process (:func:`_rounds`).  :func:`_spill` is a
context manager whose ``with`` owns the first file; ``analyze`` reads it
back inside that ``with``, a block of columns at a time, and rescales each
block in place (:meth:`_Spill.normalized_blocks`), so a run holds about
2^15 values per block, or one whole column past 2^15 rows.  One
positional reader, :func:`_read_at`, reads both temporary files.
"""

from __future__ import annotations

import codecs
import io
import itertools
import math
import mmap
import os
import re
import sys
import tempfile
import warnings
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .errors import DataFormatError, naming_writes

_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")
# a longer line, not counting its newline, is a data format error; reading
# stops one byte past it, so an endless line such as /dev/zero ends too
MAX_LINE_BYTES = 1 << 24
# values per block: a parsed chunk of rows holds about this many, and so does
# a read-back block of columns, or one whole column past this many rows;
# scoring takes a block in smaller tiles (``selection._SCORE_TILE``)
_SCORE_BLOCK = 1 << 15
# chunks per round of the parsing processes: the temporary copy holds the
# text of at most this many, and an error is raised at most one round of
# input after its chunk is read
_ROUND = 64

TARGET_COLUMN = "target"


def _all_finite(array: np.ndarray) -> bool:
    """Whether every value is finite, with no temporary as large as
    ``array``: ``np.min`` and ``np.max`` return NaN if any value is NaN."""
    # min() raises on a zero-size array, whose values are all finite
    return array.size == 0 or bool(np.isfinite(array.min()) and np.isfinite(array.max()))


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
    duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
    if duplicates:
        raise DataFormatError(f"{path}: duplicate header names {duplicates}")
    if names == [TARGET_COLUMN]:
        raise DataFormatError(f"{path}: no feature columns besides {TARGET_COLUMN!r}")
    return names


def _columns(names: list[str]) -> list[int]:
    """Column numbers in file order, the target column moved last."""
    return sorted(range(len(names)), key=lambda i: names[i] == TARGET_COLUMN)


def _text(path: str | Path, line: bytes, row_number: int, offset: int) -> str:
    """Row ``row_number``, ``line`` from byte ``offset``, decoded without its
    line ending; it may not be longer than the cap, not counting its newline."""
    if len(line) - line.endswith(b"\n") > MAX_LINE_BYTES:
        raise DataFormatError(f"{path}: row {row_number} is longer than {MAX_LINE_BYTES} bytes")
    try:
        return line.decode("utf-8").removesuffix("\n").removesuffix("\r")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {offset + exc.start})") from None


def _dropped(line: bytes, commas: int) -> bool:
    """Whether the per-cell parser drops ``line``: ASCII, so UTF-8, with
    ``commas`` commas and a cell that ``bytes.strip``, a subset of
    ``str.strip``, leaves empty: without whitespace, ``,line,`` holds ``,,``."""
    cells = b"," + line.translate(None, b" \t\n\r\x0b\x0c") + b","
    return b",," in cells and line.isascii() and line.count(b",") == commas


def _loaded(chunk: list[bytes], names: list[str], drop_incomplete_rows: bool) -> np.ndarray | None:
    """The table of ``chunk`` as ``loadtxt`` reads it, columns in file order,
    or ``None`` unless each line holds one comma fewer than there are
    columns and gives one row, and every value is finite.  In drop mode the
    lines :func:`_dropped` names go first."""
    commas = len(names) - 1
    if drop_incomplete_rows:
        chunk = [line for line in chunk if not _dropped(line, commas)]
    # counted before loadtxt, which would read lines that all hold one extra
    # cell as a wider table, and would split a long line into every cell
    if not all(line.count(b",") == commas for line in chunk):
        return None
    with warnings.catch_warnings():
        # loadtxt warns when no line holds data; the row count refuses that
        warnings.simplefilter("ignore")
        try:
            table = np.loadtxt(chunk, delimiter=",", comments=None, ndmin=2, encoding="ascii")
        except ValueError:
            return None
    # loadtxt skips an empty line
    return table if len(table) == len(chunk) and _all_finite(table) else None


def _parsed(
    path: str | Path, chunk: list[bytes], row_number: int, offset: int, names: list[str], drop: bool
) -> np.ndarray:
    """The table of ``chunk``, whose first line is row ``row_number`` at
    byte ``offset``, parsed line by line with :func:`_parse_row`, columns in
    file order; raises the first error in file order."""
    rows = []
    for row_number, line in enumerate(chunk, start=row_number):
        values = _parse_row(path, _text(path, line, row_number, offset), row_number, names, drop)
        if values is not None:
            rows.append(values)
        offset += len(line)
    return np.array(rows, dtype=float).reshape(-1, len(names))


def _chunks(handle: io.BufferedIOBase, size: int, row_number: int, offset: int) -> Iterator[tuple]:
    """``(index, row number, byte offset, text)`` of each chunk of at most
    ``size`` lines of ``handle``, the first of them row ``row_number`` at
    byte ``offset``; a line that may be past the cap ends its chunk.  A
    chunk's text is one ``bytearray`` of its lines, which this generator
    lets go of before it reads the next chunk, so that the text is the
    only copy of a chunk this process holds."""
    for index in itertools.count():
        text, lines = bytearray(), 0
        while lines < size and (line := handle.readline(MAX_LINE_BYTES + 1)):
            text += line
            lines += 1
            if len(line) > MAX_LINE_BYTES:
                break
        if not lines:
            return
        yield index, row_number, offset, text
        row_number += lines
        offset += len(text)


def _write_at(fd: int, data: bytes | bytearray | np.ndarray, at: int) -> None:
    """Write ``data``, bytes-like or a C-contiguous array, to file descriptor
    ``fd`` from byte ``at``."""
    view = memoryview(data).cast("B")
    # every file written here is a temporary one
    with naming_writes():
        while view:
            count = os.pwrite(fd, view, at)
            view, at = view[count:], at + count


def _read_at(fd: int, length: int, at: int) -> bytes:
    """``length`` bytes of file descriptor ``fd`` from byte ``at``: the
    reader of the round's copy and of the spilled table."""
    data = b""
    while len(data) < length:
        part = os.pread(fd, length - len(data), at + len(data))
        if not part:
            raise OSError("a temporary file ended early")
        data += part
    return data


def _pin(index: int) -> None:
    """Keep this process on the ``index``-th of its usable CPUs, counted
    cyclically, where one is known, so that the parsing processes of a round
    do not crowd onto one CPU."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def _parse_copied(
    parse: Callable, fd: int, index: int, row_number: int, offset: int, at: int, length: int
) -> int:
    """``parse`` of chunk ``index``, whose first line is row ``row_number``
    at byte ``offset`` of the input, and whose text is ``length`` bytes of
    file descriptor ``fd`` from byte ``at``."""
    # split on \n only, as the input was read
    return parse(index, row_number, offset, io.BytesIO(_read_at(fd, length, at)).readlines())


def _parse_round(parse: Callable, fd: int, copied: list[tuple], cap: int) -> list[int]:
    """The row counts of the chunks of ``copied``, each the arguments of
    :func:`_parse_copied` after ``fd``.

    With P = min(``cap``, chunks), share r is chunks r, r + P, ... in
    order.  When P is 2 or more, each share is parsed by a process forked
    for it and kept on CPU r (:func:`_pin`), which stores the row count of
    each chunk in a map it shares with this process, stops at its first
    error and exits with ``os._exit``; it never writes to the standard
    streams it inherited.  A refused fork is not tried again in the round.
    Once every process is reaped, this process parses, in file order, each
    chunk with no count: a chunk that a process failed on, died on or
    never reached, which is every chunk of a lone share and of the shares
    left without a process.  So the error raised is the first in file
    order, and no error crosses from one process to another.  The map's
    last word is set once the round ends, however it ends; a process reads
    it, and whether its parent is still the one that forked it, before each
    chunk, so it stops within a chunk of an interrupted or orphaned round.
    Every process is reaped, however the round ends.
    """
    shares, parent, forked = min(cap, len(copied)), os.getpid(), []
    # anonymous and shared with the processes forked below; the last word,
    # the end of the round, keeps a round of no chunks from an empty map
    counts = np.frombuffer(mmap.mmap(-1, 8 * len(copied) + 8, flags=mmap.MAP_SHARED), dtype=np.int64)
    counts[:-1] = -1  # no chunk is parsed yet
    try:
        for r in range(shares if shares > 1 else 0):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    sys.stdout = sys.stderr = None  # a stray write is dropped
                    _pin(r)
                    for i in range(r, len(copied), shares):
                        if counts[-1] or os.getppid() != parent:
                            break
                        counts[i] = _parse_copied(parse, fd, *copied[i])
                finally:
                    os._exit(0)
            forked.append(pid)
        for pid in forked:
            os.waitpid(pid, 0)
        forked.clear()
        for i, chunk in enumerate(copied):
            if counts[i] < 0:
                counts[i] = _parse_copied(parse, fd, *chunk)
    finally:
        counts[-1] = 1
        for pid in forked:
            # left by an interrupt, which may come after its wait returned
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return counts[:-1].tolist()


def _rounds(parse: Callable, chunks: Iterator[tuple], cap: int) -> list[int]:
    """``parse(*args)`` for each ``args`` of ``chunks``, in rounds of up to
    ``_ROUND`` chunks; the only driver of pass 1.  Each round writes the
    text of its chunks to one unlinked temporary file, from its start, and
    then parses them in up to ``cap`` processes, and in this one whatever
    no process parsed (:func:`_parse_round`).  An error raised
    while a round is read or copied is raised after the chunks copied
    before it are parsed, so an error in one of those comes first."""
    counts: list[int] = []
    with tempfile.TemporaryFile() as copy:
        while True:
            copied, at = [], 0
            try:
                for index, row_number, offset, text in itertools.islice(chunks, _ROUND):
                    _write_at(copy.fileno(), text, at)
                    copied.append((index, row_number, offset, at, len(text)))
                    at += len(text)
                    del text  # before the next chunk is read
            except Exception:
                counts += _parse_round(parse, copy.fileno(), copied, cap)
                raise
            counts += _parse_round(parse, copy.fileno(), copied, cap)
            if len(copied) < _ROUND:
                return counts


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _table(
    path: str | Path,
    handle: io.BufferedIOBase,
    drop_incomplete_rows: bool,
    spill: io.BufferedRandom,
    jobs: int,
) -> tuple[list[str], list[int], int]:
    """Header names, the row count of each chunk of about ``_SCORE_BLOCK``
    values and the stride in bytes between chunks in ``spill``; raises the
    first error in file order.

    One pass splits ``handle`` on ``\\n`` only, never seeks, and reads at
    most one byte past the cap, plus a byte-order mark the cap does not
    count.  The chunks are parsed in rounds from a copy of each round's
    text (:func:`_rounds`), by up to ``jobs`` forked processes, no more
    than the usable CPUs, and by this process where no process parsed
    them: all of them when that is one or ``os.fork`` is missing.  Each
    chunk is read by :func:`_loaded` or else :func:`_parsed`, in file order,
    and written column by column, target last (:func:`_columns`), to
    ``spill`` at its index times the stride.
    """
    header = handle.readline(len(codecs.BOM_UTF8) + MAX_LINE_BYTES + 1)
    text = header.removeprefix(codecs.BOM_UTF8)
    if not text:
        raise DataFormatError(f"{path}: empty file")
    names = _parse_header(path, _text(path, text, 1, len(header) - len(text)))
    size = max(1, _SCORE_BLOCK // len(names))
    stride, columns = 8 * size * len(names), _columns(names)

    def parse(index: int, row_number: int, offset: int, chunk: list[bytes]) -> int:
        # a line that may be past the cap ends its chunk, which only the
        # per-cell parser reads, as it checks the cap
        table = None if len(chunk[-1]) > MAX_LINE_BYTES else _loaded(chunk, names, drop_incomplete_rows)
        if table is None:
            # the first error in this chunk; one in an earlier chunk wins
            table = _parsed(path, chunk, row_number, offset, names, drop_incomplete_rows)
        if len(table):
            _write_at(spill.fileno(), table.T[columns], index * stride)  # a C-contiguous copy
        return len(table)

    cap = min(jobs, usable_cpus()) if hasattr(os, "fork") else 1
    counts = _rounds(parse, _chunks(handle, size, 2, len(header)), cap)
    if not any(counts):
        raise DataFormatError(f"{path}: no data rows")
    return names, counts, stride


class _Spill:
    """A CSV file's table in an unlinked temporary file, open as descriptor
    ``fd``: chunks of rows, each at its index times ``stride`` bytes, and
    written one column after another in the order of :func:`_columns`.  A
    chunk with fewer rows than the stride holds, as drop mode makes, leaves
    a hole before the next.  Any set of adjacent columns of a chunk is one
    read, by :func:`_read_at`, in :meth:`_read`."""

    def __init__(self, names: list[str], fd: int, counts: list[int], stride: int) -> None:
        self._names, self._fd, self._counts, self._stride = names, fd, counts, stride
        self.feature_names = tuple(name for name in names if name != TARGET_COLUMN)
        self.has_target = len(self.feature_names) < len(names)
        self.n_rows = sum(counts)

    def _read(self, start: int, stop: int) -> np.ndarray:
        """Columns ``start`` to ``stop`` of every row, as one contiguous
        (stop - start) x n array: one read per chunk."""
        block, row = np.empty((stop - start, self.n_rows)), 0
        for index, count in enumerate(self._counts):
            data = _read_at(self._fd, 8 * (stop - start) * count, index * self._stride + 8 * start * count)
            # a chunk that drop mode emptied has no rows, which -1 cannot infer
            block[:, row : row + count] = np.frombuffer(data).reshape(stop - start, count)
            row += count
        return block

    def normalized_blocks(self) -> Iterator[tuple[np.ndarray, tuple[tuple[float, float], ...]]]:
        """Each block of ``max(1, _SCORE_BLOCK // n)`` features, min-max
        rescaled in place by :func:`_rescale` as a contiguous f x n array,
        with each feature's ``(min, max)``, whose zeros take their sign from
        the feature's own values alone (:func:`_column_extremes`)."""
        n_features = len(self.feature_names)
        width = max(1, _SCORE_BLOCK // self.n_rows)
        for start in range(0, n_features, width):
            block = self._read(start, min(start + width, n_features))
            yield block, _rescale(block.T)


@contextmanager
def _spill(path: str | Path, drop_incomplete_rows: bool, jobs: int = 1) -> Iterator[_Spill]:
    """Parse a CSV file into a :class:`_Spill` that lasts as long as the
    ``with``, in up to ``jobs`` processes (see :func:`_table`).  The input
    is opened before the temporary file and closed before the ``with``
    body runs."""
    with open(path, "rb") as handle, tempfile.TemporaryFile() as file:
        names, counts, stride = _table(path, handle, drop_incomplete_rows, file, jobs)
        handle.close()
        yield _Spill(names, file.fileno(), counts, stride)


def _column_extremes(rows: np.ndarray, reduce) -> np.ndarray:
    """``reduce``, ``np.min`` or ``np.max``, over axis 0, with the sign of
    each extreme that compares equal to zero set by one rule.

    Finite values that compare equal share their bits, except 0.0 and
    -0.0, and which of the two a numpy reduction returns depends on its
    loop: on the memory layout, the CPU and the numpy build.  So the zero
    is chosen here, by the rule numpy 2.4's strided loop follows.  A
    column's n values are visited in this order: value 0; then lanes 0 to
    7 in turn, lane j holding the indices i in 1..8m with (i - 1) mod 8 = j
    in order, where 8m is the largest multiple of 8 below n; then the
    values left, in order.  The last zero visited is kept.  Each extreme
    thus depends only on its column's values.
    """
    extremes = reduce(rows, axis=0)
    zero = np.flatnonzero(extremes == 0.0)
    if len(zero):
        n = len(rows)
        lanes = np.arange(1, 8 * ((n - 1) // 8) + 1).reshape(-1, 8).T.ravel()
        backwards = np.concatenate(([0], lanes, np.arange(len(lanes) + 1, n)))[::-1]
        # the first zero of each column visited backwards is the last one visited
        visited = rows[backwards[:, None], zero]
        extremes[zero] = visited[np.argmax(visited == 0.0, axis=0), np.arange(len(zero))]
    return extremes


def _rescale(rows: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Min-max rescale each column of ``rows`` into [0, 1] in place; returns
    each column's ``(min, max)``, taken as :func:`_column_extremes` takes
    them.

    Constant columns carry no ordering information and map to 0.5
    everywhere, which scores as the neutral midpoint downstream.  A column
    whose span ``hi - lo`` overflows is rescaled with halved operands.
    """
    lo = _column_extremes(rows, np.min)
    hi = _column_extremes(rows, np.max)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        span = hi - lo
        # the span of a finite column can overflow; halved operands cannot.
        # They are taken before the pass below overwrites ``rows``
        overflow = np.flatnonzero(~np.isfinite(span))
        lo2, hi2 = lo[overflow] / 2, hi[overflow] / 2
        halved = (rows[:, overflow] / 2 - lo2) / (hi2 - lo2)
        rows -= lo
        rows /= span
        rows[:, overflow] = halved
    rows[:, hi == lo] = 0.5
    return tuple(zip(lo.tolist(), hi.tolist()))

import codecs
import errno
import io
import math
import os
import tempfile
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzkey import DataFormatError, PipelineConfig, analyze, make_uniform_partition, relevance_inference
from fuzzkey import ingest
from fuzzkey.ingest import _columns, _parse_cell, _parse_header, _parse_row


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


def read_table(path, drop_incomplete_rows=False):
    """Feature names, feature rows and target column (None without one) of
    the table pass 1 writes for ``path``, read back whole."""
    with ingest._spill(path, drop_incomplete_rows) as spill:
        table = spill._read(0, len(spill._names)).T
    # the target column is the table's last
    target = table[:, -1] if spill.has_target else None
    return spill.feature_names, table[:, : len(spill.feature_names)], target


class TestLoadTable:
    def test_minimal_table(self, tmp_path):
        names, rows, target = read_table(write(tmp_path, "a,b\n1,2\n3,4\n"))
        assert names == ("a", "b")
        assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert target is None

    def test_target_column_split(self, tmp_path):
        names, rows, target = read_table(write(tmp_path, "a,target,b\n1,0,2\n3,1,4\n"))
        assert names == ("a", "b")
        assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert target.tolist() == [0.0, 1.0]

    def test_ragged_row_reports_row_number(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 2"):
            read_table(write(tmp_path, "a,b\n1\n"))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 3, column 2"):
            read_table(write(tmp_path, "a,b\n1,2\n3,oops\n"))

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="duplicate"):
            read_table(write(tmp_path, "a,a\n1,2\n"))

    def test_duplicate_header_names_are_listed_once_and_sorted(self, tmp_path):
        path = write(tmp_path, "b,a,b,c,target,a,a\n1,2,3,4,5,6,7\n")
        with pytest.raises(DataFormatError) as got:
            read_table(path)
        assert str(got.value) == f"{path}: duplicate header names ['a', 'b']"

    def test_zero_data_rows(self, tmp_path):
        with pytest.raises(DataFormatError, match="no data rows"):
            read_table(write(tmp_path, "a,b\n"))

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_table(tmp_path / "nope.csv")

    def test_missing_value_is_an_error(self, tmp_path):
        with pytest.raises(DataFormatError, match="missing value"):
            read_table(write(tmp_path, "a,b\n1,\n"))

    def test_drop_incomplete_rows(self, tmp_path):
        _, rows, _ = read_table(write(tmp_path, "a,b\n1,\n3,4\n"), drop_incomplete_rows=True)
        assert rows.tolist() == [[3.0, 4.0]]

    def test_dropping_every_row_leaves_no_data_rows(self, tmp_path):
        path = write(tmp_path, "a,b\n1,\n, \t\n")
        with pytest.raises(DataFormatError) as got:
            read_table(path, drop_incomplete_rows=True)
        assert str(got.value) == f"{path}: no data rows"

    def test_crlf_line_endings(self, tmp_path):
        _, rows, _ = read_table(write(tmp_path, "a,b\r\n1,2\r\n"))
        assert rows.tolist() == [[1.0, 2.0]]

    def test_signed_and_exponent_numerics(self, tmp_path):
        _, rows, _ = read_table(write(tmp_path, "a,b,c\n-1.5,+2e3,.25\n"))
        assert rows.tolist() == [[-1.5, 2000.0, 0.25]]

    @pytest.mark.parametrize("bad", ["nan", "inf", "1_000", "0x1f", "1,5", "\u0661\u0662", "\uff15"])
    def test_non_decimal_spellings_rejected(self, tmp_path, bad):
        with pytest.raises(DataFormatError):
            read_table(write(tmp_path, f"a,b\n{bad},2\n"))

    def test_only_target_column(self, tmp_path):
        with pytest.raises(DataFormatError, match="no feature columns"):
            read_table(write(tmp_path, "target\n1\n"))

    def test_empty_header_name(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty column name"):
            read_table(write(tmp_path, "a,,c\n1,2,3\n"))

    def test_byte_order_mark_is_no_part_of_the_first_name(self, tmp_path):
        names, _, _ = read_table(write(tmp_path, "\ufeffa,b\n1,2\n"))
        assert names == ("a", "b")

    @pytest.mark.parametrize(
        "data, message",
        [
            (codecs.BOM_UTF8, "empty file"),
            (codecs.BOM_UTF8 + b"\n1\n", "header contains an empty column name"),
            (codecs.BOM_UTF8 + b"a,\xff\n1,2\n", "not UTF-8 text (byte 5)"),
        ],
        ids=["only-a-mark", "mark-then-newline", "utf-8-error-in-the-header"],
    )
    @pytest.mark.parametrize("how", ["file", "pipe"])
    def test_byte_order_mark_is_read_with_the_header(self, tmp_path, data, message, how):
        # no read goes back: the mark is stripped from the first line read,
        # and the offset of a UTF-8 error still counts its three bytes
        path, read_end = pipe_or_file(data, how, tmp_path)
        try:
            with pytest.raises(DataFormatError) as got:
                read_table(path)
        finally:
            if read_end is not None:
                os.close(read_end)
        assert str(got.value) == f"{path}: {message}"

    def test_empty_line_is_a_missing_value(self, tmp_path):
        # loadtxt skips an empty line; in a one-column table it is a missing cell
        path = write(tmp_path, "a\n1\n\n2\n")
        with pytest.raises(DataFormatError) as got:
            read_table(path)
        assert str(got.value) == f"{path}: row 3, column 1: missing value"
        assert read_table(path, drop_incomplete_rows=True)[1].tolist() == [[1.0], [2.0]]

    def test_lone_carriage_return_does_not_split_a_line(self, tmp_path):
        path = write(tmp_path, "a\n1\r2\n")
        with pytest.raises(DataFormatError) as got:
            read_table(path)
        assert str(got.value) == f"{path}: row 2, column 1 (a): not a number: '1\\r2'"

    @pytest.mark.parametrize("name", ["x\ty", "\u00e9t\u00e9", "\ufeffa"], ids=["tab", "non-ascii", "second-bom"])
    def test_header_name_must_be_ascii_without_tabs(self, tmp_path, name):
        # selected names are written verbatim into the tab-separated ASCII selection
        with pytest.raises(DataFormatError, match="column 2: name .* is not ASCII without tabs"):
            read_table(write(tmp_path, f"a,{name}\n1,2\n"))


finite = st.floats(allow_nan=False, allow_infinity=False)


def spell(value, style, digits):
    """One cell spelling of ``value``; the expected value is float() of it."""
    if style == "repr":
        return repr(value)
    if style == "exp":
        text = "%.*e" % (digits, value)
        # rounding the mantissa up can carry past the largest double
        return text if np.isfinite(float(text)) else repr(value)
    if style == "plus":
        return "+" + repr(abs(value))
    if style == "no-leading-zero":
        # 0.25 -> .25, -0.5 -> -.5
        return repr(value).replace("0.", ".", 1) if abs(value) < 1 else repr(value)
    # trailing dot: 3.0 -> 3.
    return f"{int(value)}." if abs(value) < 1e15 else repr(value)


@st.composite
def numeric_tables(draw):
    n_rows = draw(st.integers(min_value=1, max_value=12))
    n_columns = draw(st.integers(min_value=1, max_value=5))
    target_at = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n_columns)))
    names = [f"f{i}" for i in range(n_columns)]
    if target_at is not None:
        names.insert(target_at, "target")
    pad = st.sampled_from(["", " ", "\t", "  ", " \t"])
    cell = st.tuples(
        finite,
        st.sampled_from(["repr", "exp", "plus", "no-leading-zero", "trailing-dot"]),
        st.integers(min_value=0, max_value=30),
        pad,
        pad,
    ).map(lambda c: c[3] + spell(c[0], c[1], c[2]) + c[4])
    row = st.lists(cell, min_size=len(names), max_size=len(names))
    rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    return names, target_at, rows


NUMERIC = "0123456789eE+-. \t"
# every ASCII character a cell can hold: a newline ends the line, a comma the cell
ASCII_CELL = [chr(code) for code in range(128) if chr(code) not in "\n,"]


def loadtxt_value(cell):
    """The value ``loadtxt`` reads from ``cell`` as the first of two cells,
    as the loader calls it, or None where it refuses the line or reads a
    value that is not finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            table = np.loadtxt(
                [f"{cell},1\n".encode("ascii")],
                delimiter=",",
                comments=None,
                usecols=[0, 1],
                ndmin=2,
                encoding="ascii",
            )
        except ValueError:
            return None
    return float(table[0, 0]) if table.shape == (1, 2) and np.isfinite(table[0, 0]) else None


class TestBulkParsing:
    """Pass 1 against float() of every stripped cell, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(numeric_tables(), st.sampled_from(["\n", "\r\n"]))
    def test_values_match_float_of_each_cell(self, tmp_path_factory, table, newline):
        names, target_at, rows = table
        text = newline.join([",".join(names)] + [",".join(r) for r in rows]) + newline
        path = tmp_path_factory.mktemp("bulk") / "table.csv"
        path.write_bytes(text.encode("ascii"))
        got_names, got_rows, got_target = read_table(path)
        values = np.array([[float(c.strip()) for c in r] for r in rows])
        features = [i for i, name in enumerate(names) if name != "target"]
        assert got_names == tuple(names[i] for i in features)
        assert got_rows.tobytes() == np.ascontiguousarray(values[:, features]).tobytes()
        if target_at is None:
            assert got_target is None
        else:
            assert got_target.tobytes() == np.ascontiguousarray(values[:, target_at]).tobytes()

    @settings(max_examples=600, deadline=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from(NUMERIC), st.sampled_from(ASCII_CELL)), max_size=8))
    def test_numeric_characters_follow_the_per_cell_parser(self, tmp_path_factory, cell):
        # loadtxt reads a chunk whole when every value it reads is finite, so
        # wherever it reads a finite value the per-cell parser must read the
        # same bits; pass 1 gives the per-cell parser's value or message
        path = tmp_path_factory.mktemp("cell") / "cell.csv"
        path.write_bytes(f"a,b\n{cell},1\n".encode("ascii"))
        read = loadtxt_value(cell)
        stripped = cell.strip()
        if stripped == "":
            assert read is None
            with pytest.raises(DataFormatError, match="row 2, column 1: missing value"):
                read_table(path)
            return
        try:
            expected = _parse_cell(path, stripped, 2, 1, "a")
        except DataFormatError as exc:
            assert read is None
            with pytest.raises(DataFormatError) as got:
                read_table(path)
            assert str(got.value) == str(exc)
            return
        assert read is None or read.hex() == expected.hex()
        assert read_table(path)[1][0, 0].hex() == expected.hex()

    @pytest.mark.parametrize("number", ["0", "-1", "+2.5", ".5e-3", "7.", "1e999"])
    def test_loadtxt_reads_no_cell_the_per_cell_parser_refuses(self, number):
        # every ASCII character a cell can hold, alone, doubled and at each
        # place in a number
        for char in ASCII_CELL:
            cells = [char, char * 2, char + number + char]
            cells += [number[:i] + char + number[i:] for i in range(len(number) + 1)]
            for cell in cells:
                read = loadtxt_value(cell)
                if read is not None:
                    assert _parse_cell("data.csv", cell.strip(), 2, 1, "a").hex() == read.hex(), cell

    @pytest.mark.parametrize(
        "cell", ["1e999", "-1e999", "\u0661\u0662", "\u00a07", "1 2", "1e", "+-1", "."]
    )
    def test_rechecked_lines_match_the_per_cell_parser(self, tmp_path, cell):
        # non-finite, non-ASCII or unparsable: loadtxt refuses the chunk, and
        # the per-cell parser reads it, or names the bad cell
        path = write(tmp_path, f"a,b\n1,2\n{cell},3\n")
        try:
            expected = _parse_cell(path, cell.strip(), 3, 1, "a")
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as got:
                read_table(path)
            assert str(got.value) == str(exc)
            return
        assert read_table(path)[1][1, 0].hex() == expected.hex()


ODD_CELLS = [
    *["", " ", "\t", "1e999", "-1e999", "1e-400", "-1e-400", "1 2", " 7 ", "nan", "1_0", "x"],
    *["inf", "-Infinity", "0x10", '"1"', "1\x00", "\x0b1", "\x1c", "\u00a07"],
]


def rarely(odds):
    """True about once in ``odds`` draws."""
    return st.sampled_from([False] * (odds - 1) + [True])


@st.composite
def csv_files(draw):
    """CSV bytes loadtxt reads, and the misses around them."""
    n_features = draw(st.integers(min_value=1, max_value=4))
    names = [f"c{j}" for j in range(n_features)]
    target_at = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n_features)))
    if target_at is not None:
        names.insert(target_at, "target")
    if draw(rarely(8)):
        # empty, duplicate, non-ASCII, tabbed or padded; ["target"] has no features
        at = draw(st.integers(min_value=0, max_value=len(names) - 1))
        names[at] = draw(st.sampled_from(["", "c0", "\u00e9t\u00e9", "x\ty", " c9 ", "target"]))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(min_value=-(10**6), max_value=10**6).map(str),
    )
    cell = rarely(20).flatmap(lambda odd: st.sampled_from(ODD_CELLS) if odd else number)
    rows = draw(st.lists(st.lists(cell, min_size=len(names), max_size=len(names)), max_size=6))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    if rows and draw(rarely(6)):
        at = draw(st.integers(min_value=1, max_value=len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "1", "1,2,3,4,5,6", "1\r2"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(rarely(8)):
        # anywhere, also after a malformed line, which is then reported first
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9"])) + data[at:]
    return data


def _reference_table(path, data, drop_incomplete_rows):
    """Header names and table, columns ordered by ``_columns``, parsed cell
    by cell from ``data``: each line is decoded on its own, so the first
    error in file order is the one raised."""
    body = data.removeprefix(codecs.BOM_UTF8)
    offset = len(data) - len(body)
    lines = body.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    rows = []
    for row_number, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8").removesuffix("\r")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text (byte {offset + exc.start})") from None
        offset += len(line) + 1
        if row_number == 1:
            names = _parse_header(path, text)
            continue
        parsed = _parse_row(path, text, row_number, names, drop_incomplete_rows)
        if parsed is not None:
            rows.append(parsed)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return names, np.array(rows)[:, _columns(names)]


class TestStreaming:
    """Pass 1 against the per-cell reference parser."""

    @settings(max_examples=400, deadline=None)
    @given(csv_files(), st.booleans(), st.sampled_from([1, 2, 7, ingest._SCORE_BLOCK]))
    @example(b"a\n1\n\n2\n", False, 1)  # loadtxt skips an empty line
    @example(b"a\n1\r2\n", False, 1)  # universal newlines split this line
    @example(b"a,b\n1,x\n2,\xff\n", True, 2)  # the earlier bad line is reported first
    @example(b"a,b\n\xff,\n2,3\n", True, 2)  # also in a line that would be dropped
    @example(b"\xef\xbb\xbfa\n1\n\xe9\n", False, 1)  # the offset counts the mark and the header
    @example(b"a\n1e\nx\n", False, 1)  # loadtxt rejects a cell above another bad line
    @example(b"a\n1\n2\n1e\nx\n", False, 1)  # ... in a later chunk of rows
    @example(b"a,b\n1,2\n,3\n1e999,4\n", True, 4)  # a dropped row inside a refused chunk
    @example(b"a,b\n1,,2\n3,4\n", True, 4)  # too many cells: no incomplete row to drop
    def test_matches_the_reference(self, tmp_path_factory, data, drop_incomplete_rows, block):
        # ``block`` sets the chunks of rows the parser writes out, down to one row
        path = tmp_path_factory.mktemp("stream") / "data.csv"
        path.write_bytes(data)
        try:
            names, table = _reference_table(path, data, drop_incomplete_rows)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as got, mock.patch.object(ingest, "_SCORE_BLOCK", block):
                read_table(path, drop_incomplete_rows)
            assert str(got.value) == str(exc)
            return
        with mock.patch.object(ingest, "_SCORE_BLOCK", block):
            got_names, rows, target = read_table(path, drop_incomplete_rows)
        features = [name for name in names if name != "target"]
        assert got_names == tuple(features)
        assert rows.tobytes() == table[:, : len(features)].tobytes()
        if len(features) == len(names):
            assert target is None
        else:
            assert target.tobytes() == table[:, -1].tobytes()

    @pytest.mark.parametrize(
        "text, how",
        [
            ("a,b,target\n1,2,3\n4,5,6\n", "file"),
            ("\ufefftarget,a,b\r\n1,2,3\r\n4,5,6\r\n", "file"),
            ("a,target,b\n1, 2 ,3\n4,\t5,6", "file"),
            ("a\n1e-400\n-0\n", "file"),
            ("a,target,b\r\n1,2,3\r\n4,5,6\r\n", "pipe"),
            ("a,b\n1,\n, \t\n3,4\nx,\r\n\t,5\n6,7\n", "drop"),
        ],
        ids=[
            "target-last",
            "bom-crlf-target-first",
            "no-final-newline",
            "one-column",
            "pipe",
            "drop-incomplete-rows",
        ],
    )
    def test_clean_files_never_reach_the_reference(self, tmp_path, monkeypatch, text, how):
        path = write(tmp_path, text)
        drop = how == "drop"
        expected_names, expected_rows, expected_target = read_table(path, drop)
        if drop:
            assert expected_rows.tolist() == [[3.0, 4.0], [6.0, 7.0]]
        if how == "pipe":
            read_end, write_end = os.pipe()
            os.write(write_end, text.encode())
            os.close(write_end)
            path = f"/dev/fd/{read_end}"

        parsed = []

        def parse_row(path, line, row_number, names, drop_incomplete_rows):
            values = _parse_row(path, line, row_number, names, drop_incomplete_rows)
            parsed.append((row_number, values))
            return values

        monkeypatch.setattr(ingest, "_parse_row", parse_row)
        try:
            names, rows, target = read_table(path, drop)
        finally:
            if how == "pipe":
                os.close(read_end)
        # no line of a clean file reaches the per-cell parser; in drop mode
        # the filter removes every blank cell, empty or whitespace alike
        assert parsed == []
        assert names == expected_names
        assert rows.tobytes() == expected_rows.tobytes()
        assert (target is None) == (expected_target is None)
        if target is not None:
            assert target.tobytes() == expected_target.tobytes()

    @pytest.mark.parametrize("cell", ["1e", "1 2", "1e999"])
    @pytest.mark.parametrize("at", ["row-2", "last-row"])
    @pytest.mark.parametrize("held", ["bad-cell", "utf-8", "none"])
    def test_rescan_names_a_cell_the_gate_passed(self, tmp_path, cell, at, held):
        # loadtxt rejects the cell, or reads it as inf, and the per-cell
        # parser names it before the bad line below it, from a file and
        # from a pipe alike
        rows = ["1,2"] * 4
        rows[0 if at == "row-2" else -1] = f"{cell},2"
        tail = {"bad-cell": b"x,2\n3,4\n", "utf-8": b"\xe9,2\n", "none": b""}[held]
        data = "\n".join(["a,b", *rows, ""]).encode() + tail
        row_number = 2 if at == "row-2" else 5
        for how in ("file", "pipe"):
            path, read_end = pipe_or_file(data, how, tmp_path)
            try:
                with pytest.raises(DataFormatError) as got:
                    read_table(path)
            finally:
                if read_end is not None:
                    os.close(read_end)
            with pytest.raises(DataFormatError) as expected:
                _parse_cell(path, cell, row_number, 1, "a")
            assert str(got.value) == str(expected.value)

    def test_rescan_parses_only_the_failing_chunk(self, tmp_path, monkeypatch):
        # two columns and a block of 6 values make chunks of 3 rows; 1e999
        # sits in the last of 7 chunks, and loadtxt reads the rows above it
        rows = [f"{i},2" for i in range(20)] + ["1e999,2"]
        path = write(tmp_path, "\n".join(["a,b", *rows, ""]))
        parsed = []

        def parse_row(path, line, row_number, names, drop_incomplete_rows):
            parsed.append(row_number)
            return _parse_row(path, line, row_number, names, drop_incomplete_rows)

        monkeypatch.setattr(ingest, "_SCORE_BLOCK", 6)
        monkeypatch.setattr(ingest, "_parse_row", parse_row)
        with pytest.raises(DataFormatError) as got:
            read_table(path)
        assert str(got.value) == f"{path}: row 22, column 1 (a): value is not finite: '1e999'"
        assert parsed == [20, 21, 22]

    def test_a_pipe_streams(self):
        # read whole first, the text alone would be 2.7 tables at this size.
        # The table is far larger than one chunk, whose size is fixed
        table = np.random.default_rng(7).standard_normal((40_000, 50))
        names = [f"x{i}" for i in range(49)] + ["target"]
        lines = [",".join(names)] + [",".join(map(repr, row)) for row in table.tolist()]
        data = ("\n".join(lines) + "\n").encode()
        del lines
        with pipe_from_thread(data) as path:
            tracemalloc.start()
            try:
                got = analyze(path, PipelineConfig(k=3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got.n_rows == len(table)
        # analyze keeps neither the text nor the table
        assert peak <= 0.35 * table.nbytes

    def test_load_and_normalize_peak_near_the_matrix(self, tmp_path):
        # the text, a list of its lines and copies of the table used to
        # coexist: about 8.6 matrices at this size.  Here pass 1 is read
        # back whole and its feature columns rescaled in place
        table = np.random.default_rng(4).standard_normal((4000, 25))
        names = [f"x{i}" for i in range(24)] + ["target"]
        lines = [",".join(names)] + [",".join(map(repr, row)) for row in table.tolist()]
        path = write(tmp_path, "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            with ingest._spill(path, False) as spill:
                loaded = spill._read(0, len(spill._names)).T
            ingest._rescale(loaded[:, :-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded[:, -1].tobytes() == table[:, -1].tobytes()
        assert peak <= 3.5 * table.nbytes


# ties, subnormals and spans that overflow
extreme_cell = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def columns_of(n):
    """Columns of ``n`` cells; in some the minimum or the maximum is a signed
    zero, whose sign :func:`zero_kept` states."""
    return st.one_of(
        st.lists(extreme_cell, min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, 0.5, 1.0]), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, -0.25, -1.0]), min_size=n, max_size=n),
        extreme_cell.map(lambda v: [v] * n),  # a constant column
    )


class TestNormalize:
    """``_rescale``, which pass 2 runs in place on each block it reads back."""

    def test_three_point_column(self):
        rows = np.array([[2.0], [4.0], [6.0]])
        assert ingest._rescale(rows) == ((2.0, 6.0),)
        assert rows[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_half(self):
        rows = np.array([[5.0], [5.0]])
        ingest._rescale(rows)
        assert rows[:, 0].tolist() == [0.5, 0.5]

    def test_unit_range_is_fixed_point(self):
        rows = np.array([[0.0], [1.0]])
        ingest._rescale(rows)
        assert rows[:, 0].tolist() == [0.0, 1.0]

    def test_idempotence(self):
        rng = np.random.default_rng(15)
        rows = rng.uniform(-50, 50, size=(12, 4))
        rows[:, 2] = 7.0  # a constant column stays at 0.5
        ingest._rescale(rows)
        once = rows.copy()
        ingest._rescale(rows)
        assert np.array_equal(once, rows)

    def test_range_and_extremes(self):
        rng = np.random.default_rng(16)
        rows = rng.normal(size=(30, 3)) * 100
        ingest._rescale(rows)
        assert rows.min() >= 0.0 and rows.max() <= 1.0
        for i in range(3):
            assert rows[:, i].min() == 0.0
            assert rows[:, i].max() == 1.0

    def test_order_preserved_within_feature(self):
        rng = np.random.default_rng(17)
        column = rng.uniform(-10, 10, size=25)
        rows = column.reshape(-1, 1).copy()
        ingest._rescale(rows)
        order = np.argsort(column)
        assert np.all(np.diff(rows[order, 0]) >= 0)

    def test_target_carried_through(self, tmp_path):
        # no block holds the target column, which reads back as written
        with ingest._spill(write(tmp_path, "a,target\n1,1\n2,0\n"), False) as spill:
            blocks = [block.tolist() for block, _ in spill.normalized_blocks()]
            assert spill.has_target and spill._read(0, len(spill._names)).T[:, -1].tolist() == [1.0, 0.0]
        assert blocks == [[[0.0, 1.0]]]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=40).flatmap(lambda n: st.lists(columns_of(n), min_size=1, max_size=8)))
    def test_matches_per_column_reference(self, columns):
        rows = np.array(columns).T.copy()
        expected, ranges = per_column_normalize(rows)
        got = ingest._rescale(rows)
        assert rows.tobytes() == expected.tobytes()
        assert [(lo.hex(), hi.hex()) for lo, hi in got] == [(lo.hex(), hi.hex()) for lo, hi in ranges]


# column lengths, with those next to a multiple of 8 drawn often, as the
# lanes of the zero rule end there
lengths = st.one_of(
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=12).flatmap(lambda m: st.sampled_from([8 * m - 1, 8 * m, 8 * m + 1, 8 * m + 2])),
)


def zero_blocks(n):
    """f x n blocks, f 1 to 12, of signed zeros beside values of one sign,
    so that every extreme on that sign's other side is a zero."""
    return st.sampled_from([1.0, -1.0]).flatmap(
        lambda sign: st.lists(
            st.lists(st.sampled_from([0.0, -0.0, sign, 2.5 * sign]), min_size=n, max_size=n), min_size=1, max_size=12
        )
    )


class TestZeroRule:
    """``_column_extremes`` keeps the zero that :func:`zero_kept` names."""

    @settings(max_examples=200, deadline=None)
    @given(lengths.flatmap(zero_blocks))
    def test_matches_the_reference(self, columns):
        # f x n, as normalized_blocks holds a block, and reduced as its transpose
        block = np.array(columns)
        for at, reduce in enumerate((np.min, np.max)):
            got = ingest._column_extremes(block.T, reduce)
            assert [value.hex() for value in got.tolist()] == [column_extremes(c)[at].hex() for c in columns]
            if np.__version__.startswith("2.4."):
                # the rule is the one numpy 2.4's strided loop follows
                strided = [float(reduce(np.repeat(column, 2)[::2])) for column in block]
                assert [value.hex() for value in got.tolist()] == [value.hex() for value in strided]


def zero_kept(column):
    """The zero that the program keeps as the extreme of ``column``, a list
    of floats whose minimum or maximum compares equal to 0.0: of its zeros,
    the last visited in the order value 0, then lanes 0 to 7 of the indices
    1..8m, lane j holding those with (i - 1) mod 8 = j, where 8m is the
    largest multiple of 8 below n, then the values left."""
    n = len(column)
    lanes = 8 * ((n - 1) // 8)
    order = [0] + [i for j in range(8) for i in range(1 + j, lanes + 1, 8)] + list(range(lanes + 1, n))
    return [column[i] for i in order if column[i] == 0.0][-1]


def column_extremes(column):
    """``(min, max)`` of ``column``, a list of floats, a zero extreme's sign
    taken by :func:`zero_kept`."""
    return tuple(zero_kept(column) if value == 0.0 else value for value in (min(column), max(column)))


def per_column_normalize(rows):
    """The per-column rescaling that ``_rescale`` must reproduce bit for bit,
    each column's extremes taken by :func:`column_extremes`."""
    columns, ranges = [], []
    for i in range(rows.shape[1]):
        column = rows[:, i]
        lo, hi = column_extremes(column.tolist())
        ranges.append((lo, hi))
        if hi == lo:
            columns.append(np.full_like(column, 0.5))
        elif math.isfinite(hi - lo):
            columns.append((column - lo) / (hi - lo))
        else:
            columns.append((column / 2 - lo / 2) / (hi / 2 - lo / 2))
    return np.column_stack(columns), ranges


@st.composite
def csv_tables(draw):
    """Feature columns from ``columns_of`` and, at any position or none, a
    target column."""
    n = draw(st.integers(min_value=1, max_value=12))
    features = draw(st.lists(columns_of(n), min_size=1, max_size=5))
    target_at = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=len(features))))
    target = None if target_at is None else draw(columns_of(n))
    return features, target_at, target


def pipe_or_file(data, how, directory):
    """A path to read ``data`` from: a file, or the read end of a pipe that
    already holds it, which the caller closes with :func:`os.close`."""
    if how != "pipe":
        path = directory / "data.csv"
        path.write_bytes(data)
        return path, None
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    return f"/dev/fd/{read_end}", read_end


@contextmanager
def pipe_from_thread(data):
    """The path of a pipe that a thread fills with ``data``, which may be far
    larger than the pipe's buffer."""
    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "wb") as handle:
            handle.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        writer.join(timeout=60)
        assert not writer.is_alive()


class TestTwoPass:
    """analyze on a path parses the CSV into a temporary file and reads it
    back a block of columns at a time; whatever the block size, every block
    and its ranges must equal per_column_normalize of the matching columns
    of the table read back whole, bit for bit, and every score the scalar
    relevance_inference of its rescaled column."""

    @settings(max_examples=200, deadline=None)
    @given(
        csv_tables(),
        st.sampled_from(["file", "drop", "pipe"]),
        st.sampled_from([1, 2, 5, 13, ingest._SCORE_BLOCK]),
    )
    # overflowing spans
    @example(([[1e308, -1e308, 5.0], [-0.0, 0.0, 0.0]], 1, [1.0, 2.0, 3.0]), "file", ingest._SCORE_BLOCK)
    @example(([[1.7976931348623157e308, -1.0], [2.5, 2.5]], 2, [0.0, -0.0]), "drop", 2)
    @example(([[-1e308, 1e308], [7.0, -0.0]], None, None), "pipe", 1)
    # a contiguous numpy reduction of this column picks 0.0; the rule keeps -0.0
    @example(([[0.0, -0.0] + [1.0] * 7], 1, [2.0] * 9), "file", ingest._SCORE_BLOCK)  # a,target
    @example(([[0.0, -0.0] + [1.0] * 7, [2.0] * 9], None, None), "file", ingest._SCORE_BLOCK)  # a,b
    @example(([[0.0, -0.0] + [1.0] * 7], None, None), "file", ingest._SCORE_BLOCK)  # a alone
    def test_blocks_and_scores_match_load_table(self, tmp_path_factory, table, how, block):
        features, target_at, target = table
        columns, names = list(features), [f"c{i}" for i in range(len(features))]
        if target_at is not None:
            columns.insert(target_at, target)
            names.insert(target_at, "target")
        lines = [",".join(names)] + [",".join(map(repr, row)) for row in zip(*columns)]
        drop = how == "drop"
        if drop:
            # rows with a missing cell, which drop mode skips
            blank = ",".join(["1"] * (len(names) - 1) + [" "])
            lines[1:1] = [blank]
            lines.append(blank)
        data = ("\n".join(lines) + "\n").encode()
        directory = tmp_path_factory.mktemp("twopass")
        _, loaded, _ = read_table(pipe_or_file(data, "file", directory)[0], drop)
        expected, expected_ranges = per_column_normalize(loaded)
        cfg = PipelineConfig(k=1).validated()
        partition, defuzz = make_uniform_partition(cfg.sets), cfg.defuzz_config()
        scores = [relevance_inference(expected[:, i], partition, None, defuzz) for i in range(len(features))]
        with mock.patch.object(ingest, "_SCORE_BLOCK", block):
            path, read_end = pipe_or_file(data, how, directory)
            try:
                with ingest._spill(path, drop) as spill:
                    done = 0
                    for rows, ranges in spill.normalized_blocks():
                        assert rows.flags.c_contiguous
                        assert rows.tobytes() == expected[:, done : done + len(rows)].T.tobytes()
                        assert [(lo.hex(), hi.hex()) for lo, hi in ranges] == [
                            (lo.hex(), hi.hex()) for lo, hi in expected_ranges[done : done + len(rows)]
                        ]
                        done += len(rows)
                    assert done == len(features)
            finally:
                if read_end is not None:
                    os.close(read_end)
            path, read_end = pipe_or_file(data, how, directory)
            try:
                got = analyze(path, cfg, drop)
            finally:
                if read_end is not None:
                    os.close(read_end)
        assert (got.feature_names, got.n_rows, got.has_target) == (
            tuple(name for name in names if name != "target"),
            len(features[0]),
            target is not None,
        )
        assert [s.score.hex() for s in got.scores] == [score.hex() for score in scores]
        assert [(lo.hex(), hi.hex()) for lo, hi in got.ranges] == [
            (lo.hex(), hi.hex()) for lo, hi in expected_ranges
        ]


def reaped():
    """Whether this process has no child process left, running or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestParsingProcesses:
    """Pass 1 parses chunks in forked processes: the table and the first
    error are the ones this process finds alone."""

    @staticmethod
    def outcome(path, drop_incomplete_rows, jobs):
        """The names and table bytes of the file at ``path``, or its first error."""
        try:
            with ingest._spill(path, drop_incomplete_rows, jobs) as spill:
                table = spill._read(0, len(spill._names)).T
        except DataFormatError as exc:
            return str(exc)
        return spill.feature_names, table.shape, table.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(csv_files(), st.booleans(), st.sampled_from([1, 6, 13]), st.sampled_from([1, 2, ingest._ROUND]))
    def test_jobs_do_not_change_the_table_or_the_error(self, tmp_path_factory, data, drop, block, round_size):
        path = tmp_path_factory.mktemp("jobs") / "data.csv"
        path.write_bytes(data)
        # up to three processes even on a machine with fewer CPUs
        with mock.patch.object(ingest, "_SCORE_BLOCK", block), mock.patch.object(ingest, "usable_cpus", lambda: 3):
            with mock.patch.object(ingest, "_ROUND", round_size):
                outcomes = [self.outcome(path, drop, jobs) for jobs in (1, 2, 3)]
        assert outcomes[1:] == outcomes[:1] * 2
        assert reaped()

    def test_lines_end_at_newlines_only(self, tmp_path, monkeypatch):
        # CRLF endings and a lone \r inside a cell, where str.splitlines and
        # bytes.splitlines would end a line too; six chunks of two rows
        rows = [b"%d,\r%d,%d" % (i, -i, i * i) for i in range(1, 13)]
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b,c\r\n" + b"".join(row + b"\r\n" for row in rows))
        monkeypatch.setattr(ingest, "_SCORE_BLOCK", 6)
        monkeypatch.setattr(ingest, "usable_cpus", lambda: 2)
        table = np.array([[i, -i, i * i] for i in range(1, 13)], dtype=float)
        expected = (("a", "b", "c"), table.shape, table.tobytes())
        assert [self.outcome(path, False, jobs) for jobs in (1, 2)] == [expected] * 2
        assert reaped()

    TABLE = "a,b,c\n" + "".join(f"{i},{-i},{i / 7!r}\n" for i in range(1, 13))

    @pytest.mark.parametrize("forks", [0, 1, 2], ids=["none", "one", "two"])
    def test_a_failed_fork_leaves_the_parse_to_the_processes_running(self, tmp_path, monkeypatch, forks):
        fork, calls = os.fork, []

        def failing():
            calls.append(len(calls))
            if len(calls) > forks:
                raise OSError(errno.EAGAIN, "refused")
            return fork()

        path = tmp_path / "data.csv"
        path.write_text(self.TABLE)
        monkeypatch.setattr(ingest, "_SCORE_BLOCK", 6)  # six chunks of two rows
        monkeypatch.setattr(ingest, "usable_cpus", lambda: 3)
        serial = self.outcome(path, False, 1)
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", failing)
        assert self.outcome(path, False, 3) == serial
        # a refused fork is not tried again; no file is left open
        assert len(calls) == min(forks + 1, 3)
        assert len(os.listdir("/proc/self/fd")) == fds
        assert reaped()

    @pytest.mark.parametrize("bad", [True, False], ids=["bad-cell-first", "read-error-first"])
    def test_a_read_error_comes_after_the_chunks_sent(self, tmp_path, monkeypatch, bad):
        class Failing(io.BufferedReader):
            """Raises EIO on reading row 12, in the sixth chunk."""

            lines = 0

            def readline(self, size=-1):
                self.lines += 1
                if self.lines == 12:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                return super().readline(size)

        # row 10 is in the fifth chunk, which is copied before row 12 is read
        data = self.TABLE.replace("\n9,", "\nx," if bad else "\n9,").encode()
        monkeypatch.setattr(ingest, "_SCORE_BLOCK", 6)
        monkeypatch.setattr(ingest, "usable_cpus", lambda: 2)
        with tempfile.TemporaryFile() as spill:
            with pytest.raises(DataFormatError if bad else OSError) as raised:
                ingest._table("data.csv", Failing(io.BytesIO(data)), False, spill, 2)
        if bad:
            assert str(raised.value) == "data.csv: row 10, column 1 (a): not a number: 'x'"
        else:
            assert raised.value.errno == errno.EIO
        assert reaped()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_the_reading_process_holds_one_copy_of_a_chunk(self, tmp_path, monkeypatch):
        # at jobs 2 the forked processes parse every chunk, so this process
        # only reads, cuts and copies: it holds a chunk's text once, not as
        # a list of lines and their join besides.  Five chunks of 16 384 rows
        table = np.random.default_rng(3).standard_normal((70_000, 2))
        lines = [",".join(map(repr, row)) + "\n" for row in table.tolist()]
        path = tmp_path / "data.csv"
        path.write_text("a,b\n" + "".join(lines))
        size = ingest._SCORE_BLOCK // 2
        largest = max(len("".join(lines[i : i + size])) for i in range(0, len(lines), size))
        monkeypatch.setattr(ingest, "usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            with ingest._spill(path, False, 2) as spill:
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spill.n_rows == len(lines)
        assert peak <= 1.5 * largest + (256 << 10), (peak, largest)
        assert reaped()

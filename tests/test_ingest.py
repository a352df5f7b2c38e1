import codecs
import math
import os
import threading
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzkey import (
    DataFormatError,
    Dataset,
    NormalizedDataset,
    PipelineConfig,
    analyze,
    load_table,
    normalize,
)
from fuzzkey import ingest
from fuzzkey.ingest import _columns, _parse_cell, _parse_header, _parse_row


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


class TestLoadTable:
    def test_minimal_table(self, tmp_path):
        d = load_table(write(tmp_path, "a,b\n1,2\n3,4\n"))
        assert d.feature_names == ("a", "b")
        assert d.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert d.target is None

    def test_target_column_split(self, tmp_path):
        d = load_table(write(tmp_path, "a,target,b\n1,0,2\n3,1,4\n"))
        assert d.feature_names == ("a", "b")
        assert d.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert d.target.tolist() == [0.0, 1.0]

    def test_ragged_row_reports_row_number(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 2"):
            load_table(write(tmp_path, "a,b\n1\n"))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 3, column 2"):
            load_table(write(tmp_path, "a,b\n1,2\n3,oops\n"))

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="duplicate"):
            load_table(write(tmp_path, "a,a\n1,2\n"))

    def test_duplicate_header_names_are_listed_once_and_sorted(self, tmp_path):
        path = write(tmp_path, "b,a,b,c,target,a,a\n1,2,3,4,5,6,7\n")
        with pytest.raises(DataFormatError) as got:
            load_table(path)
        assert str(got.value) == f"{path}: duplicate header names ['a', 'b']"

    def test_zero_data_rows(self, tmp_path):
        with pytest.raises(DataFormatError, match="no data rows"):
            load_table(write(tmp_path, "a,b\n"))

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_table(tmp_path / "nope.csv")

    def test_missing_value_is_an_error(self, tmp_path):
        with pytest.raises(DataFormatError, match="missing value"):
            load_table(write(tmp_path, "a,b\n1,\n"))

    def test_drop_incomplete_rows(self, tmp_path):
        d = load_table(write(tmp_path, "a,b\n1,\n3,4\n"), drop_incomplete_rows=True)
        assert d.rows.tolist() == [[3.0, 4.0]]

    def test_dropping_every_row_leaves_no_data_rows(self, tmp_path):
        path = write(tmp_path, "a,b\n1,\n, \t\n")
        with pytest.raises(DataFormatError) as got:
            load_table(path, drop_incomplete_rows=True)
        assert str(got.value) == f"{path}: no data rows"

    def test_crlf_line_endings(self, tmp_path):
        d = load_table(write(tmp_path, "a,b\r\n1,2\r\n"))
        assert d.rows.tolist() == [[1.0, 2.0]]

    def test_signed_and_exponent_numerics(self, tmp_path):
        d = load_table(write(tmp_path, "a,b,c\n-1.5,+2e3,.25\n"))
        assert d.rows.tolist() == [[-1.5, 2000.0, 0.25]]

    @pytest.mark.parametrize("bad", ["nan", "inf", "1_000", "0x1f", "1,5", "\u0661\u0662", "\uff15"])
    def test_non_decimal_spellings_rejected(self, tmp_path, bad):
        with pytest.raises(DataFormatError):
            load_table(write(tmp_path, f"a,b\n{bad},2\n"))

    def test_only_target_column(self, tmp_path):
        with pytest.raises(DataFormatError, match="no feature columns"):
            load_table(write(tmp_path, "target\n1\n"))

    def test_empty_header_name(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty column name"):
            load_table(write(tmp_path, "a,,c\n1,2,3\n"))

    def test_byte_order_mark_is_no_part_of_the_first_name(self, tmp_path):
        d = load_table(write(tmp_path, "\ufeffa,b\n1,2\n"))
        assert d.feature_names == ("a", "b")

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
                load_table(path)
        finally:
            if read_end is not None:
                os.close(read_end)
        assert str(got.value) == f"{path}: {message}"

    def test_empty_line_is_a_missing_value(self, tmp_path):
        # loadtxt skips an empty line; in a one-column table it is a missing cell
        path = write(tmp_path, "a\n1\n\n2\n")
        with pytest.raises(DataFormatError) as got:
            load_table(path)
        assert str(got.value) == f"{path}: row 3, column 1: missing value"
        assert load_table(path, drop_incomplete_rows=True).rows.tolist() == [[1.0], [2.0]]

    def test_lone_carriage_return_does_not_split_a_line(self, tmp_path):
        path = write(tmp_path, "a\n1\r2\n")
        with pytest.raises(DataFormatError) as got:
            load_table(path)
        assert str(got.value) == f"{path}: row 2, column 1 (a): not a number: '1\\r2'"

    @pytest.mark.parametrize("name", ["x\ty", "\u00e9t\u00e9", "\ufeffa"], ids=["tab", "non-ascii", "second-bom"])
    def test_header_name_must_be_ascii_without_tabs(self, tmp_path, name):
        # selected names are written verbatim into the tab-separated ASCII selection
        with pytest.raises(DataFormatError, match="column 2: name .* is not ASCII without tabs"):
            load_table(write(tmp_path, f"a,{name}\n1,2\n"))


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


class TestBulkParsing:
    """load_table against float() of every stripped cell, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(numeric_tables(), st.sampled_from(["\n", "\r\n"]))
    def test_values_match_float_of_each_cell(self, tmp_path_factory, table, newline):
        names, target_at, rows = table
        text = newline.join([",".join(names)] + [",".join(r) for r in rows]) + newline
        path = tmp_path_factory.mktemp("bulk") / "table.csv"
        path.write_bytes(text.encode("ascii"))
        d = load_table(path)
        values = np.array([[float(c.strip()) for c in r] for r in rows])
        features = [i for i, name in enumerate(names) if name != "target"]
        assert d.feature_names == tuple(names[i] for i in features)
        assert d.rows.tobytes() == np.ascontiguousarray(values[:, features]).tobytes()
        if target_at is None:
            assert d.target is None
        else:
            assert d.target.tobytes() == np.ascontiguousarray(values[:, target_at]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789eE+-. \t", max_size=8))
    def test_numeric_characters_follow_the_per_cell_parser(self, tmp_path_factory, cell):
        # the streamed pass takes these characters; float() must accept
        # exactly what the per-cell parser accepts, with the same value or message
        path = tmp_path_factory.mktemp("cell") / "cell.csv"
        path.write_bytes(f"a,b\n{cell},1\n".encode("ascii"))
        stripped = cell.strip()
        if stripped == "":
            with pytest.raises(DataFormatError, match="row 2, column 1: missing value"):
                load_table(path)
            return
        try:
            expected = _parse_cell(path, stripped, 2, 1, "a")
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as got:
                load_table(path)
            assert str(got.value) == str(exc)
            return
        assert load_table(path).rows[0, 0].hex() == expected.hex()

    @pytest.mark.parametrize(
        "cell", ["1e999", "-1e999", "\u0661\u0662", "\u00a07", "1 2", "1e", "+-1", "."]
    )
    def test_rechecked_lines_match_the_per_cell_parser(self, tmp_path, cell):
        # non-finite, non-ASCII or unparsable: the line takes the per-cell parser
        path = write(tmp_path, f"a,b\n1,2\n{cell},3\n")
        try:
            expected = _parse_cell(path, cell.strip(), 3, 1, "a")
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as got:
                load_table(path)
            assert str(got.value) == str(exc)
            return
        assert load_table(path).rows[1, 0].hex() == expected.hex()


ODD_CELLS = ["", " ", "\t", "1e999", "-1e999", "1e-400", "-1e-400", "1 2", " 7 ", "nan", "1_0", "x"]


def rarely(odds):
    """True about once in ``odds`` draws."""
    return st.sampled_from([False] * (odds - 1) + [True])


@st.composite
def csv_files(draw):
    """CSV bytes the gate passes, and the misses around them."""
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
    """load_table against the per-cell reference parser."""

    @settings(max_examples=400, deadline=None)
    @given(csv_files(), st.booleans(), st.sampled_from([1, 2, 7, ingest._SCORE_BLOCK]))
    @example(b"a\n1\n\n2\n", False, 1)  # loadtxt skips an empty line
    @example(b"a\n1\r2\n", False, 1)  # universal newlines split this line
    @example(b"a,b\n1,x\n2,\xff\n", True, 2)  # the earlier bad line is reported first
    @example(b"a,b\n\xff,\n2,3\n", True, 2)  # also in a line that would be dropped
    @example(b"\xef\xbb\xbfa\n1\n\xe9\n", False, 1)  # the offset counts the mark and the header
    @example(b"a\n1e\nx\n", False, 1)  # loadtxt rejects a cell above the held line
    @example(b"a\n1\n2\n1e\nx\n", False, 1)  # ... in a later chunk of rows
    @example(b"a,b\n1,2\n,3\n1e999,4\n", True, 4)  # a dropped row inside the rescanned chunk
    def test_matches_the_reference(self, tmp_path_factory, data, drop_incomplete_rows, block):
        # ``block`` sets the chunks of rows the parser writes out, down to one row
        path = tmp_path_factory.mktemp("stream") / "data.csv"
        path.write_bytes(data)
        try:
            names, table = _reference_table(path, data, drop_incomplete_rows)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as got, mock.patch.object(ingest, "_SCORE_BLOCK", block):
                load_table(path, drop_incomplete_rows)
            assert str(got.value) == str(exc)
            return
        with mock.patch.object(ingest, "_SCORE_BLOCK", block):
            d = load_table(path, drop_incomplete_rows)
        features = [name for name in names if name != "target"]
        assert d.feature_names == tuple(features)
        assert d.rows.tobytes() == table[:, : len(features)].tobytes()
        if len(features) == len(names):
            assert d.target is None
        else:
            assert d.target.tobytes() == table[:, -1].tobytes()

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
        expected = load_table(path, drop)
        if drop:
            assert expected.rows.tolist() == [[3.0, 4.0], [6.0, 7.0]]
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
            d = load_table(path, drop)
        finally:
            if how == "pipe":
                os.close(read_end)
        # only the lines the gate rejects reach the per-cell parser: none in
        # a clean file, and in drop mode the dropped ones
        assert parsed == ([(2, None), (3, None), (5, None), (6, None)] if drop else [])
        assert d.feature_names == expected.feature_names
        assert d.rows.tobytes() == expected.rows.tobytes()
        assert (d.target is None) == (expected.target is None)
        if d.target is not None:
            assert d.target.tobytes() == expected.target.tobytes()

    @pytest.mark.parametrize("cell", ["1e", "1 2", "1e999"])
    @pytest.mark.parametrize("at", ["row-2", "last-row"])
    @pytest.mark.parametrize("held", ["bad-cell", "utf-8", "none"])
    def test_rescan_names_a_cell_the_gate_passed(self, tmp_path, cell, at, held):
        # loadtxt rejects the cell, or reads it as inf, after the bad line
        # below it has ended the stream; the rescan names it first, from a
        # file and from a pipe alike
        rows = ["1,2"] * 4
        rows[0 if at == "row-2" else -1] = f"{cell},2"
        tail = {"bad-cell": b"x,2\n3,4\n", "utf-8": b"\xe9,2\n", "none": b""}[held]
        data = "\n".join(["a,b", *rows, ""]).encode() + tail
        row_number = 2 if at == "row-2" else 5
        for how in ("file", "pipe"):
            path, read_end = pipe_or_file(data, how, tmp_path)
            try:
                with pytest.raises(DataFormatError) as got:
                    load_table(path)
            finally:
                if read_end is not None:
                    os.close(read_end)
            with pytest.raises(DataFormatError) as expected:
                _parse_cell(path, cell, row_number, 1, "a")
            assert str(got.value) == str(expected.value)

    def test_rescan_parses_only_the_failing_chunk(self, tmp_path, monkeypatch):
        # two columns and a block of 6 values make chunks of 3 rows; 1e999
        # sits in the last of 7 chunks, and the rows above it are never
        # parsed cell by cell
        rows = [f"{i},2" for i in range(20)] + ["1e999,2"]
        path = write(tmp_path, "\n".join(["a,b", *rows, ""]))
        parsed = []

        def parse_row(path, line, row_number, names, drop_incomplete_rows):
            parsed.append(row_number)
            return _parse_row(path, line, row_number, names, drop_incomplete_rows)

        monkeypatch.setattr(ingest, "_SCORE_BLOCK", 6)
        monkeypatch.setattr(ingest, "_parse_row", parse_row)
        with pytest.raises(DataFormatError) as got:
            load_table(path)
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
        peaks = []
        for run in (load_table, lambda path: analyze(path, PipelineConfig(k=3))):
            with pipe_from_thread(data) as path:
                tracemalloc.start()
                try:
                    got = run(path)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert got.n_rows == len(table)
        # load_table returns the table; analyze, as from a path, keeps none
        assert peaks[0] <= 1.35 * table.nbytes and peaks[1] <= 0.35 * table.nbytes

    def test_load_and_normalize_peak_near_the_matrix(self, tmp_path):
        # the text, a list of its lines and copies of the table used to
        # coexist: about 8.6 matrices at this size
        table = np.random.default_rng(4).standard_normal((4000, 25))
        names = [f"x{i}" for i in range(24)] + ["target"]
        lines = [",".join(names)] + [",".join(map(repr, row)) for row in table.tolist()]
        path = write(tmp_path, "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            normalized = normalize(load_table(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert normalized.target.tobytes() == table[:, -1].tobytes()
        assert peak <= 3.5 * table.nbytes


# ties, subnormals and spans that overflow
extreme_cell = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def columns_of(n):
    """Columns of ``n`` cells; in some the minimum or the maximum is a signed
    zero, where which zero a reduction returns depends on its memory path."""
    return st.one_of(
        st.lists(extreme_cell, min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, 0.5, 1.0]), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, -0.25, -1.0]), min_size=n, max_size=n),
        extreme_cell.map(lambda v: [v] * n),  # a constant column
    )


class TestDataset:
    def test_float64_arrays_are_frozen_in_place(self):
        rows, target = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0])
        d = Dataset(("a", "b"), rows, target)
        assert np.shares_memory(d.rows, rows) and np.shares_memory(d.target, target)
        with pytest.raises(ValueError, match="read-only"):
            d.rows[0, 0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 9.0

    def test_zero_columns_are_valid(self):
        # the finiteness and range checks take a zero-size array's extremes
        d = Dataset((), np.empty((3, 0)))
        assert (d.n_features, d.n_rows) == (0, 3)
        nd = normalize(d)
        assert nd.rows.shape == (3, 0) and nd.ranges == ()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_must_be_finite(self, bad):
        rows = np.ones((3, 4))
        rows[1, 2] = bad
        with pytest.raises(DataFormatError) as got:
            Dataset(tuple("abcd"), rows)
        assert str(got.value) == "dataset values must all be finite"

    def test_normalized_values_must_lie_in_the_unit_interval(self):
        ranges = ((0.0, 1.0),) * 2
        ends = NormalizedDataset(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), ranges=ranges)
        assert ends.rows.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        for bad in (-5e-324, 1.0000000000000002):
            with pytest.raises(DataFormatError) as got:
                NormalizedDataset(("a", "b"), np.array([[0.5, 0.5], [bad, 0.5]]), ranges=ranges)
            assert str(got.value) == "normalized values must lie in [0, 1]"


class TestNormalize:
    def test_three_point_column(self):
        d = Dataset(("a",), np.array([[2.0], [4.0], [6.0]]))
        nd = normalize(d)
        assert nd.rows[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert nd.ranges == ((2.0, 6.0),)

    def test_constant_column_maps_to_half(self):
        d = Dataset(("a",), np.array([[5.0], [5.0]]))
        assert normalize(d).rows[:, 0].tolist() == [0.5, 0.5]

    def test_unit_range_is_fixed_point(self):
        d = Dataset(("a",), np.array([[0.0], [1.0]]))
        assert normalize(d).rows[:, 0].tolist() == [0.0, 1.0]

    def test_idempotence(self):
        rng = np.random.default_rng(15)
        rows = rng.uniform(-50, 50, size=(12, 4))
        rows[:, 2] = 7.0  # a constant column stays at 0.5
        once = normalize(Dataset(tuple("abcd"), rows))
        twice = normalize(once)
        assert np.array_equal(once.rows, twice.rows)

    def test_range_and_extremes(self):
        rng = np.random.default_rng(16)
        rows = rng.normal(size=(30, 3)) * 100
        nd = normalize(Dataset(tuple("abc"), rows))
        assert nd.rows.min() >= 0.0 and nd.rows.max() <= 1.0
        for i in range(3):
            assert nd.rows[:, i].min() == 0.0
            assert nd.rows[:, i].max() == 1.0

    def test_order_preserved_within_feature(self):
        rng = np.random.default_rng(17)
        column = rng.uniform(-10, 10, size=25)
        nd = normalize(Dataset(("a",), column.reshape(-1, 1)))
        order = np.argsort(column)
        assert np.all(np.diff(nd.rows[order, 0]) >= 0)

    def test_target_carried_through(self):
        d = Dataset(("a",), np.array([[1.0], [2.0]]), target=np.array([1.0, 0.0]))
        assert normalize(d).target.tolist() == [1.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=40).flatmap(lambda n: st.lists(columns_of(n), min_size=1, max_size=8)))
    def test_matches_per_column_reference(self, columns):
        # row-major, as load_table builds it: a column is then a strided view
        d = Dataset(tuple(f"c{i}" for i in range(len(columns))), np.array(columns).T.copy())
        assert d.rows.flags.c_contiguous
        rows, ranges = per_column_normalize(d.rows)
        original = d.rows.tobytes()
        nd = normalize(d)
        assert d.rows.tobytes() == original and not np.shares_memory(nd.rows, d.rows)
        assert nd.rows.tobytes() == rows.tobytes()
        assert [(lo.hex(), hi.hex()) for lo, hi in nd.ranges] == [(lo.hex(), hi.hex()) for lo, hi in ranges]


def per_column_normalize(rows):
    """The per-column rescaling that ``normalize`` must reproduce bit for bit."""
    columns, ranges = [], []
    for i in range(rows.shape[1]):
        column = rows[:, i]
        lo, hi = float(column.min()), float(column.max())
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
    back a block of columns at a time; every block must equal the matching
    columns of normalize(load_table(path)) bit for bit, whatever the block
    size, and so must the scores and ranges."""

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
    # a contiguous reduction of this column picks the other zero
    @example(([[0.0, -0.0] + [1.0] * 7], 1, [2.0] * 9), "file", ingest._SCORE_BLOCK)  # a,target: -0.0
    @example(([[0.0, -0.0] + [1.0] * 7, [2.0] * 9], None, None), "file", ingest._SCORE_BLOCK)  # a,b: -0.0
    @example(([[0.0, -0.0] + [1.0] * 7], None, None), "file", ingest._SCORE_BLOCK)  # a alone: 0.0
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
        reference = load_table(pipe_or_file(data, "file", directory)[0], drop)
        expected = normalize(reference)
        cfg = PipelineConfig(k=1)
        want = analyze(reference, cfg)
        with mock.patch.object(ingest, "_SCORE_BLOCK", block):
            path, read_end = pipe_or_file(data, how, directory)
            try:
                with ingest._spill(path, drop) as spill:
                    done = 0
                    for rows, ranges in spill.normalized_blocks():
                        assert rows.flags.c_contiguous
                        assert rows.tobytes() == expected.rows[:, done : done + len(rows)].T.tobytes()
                        assert [(lo.hex(), hi.hex()) for lo, hi in ranges] == [
                            (lo.hex(), hi.hex()) for lo, hi in expected.ranges[done : done + len(rows)]
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
            want.feature_names,
            want.n_rows,
            target is not None,
        )
        assert [s.score.hex() for s in got.scores] == [s.score.hex() for s in want.scores]
        assert [(lo.hex(), hi.hex()) for lo, hi in got.ranges] == [
            (lo.hex(), hi.hex()) for lo, hi in want.ranges
        ]

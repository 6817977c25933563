"""Block-decoded text I/O against the line parser it falls back to.

Clouds, labels and score CSVs are decoded in blocks by numpy's C reader;
a block numpy rejects, or whose rows fail a check, is re-parsed by the
line parser, which raises the message naming the line. These tests run
each input both ways: with small blocks (so later blocks must report
absolute line numbers), and through the line parser alone over one block.
Arrays must be bitwise equal, or the errors identical.
"""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcood import (SEMANTIC3D_CLASS_COUNT, LabeledCloud, ParseError,
                   ValidationError, parse_semantic3d, read_labels,
                   read_scores_csv, write_idood_map, write_scores_csv)
from pcood import _io, pointcloud, scores


@contextlib.contextmanager
def _blocks_of(size):
    with mock.patch.object(_io, "_BLOCK_SIZE", size):
        yield


@contextlib.contextmanager
def _line_parser_only():
    """The whole input as one block, decoded by the line parser alone."""
    with _blocks_of(1 << 30), \
            mock.patch.object(pointcloud, "load_block", lambda *args: None), \
            mock.patch.object(scores, "load_block", lambda *args: None):
        yield


def _bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.view(np.int64) if arr.dtype == np.float64 else arr


def _outcome(fn):
    """Bitwise arrays of a successful parse, or the error's type and message."""
    try:
        result = fn()
    except ValidationError as exc:
        # Labels beyond int64 are a ParseError naming the line on either
        # path: numpy rejects the block, and the line parser range-checks.
        return type(exc).__name__, str(exc)
    arrays = []
    for part in result if isinstance(result, tuple) else (result,):
        arrays += ([part.xyz, part.intensity, part.rgb]
                   if isinstance(part, LabeledCloud) else [part])
    return tuple((a.dtype.str, a.shape, _bits(a).tobytes()) for a in arrays)


def _both_ways(fn, data: bytes, block_size: int):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with _blocks_of(block_size):
            blocked = _outcome(lambda: fn(data))
        with _line_parser_only():
            lines = _outcome(lambda: fn(data))
    return blocked, lines


def _points(data):
    return parse_semantic3d(io.BytesIO(data))


def _cloud_and_labels(points, labels):
    """A parsed cloud and the labels read for it, from two streams."""
    cloud = parse_semantic3d(points)
    return cloud, read_labels(labels, len(cloud), SEMANTIC3D_CLASS_COUNT)


def _points_and_labels(points):
    def parse(labels):
        return _cloud_and_labels(io.BytesIO(points), io.BytesIO(labels))
    return parse


def _scores(data):
    return read_scores_csv(io.BytesIO(data))


# -- generated text ---------------------------------------------------------

# Tokens the line parser and numpy may disagree on. Python's int/float
# accept underscores, fullwidth digits, and integers beyond int64; str.split
# treats NBSP, a lone CR and the ASCII separators 0x1c-0x1f as whitespace.
HOSTILE = ["1_0", "１２", "255.0", "1e2", "0x5", "# c", "\x00", "nan",
           "inf", "-inf", "1e400", "-0", "+5", "0255", "256", "-1",
           "99999999999999999999", "-99999999999999999999", "", ".", "e", "--1",
           "1.5E+3", ".5", "5.", "infinity", "1d0", "0,5", "9"]
SEPARATORS = [" ", " ", " ", "\t", "  ", "\r", "\x0c", "\x0b", "\x1c", "\xa0",
              "\x00"]
# What two rows run together on one line are joined by.
JOINS = ["\r", "\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", " ", "\xa0"]
BLANKS = ["", " ", "\t", "  \t ", "\x0c", "\r", "\x1c"]
ENDINGS = ["\n", "\n", "\n", "\r\n", "\r\r\n"]

floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.3f}"),
    st.integers(-5000, 5000).map(str),
)
colors = st.integers(0, 255).map(str)
hostile = st.sampled_from(HOSTILE)


def _now(draw) -> bool:
    """True at a rate in percent drawn once per example: 0, 1 or 10."""
    rate = draw(st.shared(st.sampled_from([0, 1, 10]), key="hostile rate"))
    return draw(st.integers(1, 100)) > 100 - rate


@st.composite
def _maybe_hostile(draw, token):
    return draw(hostile) if _now(draw) else draw(token)


@st.composite
def _lines_text(draw, row):
    """Rows from the `row` strategy mixed with blank lines and with two rows
    run together on one line, joined by line endings, maybe without the
    final newline and maybe with a stray non-UTF-8 byte."""
    lines = draw(st.lists(st.one_of(row, row, row, st.sampled_from(BLANKS)),
                          max_size=24))
    lines = [line + draw(st.sampled_from(JOINS)) + draw(row)
             if draw(st.integers(1, 20)) == 20 else line for line in lines]
    return _finish(draw, lines)


def _finish(draw, lines):
    text = "".join(line + (draw(st.sampled_from(ENDINGS)) if _now(draw) else "\n")
                   for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if data and _now(draw):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def point_rows(draw):
    fields = [draw(_maybe_hostile(floats)) for _ in range(4)]
    fields += [draw(_maybe_hostile(colors)) for _ in range(3)]
    if _now(draw):
        fields = fields[:draw(st.integers(0, 8))]
    seps = [draw(st.sampled_from(SEPARATORS)) if _now(draw) else " " for _ in fields]
    lead = draw(st.sampled_from(["", "", " ", "\t"]))
    tail = " # c" if _now(draw) else ""
    return lead + "".join(f + s for f, s in zip(fields, seps)).rstrip(" ") + tail


label_rows = st.one_of(*[_maybe_hostile(st.integers(0, 8).map(str))] * 6,
                       st.tuples(st.sampled_from(["", " ", "\t", "\x0c"]),
                                 st.integers(0, 8),
                                 st.sampled_from(["", " ", "\x1c", " 1"]))
                       .map(lambda t: f"{t[0]}{t[1]}{t[2]}"))


@st.composite
def score_texts(draw):
    head = draw(st.lists(st.sampled_from(["", "# note", "  ", "#"]), max_size=2))
    header = draw(st.sampled_from([" index,score ", "index;score"])) if _now(draw) \
        else "index,score"
    rows = []
    index = 0
    for _ in range(draw(st.integers(0, 24))):
        if _now(draw):
            rows.append(draw(st.sampled_from(BLANKS + ["# mid", "#x"])))
            continue
        i = draw(hostile) if _now(draw) else str(index)
        sep = draw(st.sampled_from([", ", " ,", ",,", ";", "\t,"])) if _now(draw) else ","
        rows.append(f"{i}{sep}{draw(_maybe_hostile(floats))}")
        index += 1
    return _finish(draw, head + [header] + rows)


PROPERTY = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestDifferential:
    @PROPERTY
    @given(_lines_text(point_rows()), st.integers(1, 96))
    @example(b"1 2 3 4 5 6 7 # c\n", 64)
    @example(b"1 2 3 4 5 6 7\x0c1 2 3 4 5 6 7\n", 64)
    @example(b"1 2 3 4 5 6 7\r1 2 3 4 5 6 7\n", 64)
    @example(b"1_0 \xef\xbc\x92 3 4\xc2\xa05 6\r7\n0 0 0 0 0 0 256\n", 16)
    def test_points(self, data, block_size):
        blocked, lines = _both_ways(_points, data, block_size)
        assert blocked == lines

    @PROPERTY
    @given(_lines_text(label_rows), st.integers(1, 32))
    @example(b"1\n# c\n2\n", 32)
    @example(b"3 4\n", 32)
    @example(b"1\x0c2\n", 32)
    @example(b"1_0\n99999999999999999999\n", 32)
    def test_labels(self, data, block_size):
        # One valid point per line the line parser would count, so that
        # label parsing, not the count check, decides the outcome.
        text = data.decode("utf-8", "replace")
        n = sum(1 for line in text.split("\n") if line.strip())
        parse = _points_and_labels(b"0 0 0 0 0 0 0\n" * n)
        blocked, lines = _both_ways(parse, data, block_size)
        assert blocked == lines

    @PROPERTY
    @given(score_texts(), st.integers(1, 64))
    @example(b"index,score\n0,0.5 # c\n", 64)
    @example(b"index,score\n0,0.5\n1,nan\n", 8)
    @example(b"# x\n\nindex,score\r\n0,0.5\r\n1,1_0\n2,0.25", 12)
    def test_scores(self, data, block_size):
        blocked, lines = _both_ways(_scores, data, block_size)
        assert blocked == lines

    @pytest.mark.parametrize("block_size", [1, 7, 1 << 22])
    def test_valid_inputs_match_bitwise(self, block_size):
        rng = np.random.default_rng(5)
        xyz = rng.normal(scale=1e3, size=(300, 4))
        rgb = rng.integers(0, 256, size=(300, 3))
        points = "".join(f"{a!r} {b!r}\t{c:.3f} {d!r} {r} {g} {b_}\r\n"
                         for (a, b, c, d), (r, g, b_) in zip(xyz.tolist(),
                                                             rgb.tolist()))
        labels = "\n\n".join(map(str, rng.integers(0, 9, size=300).tolist()))
        blocked, lines = _both_ways(_points_and_labels(points.encode()),
                                    labels.encode(), block_size)
        assert blocked == lines
        assert isinstance(blocked[0], tuple)
        values = rng.normal(size=300)
        sink = io.BytesIO()
        write_scores_csv(values, sink)
        blocked, lines = _both_ways(_scores, sink.getvalue(), block_size)
        assert blocked == lines
        assert blocked[0][2] == values.view(np.int64).tobytes()


class TestBlocks:
    def test_later_block_errors_name_the_absolute_line(self):
        text = b"0 0 0 0 0 0 0\n" * 40 + b"0 0 0 0 0 0 300\n"
        with _blocks_of(20), pytest.raises(ParseError) as exc:
            _points(text)
        assert str(exc.value) == "points line 41: color b=300 outside 0..255"
        csv = b"index,score\n" + b"".join(b"%d,0.5\n" % i for i in range(50))
        with _blocks_of(16), pytest.raises(ParseError) as exc:
            _scores(csv + b"7,0.5\n")
        assert str(exc.value) == "line 52: index 7 out of order, expected 50"

    def test_line_longer_than_a_block(self):
        x = "1." + "0" * 100
        with _blocks_of(8):
            cloud = _points(f"{x} 2 3 4 5 6 7\n8 9 10 11 12 13 14".encode())
        assert cloud.xyz.tolist() == [[1.0, 2.0, 3.0], [8.0, 9.0, 10.0]]

    def test_iter_blocks_cuts_at_newlines(self):
        with _blocks_of(5):
            blocks = list(_io.iter_blocks(io.BytesIO(b"ab\ncdefgh\ni\n\nj")))
        assert blocks == [(1, b"ab\n"), (2, b"cdefgh\n"), (3, b"i\n\n"), (5, b"j")]
        with _blocks_of(5):
            assert list(_io.iter_blocks(io.StringIO("ab\ncd"))) == [(1, "ab\n"), (2, "cd")]
        assert list(_io.iter_blocks(io.BytesIO(b""))) == []

    def test_text_streams_decode_like_binary(self):
        points = "1 2 3 4 5 6 7\n\n8 9 10 11 12 13 14\n"
        csv = "# run 1\nindex,score\n0,0.25\n1,1_0\n"
        for size in (3, 1 << 22):
            with _blocks_of(size):
                a = _cloud_and_labels(io.StringIO(points), io.StringIO("1\n\n2\n"))
                b = _points_and_labels(points.encode())(b"1\n\n2\n")
                assert _outcome(lambda: a) == _outcome(lambda: b)
                assert read_scores_csv(io.StringIO(csv)).tolist() == [0.25, 10.0]

    @pytest.mark.parametrize("data", [b"", b"\n", b" \n\t\n", b"\x1c\n\r\n", b"\x0c"])
    def test_blank_inputs_give_no_rows_and_no_warning(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for size in (1, 1 << 22):
                with _blocks_of(size):
                    assert len(_points(data)) == 0
                    cloud, labels = _points_and_labels(b"")(data)
                    assert len(cloud) == labels.size == 0
                    assert read_scores_csv(io.BytesIO(b"index,score\n" + data)).size == 0


class TestHostileText:
    @pytest.mark.parametrize("parse, data, message", [
        (_points, b"0 0 0 0 0 0 0\n0 0 \xff 0 0 0 0\n", "points line 2: not valid UTF-8"),
        (_points_and_labels(b"0 0 0 0 0 0 0\n" * 2), b"1\n\xe9\n", "labels line 2: not valid UTF-8"),
        (_scores, b"index,score\n0,\xff\n", "line 2: not valid UTF-8"),
        (_scores, b"\xff\nindex,score\n", "line 1: not valid UTF-8"),
    ])
    def test_non_utf8_names_the_line(self, parse, data, message):
        for size in (4, 1 << 22):
            with _blocks_of(size), pytest.raises(ParseError) as exc:
                parse(data)
            assert str(exc.value) == message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "NaN"])
    def test_non_finite_score_rejected(self, value):
        data = f"index,score\n0,0.5\n1,{value}\n".encode()
        with pytest.raises(ParseError) as exc:
            _scores(data)
        assert str(exc.value) == "line 3: non-finite score"

    def test_labels_beyond_int64_name_the_line(self):
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        # The extremes are read exactly; the class range check then names them.
        for value in (top, bottom):
            with pytest.raises(ValidationError) as exc:
                read_labels(io.BytesIO(f"{value}\n".encode()), 1, 8)
            assert str(exc.value) == f"label {value} at index 0 outside 0..8"
        for value in (top + 1, bottom - 1, "1_0" + "0" * 19):
            for size in (4, 1 << 22):
                with _blocks_of(size), pytest.raises(ParseError) as exc:
                    read_labels(io.BytesIO(f"1\n\n{value}\n".encode()), 2, 8)
                assert str(exc.value) == \
                    f"labels line 3: label '{value}' outside int64"

    def test_python_only_syntax_still_accepted(self):
        cloud = _points("1_0 ２ 3 4\xa05 6\r7\n".encode())
        assert cloud.xyz.tolist() == [[10.0, 2.0, 3.0]]
        assert cloud.rgb.tolist() == [[5, 6, 7]]
        assert _scores(b"index,score\n0 , 1_5\n").tolist() == [15.0]


class TestWriters:
    """The writers emit the bytes of per-row f-string formatting."""

    @staticmethod
    def _reference_map(xyz, flags):
        lines = [f"{x:.6f} {y:.6f} {z:.6f} " + ("255 0 0" if f else "0 255 0")
                 for (x, y, z), f in zip(xyz.tolist(), flags.tolist())]
        return ("\n".join(lines) + "\n" if lines else "").encode()

    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_map_blocks(self, n):
        rng = np.random.default_rng(n)
        xyz = rng.normal(scale=100.0, size=(n, 3))
        xyz[:n // 2] *= 1e-9
        flags = rng.integers(0, 2, size=n)
        cloud = LabeledCloud(xyz, np.zeros(n), np.zeros((n, 3)))
        with mock.patch.object(pointcloud, "_WRITE_ROWS", 3):
            sink = io.BytesIO()
            write_idood_map(cloud, flags, sink)
        assert sink.getvalue() == self._reference_map(xyz, flags)

    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_scores_blocks(self, n):
        values = np.random.default_rng(n).normal(size=n) * 10.0 ** np.arange(n)
        with mock.patch.object(scores, "_WRITE_ROWS", 3):
            sink = io.BytesIO()
            write_scores_csv(values, sink)
        rows = [f"{i},{v!r}" for i, v in enumerate(values.tolist())]
        assert sink.getvalue() == ("\n".join(["index,score"] + rows) + "\n").encode()
        text = io.StringIO()
        with mock.patch.object(scores, "_WRITE_ROWS", 3):
            write_scores_csv(values, text)
        assert text.getvalue().encode() == sink.getvalue()


def test_import_does_not_load_scipy():
    src = Path(_io.__file__).resolve().parents[1]
    code = "import sys, pcood; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "False"

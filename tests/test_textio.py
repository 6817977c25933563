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
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcood import (ValidationError, parse_semantic3d, read_labels,
                   read_scores_csv, write_idood_map, write_scores_csv)
from pcood import _io, pointcloud, scores


@contextlib.contextmanager
def _blocks_of(size):
    with mock.patch.object(_io, "_BLOCK_SIZE", size):
        yield


@contextlib.contextmanager
def _line_parser_only():
    """The whole input as one block, decoded by the line parser alone.
    Yields the mock that stands for numpy's block decode."""
    with _blocks_of(1 << 30), \
            mock.patch.object(_io, "load_block", return_value=None) as decode:
        yield decode


def _cloud_text(rng, n) -> bytes:
    """A Semantic3D cloud of n points with random coordinates."""
    xyz = rng.uniform(-100, 100, size=(n, 3)).tolist()
    return "".join("%.3f %.3f %.3f 1 2 3 4\n" % tuple(row) for row in xyz).encode()


def _traced_peak(fn):
    """fn's result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.view(np.int64) if arr.dtype == np.float64 else arr


def _outcome(fn):
    """Bitwise arrays of a successful parse, or the error's type and message."""
    try:
        result = fn()
    except ValidationError as exc:
        # Labels beyond int64 are a ValidationError naming the line on either
        # path: numpy rejects the block, and the line parser range-checks.
        return type(exc).__name__, str(exc)
    arrays = result if isinstance(result, tuple) else (result,)
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
    return cloud, read_labels(labels, len(cloud), 8)


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
    # Blocks of 12: rows numpy decodes, a "#" line only the line parser
    # reads, then an index numpy decodes out of order. Both paths advance
    # the one expected index.
    @example(b"index,score\n0,0.5\n1,0.5\n# c\n2,0.5\n4,0.5\n", 12)
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
        # Each reader went through the patched decode, so the line parser
        # alone produced what the differential checks compared.
        with _line_parser_only() as decode:
            _points_and_labels(points.encode())(labels.encode())
            _scores(sink.getvalue())
        assert {call.args[1] for call in decode.call_args_list} == \
            {pointcloud._POINT_DTYPE, pointcloud._LABEL_DTYPE, scores._SCORE_DTYPE}


class TestBlocks:
    def test_later_block_errors_name_the_absolute_line(self):
        text = b"0 0 0 0 0 0 0\n" * 40 + b"0 0 0 0 0 0 300\n"
        with _blocks_of(20), pytest.raises(ValidationError) as exc:
            _points(text)
        assert str(exc.value) == "points line 41: color b=300 outside 0..255"
        csv = b"index,score\n" + b"".join(b"%d,0.5\n" % i for i in range(50))
        with _blocks_of(16), pytest.raises(ValidationError) as exc:
            _scores(csv + b"7,0.5\n")
        assert str(exc.value) == "line 52: index 7 out of order, expected 50"

    def test_score_comments_before_the_header_fill_several_blocks(self):
        # About 2.5 MiB of "#" lines, so more than two blocks of the default
        # size, then the header; later lines keep their numbers.
        comments = b"# " + b"c" * 1022 + b"\n"
        n = 2500
        head = comments * n + b"index,score\n0,0.5\n1,0.25\n"
        assert len(head) > 2 * _io._BLOCK_SIZE
        assert _scores(head).tolist() == [0.5, 0.25]
        with pytest.raises(ValidationError) as exc:
            _scores(head + b"2,x\n")
        assert str(exc.value) == f"line {n + 4}: malformed row '2,x'"

    def test_line_longer_than_a_block(self):
        x = "1." + "0" * 100
        with _blocks_of(8):
            cloud = _points(f"{x} 2 3 4 5 6 7\n8 9 10 11 12 13 14".encode())
        assert cloud.tolist() == [[1.0, 2.0, 3.0], [8.0, 9.0, 10.0]]

    def test_iter_blocks_cuts_at_newlines(self):
        with _blocks_of(5):
            blocks = list(_io.iter_blocks(io.BytesIO(b"ab\ncdefgh\ni\n\nj")))
        assert blocks == [(1, b"ab\n"), (2, b"cdefgh\n"), (3, b"i\n\n"), (5, b"j")]
        assert list(_io.iter_blocks(io.BytesIO(b""))) == []

    def test_parsed_arrays_are_not_held_twice(self):
        # The readers grow one array block by block. With 64 KiB blocks,
        # what a block holds while it is decoded is small, so the traced
        # peak is the result plus a few blocks, not the result twice.
        n = 200_000
        rng = np.random.default_rng(8)
        points = io.BytesIO(_cloud_text(rng, n))
        labels = io.BytesIO("".join("%d\n" % v for v in rng.integers(0, 9, n).tolist()).encode())
        csv = io.BytesIO()
        write_scores_csv(rng.uniform(size=n), csv)
        csv.seek(0)
        for read in (lambda: parse_semantic3d(points), lambda: read_labels(labels, n, 8),
                     lambda: read_scores_csv(csv)):
            with _blocks_of(1 << 16):
                result, peak = _traced_peak(read)
            assert len(result) == n
            assert peak < result.nbytes + 16 * (1 << 16)

    def test_default_block_bounds_the_parse_peak(self):
        # Decoding a block holds about six times its size in temporaries
        # (the str, its line list, loadtxt's rows); 1 MiB blocks keep that
        # near 6 MiB on a cloud of several blocks.
        points = io.BytesIO(_cloud_text(np.random.default_rng(9), 200_000))
        assert len(points.getvalue()) > 4 << 20
        result, peak = _traced_peak(lambda: parse_semantic3d(points))
        assert peak < result.nbytes + (8 << 20)

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
            with _blocks_of(size), pytest.raises(ValidationError) as exc:
                parse(data)
            assert str(exc.value) == message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "NaN"])
    def test_non_finite_score_rejected(self, value):
        data = f"index,score\n0,0.5\n1,{value}\n".encode()
        with pytest.raises(ValidationError) as exc:
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
                with _blocks_of(size), pytest.raises(ValidationError) as exc:
                    read_labels(io.BytesIO(f"1\n\n{value}\n".encode()), 2, 8)
                assert str(exc.value) == \
                    f"labels line 3: label '{value}' outside int64"

    @pytest.mark.parametrize("parse, text, message, quoted", [
        (_points, "0 0 0 0 0 0 0\nxX 0 0 0 0 0 0\n", "points line 2: malformed field in {}",
         "xX 0 0 0 0 0 0"),
        (_points_and_labels(b"0 0 0 0 0 0 0\n" * 2), "1\nxX\n",
         "labels line 2: not an integer: {}", "xX"),
        (_points_and_labels(b"0 0 0 0 0 0 0\n" * 2), "1\n1X\n",
         "labels line 2: label {} outside int64", "1X"),
        (_scores, "xX\n", "line 1: expected header 'index,score', got {}", "xX"),
        (_scores, "index,score\nxX\n", "line 2: expected 'index,score', got {}", "xX"),
        (_scores, "index,score\n0,xX\n", "line 2: malformed row {}", "0,xX"),
    ])
    def test_errors_quote_at_most_80_characters(self, parse, text, message, quoted):
        long = "9" * 1000
        with pytest.raises(ValidationError) as exc:
            parse(text.replace("X", long).encode())
        cut = quoted.replace("X", long)[:80]
        assert str(exc.value) == message.format(repr(cut) + "...")

    @pytest.mark.parametrize("row, message", [
        (b"0 0 0 nan 0 0 0", "points line 2: non-finite coordinate or intensity"),
        (b"0 0 0 -1e400 0 0 0", "points line 2: non-finite coordinate or intensity"),
        (b"0 0 0 0 256 0 0", "points line 2: color r=256 outside 0..255"),
        (b"0 0 0 0 0 0 -1", "points line 2: color b=-1 outside 0..255"),
    ])
    def test_unkept_columns_are_still_checked(self, row, message):
        # numpy decodes each of these rows; its block check must send the
        # block to the line parser, which names the line.
        data = b"1 2 3 4 5 6 7\n" + row + b"\n"
        assert _io.load_block(data, pointcloud._POINT_DTYPE) is not None
        for parser in (_blocks_of(1 << 22), _line_parser_only()):
            with parser, pytest.raises(ValidationError) as exc:
                _points(data)
            assert str(exc.value) == message

    def test_python_only_syntax_still_accepted(self):
        cloud = _points("1_0 ２ 3 4\xa05 6\r7\n".encode())
        assert cloud.tolist() == [[10.0, 2.0, 3.0]]
        assert _scores(b"index,score\n0 , 1_5\n").tolist() == [15.0]


def _steps(x: float, n: int) -> float:
    """The double n steps above x (below it for negative n)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def _digit_ties(d: int, k: int, n: int) -> float:
    """An odd multiple of 2**-k in [10**d, 10**(d + 1)), the n-th (cycling).

    With s = 16 - d, k = s + 1 puts V = |v| 10**s half-way between two
    integers, and k = s makes V an integer ending in 5: the exact ties of
    the score writer's digit search."""
    lo = math.ceil(math.ldexp(10.0 ** d, k))
    hi = min(math.floor(math.ldexp(10.0 ** (d + 1), k)), 2 ** 53)
    return math.ldexp(lo + (n % ((hi - lo) // 2)) * 2 | 1, -k)


def _adversarial_scores() -> list:
    """Every power of 2 and of 10 a double holds, and 1e-4 and 1e16, each
    with the doubles up to two steps away; signed zeros, NaN and infinities;
    and ties of the digit search in every decade of the positional form."""
    anchors = [2.0 ** k for k in range(-1074, 1024)]
    anchors += [float(f"1e{k}") for k in range(-323, 309)] + [1e-4, 1e16]
    values = [_steps(x, n) for x in anchors for n in range(-2, 3)]
    values += [0.0, -0.0, math.nan, math.inf, -math.inf]
    values += [_digit_ties(d, 16 - d + half, n)
               for d in range(-4, 16) for half in (0, 1) for n in range(0, 300, 7)]
    return values + [-v for v in values]


# Scores where a vectorised repr could go wrong: any double and any bit
# pattern (NaN, inf and subnormals included), signed zeros, the ends 1e-4
# and 1e16 of repr's positional form and their neighbours, powers of 2 and
# of 10 and their neighbours, decimals of 1 to 17 significant digits, and
# the exact ties of the digit search.
score_values = st.one_of(
    st.floats(width=64),
    st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.builds(lambda x, n, sign: sign * _steps(x, n), st.sampled_from([1e-4, 1e16]),
              st.integers(-3, 3), st.sampled_from([1, -1])),
    st.builds(lambda k, n: _steps(2.0 ** k, n), st.integers(-1074, 1023), st.integers(-2, 2)),
    st.builds(lambda k, n: _steps(float(f"1e{k}"), n), st.integers(-323, 308),
              st.integers(-2, 2)),
    st.builds(lambda digits, k, sign: sign * float(f"{digits}e{k}"),
              st.integers(1, 10 ** 17 - 1), st.integers(-25, 16), st.sampled_from([1, -1])),
    st.builds(lambda d, half, n, sign: sign * _digit_ties(d, 16 - d + half, n),
              st.integers(-4, 15), st.integers(0, 1), st.integers(0, 2 ** 40),
              st.sampled_from([1, -1])),
)


# Coordinates where a vectorised "%.6f" could go wrong: any double (NaN,
# inf and the huge included), signed zeros and subnormals, the exact ties
# k/128, doubles next to (k + 0.5)e-6 whose product with 1e6 may round to a
# half-integer, the bound 2**52 / 1e6 of the exact domain, and the carries
# of 10**m - 5e-7 into the integer part.
map_values = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.nan, math.inf, -math.inf]),
    st.floats(-2.3e-308, 2.3e-308),
    st.integers(-2 ** 30, 2 ** 30).map(lambda k: k / 128),
    st.builds(lambda k, n: _steps((k + 0.5) * 1e-6, n),
              st.integers(-2 ** 45, 2 ** 45), st.integers(-2, 2)),
    st.builds(lambda n, sign: sign * _steps(2.0 ** 52 / 1e6, n),
              st.integers(-8, 8), st.sampled_from([1, -1])),
    st.builds(lambda m, n, sign: sign * _steps(10.0 ** m - 5e-7, n),
              st.integers(0, 9), st.integers(-3, 3), st.sampled_from([1, -1])),
)


class TestWriters:
    """The writers emit the bytes of per-row Python formatting."""

    @staticmethod
    def _reference_map(xyz, flags):
        return "".join(["%.6f %.6f %.6f %s\n" % (x, y, z, "255 0 0" if f else "0 255 0")
                        for (x, y, z), f in zip(xyz.tolist(), flags.tolist())]).encode()

    @staticmethod
    def _map(xyz, flags, rows):
        """The map written to a binary sink, in chunks of rows."""
        sink = io.BytesIO()
        with mock.patch.object(pointcloud, "_WRITE_ROWS", rows):
            write_idood_map(xyz, flags, sink)
        return sink.getvalue()

    @PROPERTY
    @given(st.lists(st.tuples(map_values, map_values, map_values, st.integers(0, 1)),
                    max_size=24),
           st.integers(1, 5))
    @example([(3.5e-06, 4.5e-06, 1 / 128, 0), (-0.0, -1e-9, 999999.9999995, 1)], 1)
    @example([(4503599627.370495, -4503599627.370496, 4.5e9, 1)], 2)
    def test_map_matches_percent_format(self, rows, chunk):
        xyz = np.array([row[:3] for row in rows], dtype=np.float64).reshape(-1, 3)
        flags = np.array([row[3] for row in rows], dtype=np.uint8)
        assert self._map(xyz, flags, chunk) == self._reference_map(xyz, flags)

    def test_map_mixes_fast_and_fallback_chunks(self):
        # One row per chunk: the tie 1/128 and 1e300 go to the per-row
        # formatter, the other rows to the vectorised kernel.
        xyz = np.array([[0.25, -1.5, 3.0], [1 / 128, 2.0, 0.0],
                        [-0.0, -1e-9, 999999.9999996], [1e300, 0.0, 0.0]])
        flags = np.array([0, 1, 0, 1], dtype=np.uint8)
        spelled = []

        def spy(*args):
            spelled.append(kernel(*args))
            return spelled[-1]

        kernel = pointcloud._map_chunk
        with mock.patch.object(pointcloud, "_map_chunk", spy):
            binary = self._map(xyz, flags, 1)
        assert [chunk is None for chunk in spelled] == [False, True, False, True]
        assert binary == self._reference_map(xyz, flags)
        assert binary.startswith(b"0.250000 -1.500000 3.000000 0 255 0\n"
                                 b"0.007812 2.000000 0.000000 255 0 0\n"
                                 b"-0.000000 -0.000000 1000000.000000 0 255 0\n")

    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_map_blocks(self, n):
        rng = np.random.default_rng(n)
        xyz = rng.normal(scale=100.0, size=(n, 3))
        xyz[:n // 2] *= 1e-9
        flags = rng.integers(0, 2, size=n)
        assert self._map(xyz, flags, 3) == self._reference_map(xyz, flags)

    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_scores_blocks(self, n):
        values = np.random.default_rng(n).normal(size=n) * 10.0 ** np.arange(n)
        with mock.patch.object(scores, "_WRITE_ROWS", 3):
            sink = io.BytesIO()
            write_scores_csv(values, sink)
        rows = [f"{i},{v!r}" for i, v in enumerate(values.tolist())]
        assert sink.getvalue() == ("\n".join(["index,score"] + rows) + "\n").encode()

    @staticmethod
    def _reference_scores(values, start=0) -> bytes:
        return "".join([f"{i},{v!r}\n"
                        for i, v in enumerate(values.tolist(), start)]).encode()

    @PROPERTY
    @given(st.lists(score_values, max_size=40), st.sampled_from([1, 3, None]))
    @example([1 + 3 * 2.0 ** -17, -8.000045776367188, 0.001, 9999999999999998.0,
              1e16, 1e-4, 9.999999999999999e-05, -0.0], 1)
    def test_scores_match_repr(self, values, rows):
        # rows None is the default tile.
        values = np.array(values, dtype=np.float64)
        sink = io.BytesIO()
        with mock.patch.object(scores, "_WRITE_ROWS", rows or scores._WRITE_ROWS):
            write_scores_csv(values, sink)
        assert sink.getvalue() == b"index,score\n" + self._reference_scores(values)

    def test_adversarial_scores_match_repr(self):
        values = np.array(_adversarial_scores())
        assert scores._score_chunk(values, 0) == self._reference_scores(values)

    @pytest.mark.parametrize("start", [1, 95, 998, 9996, 10 ** 8 - 3,
                                       10 ** 12 - 1, 10 ** 18 - 5])
    def test_score_rows_index_from_any_start(self, start):
        values = np.array([0.5, -1.25, 1e-5, 0.1, -0.0, math.nan, 3.0, 7e15, 1.5e-4])
        assert scores._score_chunk(values, start) == self._reference_scores(values, start)

    def test_scores_outside_the_domain_go_to_repr(self):
        # The kernel spells every row in its domain; repr writes only the
        # others: a power of two, values printed with an exponent, NaN and
        # infinities, and an exact tie of the digit search.
        tie = 1 + 3 * 2.0 ** -17
        spelled = [0.1, -2.5, 9999999999999998.0, 1e-4, -0.0, 0.0, 123.456,
                   1 + 2.0 ** -52, -9.87654321e15]
        others = [0.5, 1e-5, -1e16, 1e300, math.nan, math.inf, -math.inf, 5e-324, tie]
        values = np.array(spelled + others)
        seen = []

        def spy(value):
            seen.append(value)
            return repr(value)

        with mock.patch.object(scores, "repr", spy, create=True):
            text = scores._score_chunk(values, 0)
        assert text == self._reference_scores(values)
        assert [repr(v) for v in seen] == [repr(v) for v in others]

    def test_a_tile_with_no_row_in_the_domain_skips_the_digit_search(self):
        # Scores printed with an exponent, such as the 1 - MSP of confident
        # rows, and non-finite ones: each row is one repr call, with no
        # digit search; one row in the domain brings the search back.
        rng = np.random.default_rng(17)
        values = np.concatenate([10.0 ** rng.uniform(-9, -5, 300),
                                 [1e16, -2e-300, 5e-324, math.nan, -math.inf]])
        calls = []

        def spy(value):
            calls.append(value)
            return repr(value)

        searched = mock.Mock(wraps=scores._shortest)
        with mock.patch.object(scores, "repr", spy, create=True), \
                mock.patch.object(scores, "_shortest", searched):
            text = scores._score_chunk(values, 40)
            assert searched.call_count == 0
            mixed = scores._score_chunk(np.append(values, 0.3), 40)
            assert searched.call_count == 1
        assert text == self._reference_scores(values, 40)
        assert mixed == self._reference_scores(np.append(values, 0.3), 40)
        assert len(calls) == 2 * len(values)


def test_cli_import_does_not_load_numpy_random():
    src = Path(_io.__file__).resolve().parents[1]
    code = "import sys, pcood.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "False"


def test_import_does_not_load_scipy():
    src = Path(_io.__file__).resolve().parents[1]
    code = "import sys, pcood; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "False"

"""Per-point uncertainty scores with a shared higher-means-OOD orientation.

Two scalar scores are supported: the complement of the maximum softmax
probability (1 - MSP) and the Shannon entropy of the predictive row
(natural log, unnormalized). Both are 0 for a one-hot row, maximal for
a uniform row, and rank points the same way for C = 2, so a single
"score >= threshold means OOD" convention covers both.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from ._io import frozen, iter_blocks, quoted, read_rows, skip_header
from .errors import ValidationError
from .predictive import _row_max

# Probabilities below this are treated as exact zeros in the entropy sum
# so denormal-range entries cannot produce NaN through the logarithm.
ENTROPY_PROB_FLOOR = 1e-12

_SCORE_HEADER = "index,score"
# One decoded score CSV row.
_SCORE_DTYPE = np.dtype([("index", np.int64), ("score", np.float64)])
# Rows spelled per write of a score CSV.
_WRITE_ROWS = 1 << 14


class ScoreKind(enum.Enum):
    MSP_COMPLEMENT = "msp_complement"
    ENTROPY = "entropy"


def score_domain(kind: ScoreKind, n_classes: int) -> tuple[float, float]:
    """Return the (lo, hi) range a score of this kind can take."""
    if n_classes < 2:
        raise ValidationError(f"need at least two classes, got {n_classes}")
    if kind is ScoreKind.MSP_COMPLEMENT:
        return 0.0, 1.0 - 1.0 / n_classes
    if kind is ScoreKind.ENTROPY:
        return 0.0, math.log(n_classes)
    raise ValidationError(f"unknown score kind: {kind!r}")


def score_distribution(probs: np.ndarray, kind: ScoreKind) -> np.ndarray:
    """Score every row of an (N, C) probability array, preserving point order.

    The rows are trusted to be probabilities: pass a mean ``total / k``
    from :meth:`~pcood.predictive.TensorStream.sums`, whose members were
    checked as they were read. Each score depends on its own row alone.
    Returns a read-only float64 array of N scores.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if kind is ScoreKind.MSP_COMPLEMENT:
        values = _row_max(probs)
        np.subtract(1.0, values, out=values)
    elif kind is ScoreKind.ENTROPY:
        values = _exact_entropy(probs)
    else:
        raise ValidationError(f"unknown score kind: {kind!r}")
    return frozen(values)


# Entropy is -sum c log c over a row's floored entries c, with 0 log 0 = 0,
# as scipy's xlogy(c, c) gives it with libm's log. numpy's vectorized log is
# not libm's: on an AVX-512 build of numpy 2.4 it is 1 ulp off on 0.2-0.35%
# of inputs, which moves the last bits of some scores. So the logs come from
# _libm_log, which synth's ndtri uses for the same reason. _LOG_PROBES are
# inputs on which that vectorized log is 1 ulp off.
_LOG_PROBES = (0.125728554452994, 0.12303875267716988, 0.020270657999841055,
               41.960307769650946, 40.72369920103487, 35.785230484522465)


def _strided_log(x: np.ndarray) -> np.ndarray:
    """np.log of the 1-D array x, read with a positive stride and written
    with a negative one (numpy would reverse a loop with both negative)."""
    x = np.ascontiguousarray(x)
    return np.log(x, out=np.empty(x.size)[::-1])


@functools.cache
def _strided_log_is_libm() -> bool:
    """Whether _strided_log gives math.log's bits on _LOG_PROBES."""
    return (_strided_log(np.array(_LOG_PROBES)).tolist()
            == list(map(math.log, _LOG_PROBES)))


def _libm_log(x: np.ndarray) -> np.ndarray:
    """libm's log of each entry of the 1-D array x.

    numpy (2.4, x86-64) takes its vectorized log only when no operand has
    a negative stride; for an output with a negative stride it calls libm's
    log entry by entry, about 35 times faster than math.log through Python.
    That is numpy's choice, not its promise, so it is checked once on inputs
    where the vectorized log is off, and math.log is the fallback. numpy
    ignores the stride of a one-entry array, so one entry takes math.log.
    """
    if x.size > 1 and _strided_log_is_libm():
        return _strided_log(x)
    return np.array(list(map(math.log, x.tolist())), dtype=np.float64)


def _exact_entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of each row of probabilities, with the bits of xlogy over
    the entries floored at ENTROPY_PROB_FLOOR.

    An entry below the floor takes 1 * log 1 = +0.0, as its floored 0 takes
    xlogy(0, 0). The terms are summed from a C-ordered array, as xlogy's
    result would be, so the row sums round alike.
    """
    terms = np.where(probs < ENTROPY_PROB_FLOOR, 1.0, probs)
    terms *= _libm_log(terms.reshape(-1)).reshape(terms.shape)
    return np.maximum(-terms.sum(axis=1), 0.0)


# _score_chunk spells repr(v) of a float64 v with int64 and float64 numpy
# operations. Its domain is v = +-0.0 and every finite v with
# 1e-4 <= |v| < 1e16 whose significand is not a power of two. repr prints
# such a v in positional form: its exponent form starts below 1e-4 and at
# 1e16, and as 1e16 is a double, no v below it reads back from "1e+16".
# The doubles next to v are one ulp u = 2**e away on both sides, so the
# reals that round to v lie within u/2 of it.
# - With d = floor(log10|v|) and s = 16 - d, 1 <= s <= 20 and
#   V = |v| * 10**s lies in [1e16, 1e17). 10**s is a double (s <= 22), so
#   Dekker's TwoProduct gives V = P + E exactly, and I = P + floor(E), an
#   int64, and F = E - floor(E) in [0, 1) are exact. (log10 is off by a few
#   ulp at most, so next to a power of ten its floor can miss d by one; the
#   exact P + E puts d right.)
# - h = u/2 * 10**s, a power of two times 10**s, is an exact double in
#   (0.55, 11.2).
# - repr prints the shortest digits that read back as v, the nearest to v
#   where several are as short: X * 10**-s, X the multiple of 10**j nearest
#   V for the largest j with |X - V| < h. The interval is symmetric, so it
#   holds a multiple of 10**j only if it holds the nearest one.
# - The test is exact. With r = I mod 10**j, the multiples below and above
#   V are r + F and 10**j - r - F away, so the test is F < h - r or
#   F > (10**j - r) - h. Each difference is exact where its compare could go
#   either way: h - r wherever it is positive (r <= 11, and Sterbenz or no
#   bit below ulp(h) is lost), (10**j - r) - h wherever it is below 1
#   (Sterbenz). Elsewhere rounding cannot carry it across 0 or 1, the ends of
#   F's range.
# - No X at the first j that fails lies on the edge, |X - V| = h: X * 10**-s
#   would be v +- u/2, yet X, a multiple of 10**j (j >= 1), has no digit
#   below 10**(1 - s) = 10**(d - 15). Below 2**53, e <= d - 15 (u is at most
#   |v| 2**-52 < 10**(d + 1) 2**-52, and at most 1), and v +- u/2, an odd
#   multiple of 2**(e - 1), has its last digit at 10**(e - 1), lower. From
#   2**53 to 1e16, v +- u/2 is an odd integer, while V = 10v fits j = 1, so
#   the first j to fail is 2 or more and X / 10 is even. So whether repr's
#   interval is open or closed never moves its digits here.
# - Exact ties, |X - V| = 10**j / 2 (j is then 0 or 1), are left to repr
#   rather than copying its tie rule.
# +-0.0 is spelled with X = 0, s = 17 and j = 17.
_MANTISSA = (1 << 52) - 1


@functools.cache
def _repr_tables():
    """The tables of _score_chunk. Each text entry is 4 ASCII bytes viewed as
    one uint32, NUL-padded, so a row is a fixed number of words.

    Returns (pow10, tens, tens_hi, tens_lo, quads, dots, commas, int_masks,
    frac_masks):
    - pow10[j] = 10**j as int64 and tens[s] = 10**s as float64, with
      tens_hi + tens_lo its Veltkamp split;
    - quads[k], k < 10000: the 4 digits of k, zero-padded;
    - dots[k], k < 1000: the 3 digits of k, zero-padded, and ".";
    - commas[k + 100 * neg], k < 100: the 2 digits of k, "," and "-" if neg;
    - int_masks[m]: 5 words that keep the last m digits of a 19-digit
      integer part and its "."; frac_masks[21 * s + m]: 5 words that keep
      the first m of the last s digits of a 20-digit fraction.
    """
    pow10 = np.array([10 ** j for j in range(19)], dtype=np.int64)
    tens = np.array([float(10 ** s) for s in range(23)])
    split = tens * 134217729.0
    tens_hi = split - (split - tens)
    k = np.arange(10000)
    digits = (np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
              .astype(np.uint8) + ord("0"))
    dots = np.hstack([digits[:1000, 1:], np.full((1000, 1), ord("."), np.uint8)])
    commas = np.zeros((200, 4), dtype=np.uint8)
    commas[:, :2] = digits[k[:200] % 100, 2:]
    commas[:, 2] = ord(",")
    commas[100:, 3] = ord("-")
    col = np.arange(20)
    m = np.arange(21)[:, None]
    int_masks = np.where(col >= 19 - m[:17], 255, 0).astype(np.uint8)
    first = 20 - m[:, :, None]
    frac_masks = np.where((col >= first) & (col < first + m[None]), 255, 0)
    return (pow10, tens, tens_hi, tens - tens_hi,
            *(frozen(t.view(np.uint32)[:, 0]) for t in (digits, dots, commas)),
            frozen(int_masks.view(np.uint32)),
            frozen(frac_masks.astype(np.uint8).reshape(441, 20).view(np.uint32)))


def _times_ten_to(a: np.ndarray, s: np.ndarray):
    """(P, E) with P + E = a * 10**s exactly (Dekker's TwoProduct)."""
    _, tens, tens_hi, tens_lo, *_ = _repr_tables()
    p = a * tens[s]
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    return p, (((a_hi * tens_hi[s] - p) + a_hi * tens_lo[s] + a_lo * tens_hi[s])
               + a_lo * tens_lo[s])


def _near(big, frac, h, unit):
    """Whether a multiple of `unit` lies strictly within h of V = big + frac."""
    r = big % unit
    return (frac < h - r) | (frac > (unit - r) - h)


def _fill_quads(x: np.ndarray, out: np.ndarray, quads: np.ndarray) -> None:
    """Write the digits of int64 `x` into the uint32 words of `out`, 4 per
    word, from the `quads` table."""
    for w in range(out.shape[1] - 1, -1, -1):
        high = x // 10000
        out[:, w] = quads[x - high * 10000]
        x = high


def _shortest(a: np.ndarray):
    """repr's digits of each |v| in `a` that lies in the domain of the
    comment above, where every other entry is 0.

    Returns (X, s, j, tie): the digits are X * 10**-s, X the multiple of
    10**j that repr prints, and tie marks the rows whose V lies exactly
    halfway between two multiples, left to repr.
    """
    pow10, tens, *_ = _repr_tables()
    s = 16 - np.floor(np.log10(np.where(a > 0.0, a, 0.1))).astype(np.int64)
    p, e = _times_ten_to(a, s)
    low = (p < 1e16) | ((p == 1e16) & (e < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0.0))
    moved = np.flatnonzero((low | high) & (a > 0.0))
    if moved.size:
        s[moved] += low[moved].astype(np.int64) - high[moved]
        p[moved], e[moved] = _times_ten_to(a[moved], s[moved])
    floor_e = np.floor(e)
    big = p.astype(np.int64) + floor_e.astype(np.int64)
    frac = e - floor_e
    # h is 0 where a is (zeros and the rows left to repr), so no level passes
    # there; j = 17 leaves a zero one fraction digit.
    h = np.spacing(a) * 0.5 * tens[s]
    j = np.where(a > 0.0, 0, 17)
    rows = np.flatnonzero(_near(big, frac, h, 10))
    for level in range(1, 18):
        if not rows.size:
            break
        j[rows] = level
        rows = rows[_near(big[rows], frac[rows], h[rows], pow10[level + 1])]
    unit = pow10[j]
    r = big % unit
    rf = r + frac
    half = 0.5 * unit
    return big - r + (rf > half) * unit, s, j, rf == half


def _score_chunk(values: np.ndarray, start: int) -> bytes:
    """The score CSV rows of float64 `values`, the first indexed `start`, as
    ASCII bytes equal to f"{i},{value!r}\\n" per row.

    Rows in the domain of the comment above are spelled by the kernel; the
    others are written by repr into the same fixed-width row, and a tile
    with no row in the domain skips the kernel's digit search. A row is, in
    uint32 words: the index's leading digits, its last two digits with ","
    and the sign, the integer part with ".", the fraction, and the newline;
    NUL padding, leading zeros and trailing zeros are dropped at the end.
    """
    pow10, _, _, _, quads, dots, commas, int_masks, frac_masks = _repr_tables()
    n = len(values)
    a = np.abs(values)
    fast = (a == 0.0) | ((a >= 1e-4) & (a < 1e16)
                         & (values.view(np.int64) & _MANTISSA != 0))
    # The number's words also hold a repr row of up to 24 characters.
    int_words, frac_words = 1, 5
    spell = bool(fast.any())
    if spell:
        x, s, j, tie = _shortest(np.where(fast, a, 0.0))
        fast &= ~tie
        # Split X * 10**-s into its integer part and its 20-digit fraction.
        scale = pow10[np.minimum(s, 18)]
        whole = x // scale
        fraction = x - whole * scale
        int_digits = np.maximum(17 - s + (x == 10 ** 17), 1)
        frac_digits = np.maximum(s - j, 1)
        int_words = 1 + int(int_digits.max()) // 4
        frac_words = max(-(-int(s.max()) // 4), 6 - int_words)
    stop = start + n
    index_words = max((len(str(stop - 1)) + 1) // 4, 1)
    words = np.empty((n, index_words + int_words + frac_words + 2), dtype=np.uint32)
    index = np.arange(start, stop, dtype=np.int64)
    lead = index // 100
    _fill_quads(lead, words[:, :index_words], quads)
    words[:, index_words] = commas[index - lead * 100 + 100 * np.signbit(values)]
    if spell:
        c = index_words + 1
        lead = whole // 1000
        _fill_quads(lead, words[:, c:c + int_words - 1], quads)
        words[:, c + int_words - 1] = dots[whole - lead * 1000]
        words[:, c:c + int_words] &= np.take(int_masks, int_digits,
                                             axis=0)[:, 5 - int_words:]
        c += int_words
        _fill_quads(fraction, words[:, c:c + frac_words], quads)
        words[:, c:c + frac_words] &= np.take(frac_masks, 21 * s + frac_digits,
                                              axis=0)[:, 5 - frac_words:]
    words[:, -1] = np.frombuffer(b"\n\0\0\0", dtype=np.uint32)
    text = words.view(np.uint8)
    # Index digit q (0 = units) is a leading zero on the rows below 10**q.
    for q in range(1, 4 * index_words + 2):
        text[:min(max(10 ** q - start, 0), n), 4 * index_words + 1 - q] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        width = 4 * (int_words + frac_words)
        text[slow, 4 * index_words + 3] = 0
        text[slow, 4 * index_words + 4:4 * index_words + 4 + width] = np.array(
            [repr(v) for v in values[slow].tolist()], dtype=f"S{width}"
        ).view(np.uint8).reshape(-1, width)
    return text.tobytes().translate(None, b"\0")


def write_scores_csv(scores, sink) -> None:
    """Dump scores as CSV with header ``index,score``.

    Each row is ``f"{index},{score!r}"``: floats are written with repr, so
    reading the file back reproduces them bit for bit. The rows are spelled
    in tiles by a numpy kernel that falls back to repr itself for any score
    outside the domain it spells exactly.
    """
    values = np.asarray(scores, dtype=np.float64)
    _write_score_rows((_score_chunk(values[start:start + _WRITE_ROWS], start)
                       for start in range(0, len(values), _WRITE_ROWS)), sink)


def _write_score_rows(chunks, sink) -> None:
    """Write the score CSV header, then each chunk of rows that
    `_score_chunk` spelled, in order."""
    sink.write((_SCORE_HEADER + "\n").encode())
    for chunk in chunks:
        sink.write(chunk)


def read_scores_csv(source) -> np.ndarray:
    """Read a score CSV written by :func:`write_scores_csv`.

    Blank lines and ``#`` comment lines are skipped; scores must be finite.
    """
    # The index the next row must have, shared by both paths of read_rows.
    count = 0

    def accept(rec):
        """The scores of a block numpy decoded, or None where a row fails a
        check of parse: a non-finite score, or an index out of order."""
        nonlocal count
        expected = np.arange(count, count + rec.shape[0])
        if not (np.isfinite(rec["score"]).all() and (rec["index"] == expected).all()):
            return None
        count += rec.shape[0]
        return rec["score"]

    def parse(lineno, line):
        """The line parser for score rows: the score of a line, or None for
        a blank or ``#`` comment line."""
        nonlocal count
        text = line.strip()
        if not text or text.startswith("#"):
            return None
        parts = text.split(",")
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'index,score', got {quoted(text)}")
        try:
            index = int(parts[0])
            value = float(parts[1])
        except ValueError:
            raise ValidationError(f"line {lineno}: malformed row {quoted(text)}") from None
        if index != count:
            raise ValidationError(
                f"line {lineno}: index {index} out of order, expected {count}")
        if not math.isfinite(value):
            raise ValidationError(f"line {lineno}: non-finite score")
        count += 1
        return value

    lineno = skip_header(source, _SCORE_HEADER, parse)
    return read_rows(iter_blocks(source, lineno), np.empty(0), "line",
                     _SCORE_DTYPE, ",", accept, parse)

"""Per-point uncertainty scores with a shared higher-means-OOD orientation.

Two scalar scores are supported: the complement of the maximum softmax
probability (1 - MSP) and the Shannon entropy of the predictive row
(natural log, unnormalized). Both are 0 for a one-hot row, maximal for
a uniform row, and rank points the same way for C = 2, so a single
"score >= threshold means OOD" convention covers both.
"""

from __future__ import annotations

import enum
import itertools
import math

import numpy as np

from ._io import (block_lines, frozen, iter_blocks, load_block, numbered_lines,
                  stacked, write_text)
from .errors import ParseError, ValidationError
from .predictive import _row_max

# Probabilities below this are treated as exact zeros in the entropy sum
# so denormal-range entries cannot produce NaN through the logarithm.
ENTROPY_PROB_FLOOR = 1e-12

# Entropy is defined by scipy's xlogy, which calls libm's log. numpy's log
# is not a drop-in for it: on an AVX-512 build of numpy 2.4 it differs
# from libm's by 1 ulp on 0.2-0.35% of inputs, while xlogy(x, x) equals
# x * math.log(x) on 2M of 2M inputs. So numpy's log only screens: it
# decides the rows whose decision the margin C * _ENTROPY_MARGIN_PER_CLASS
# cannot move, and every other row gets its exact score. (synth keeps
# scipy's ndtri for the same reason: a stand-in would have to match its
# bits.) The margin bounds |h - e|, where h is a row's numpy-log entropy
# and e its xlogy entropy:
# - For a row of entries p_i in [0, 1] whose sum is within
#   PROB_ROW_SUM_TOL of 1, S = sum |p_i log p_i| <= (1 + 1e-5) ln C.
# - np.log is within k ulp of libm's log (k = 1 measured; the margin
#   assumes k <= 4, and a test checks it), so with both products rounded
#   each term differs by at most (k + 1) 2**-52 |p_i log p_i|.
# - Both sums add C terms in the same order, each off its exact sum by at
#   most g(C - 1, 2**-53) S (Higham, section 4.2), g(n, u) = n u / (1 - n u).
# - So |h - e| <= (k + C) 2**-52 S, within 1e-12 relative; negating and
#   the clamp at 0 do not widen it. At k = 4 that is at most
#   1.00002 (C + 4) ln(C) 2**-52.
# The margin C * 2**-40 is over 300 times that bound for every C <= 2**16;
# the slack also covers the rounding of h - margin and h + margin, at most
# half an ulp of h <= 12.
_ENTROPY_MARGIN_PER_CLASS = 2.0 ** -40

_SCORE_HEADER = "index,score"
# One decoded score CSV row.
_SCORE_DTYPE = np.dtype([("index", np.int64), ("score", np.float64)])
# Rows formatted per write in write_scores_csv.
_WRITE_ROWS = 1 << 16


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


def score_distribution(probs: np.ndarray, kind: ScoreKind,
                       decide=None) -> np.ndarray:
    """Score every row of an (N, C) probability array, preserving point order.

    The rows are trusted to be probabilities: pass a mean ``total / k``
    from :meth:`~pcood.predictive.TensorStream.sums`, whose members were
    checked as they were read. Each score depends on its own row alone.
    Returns a read-only float64 array of N scores.

    ``decide``, if given, is what the caller does with the scores: a
    nondecreasing function from an array of scores to an array of
    decisions, such as a histogram bin or an OOD flag. Entropy is then
    computed with numpy's log and without scipy, except on rows near a
    boundary of ``decide``, which get their exact score. A score may then
    differ from the exact one in its last bits, but ``decide`` gives it
    the exact score's decision. MSP scores are exact either way.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if kind is ScoreKind.MSP_COMPLEMENT:
        values = _row_max(probs)
        np.subtract(1.0, values, out=values)
    elif kind is ScoreKind.ENTROPY:
        clamped = np.where(probs < ENTROPY_PROB_FLOOR, 0.0, probs)
        if decide is None:
            values = _exact_entropy(clamped)
        else:
            values = _screened_entropy(clamped, decide)
    else:
        raise ValidationError(f"unknown score kind: {kind!r}")
    return frozen(values)


def _exact_entropy(clamped: np.ndarray) -> np.ndarray:
    """Entropy of each row of floored probabilities, by scipy's xlogy."""
    from scipy.special import xlogy

    return np.maximum(-xlogy(clamped, clamped).sum(axis=1), 0.0)


def _screened_entropy(clamped: np.ndarray, decide) -> np.ndarray:
    """Entropy by numpy's log, exact on rows whose decision it could move."""
    terms = np.log(clamped, out=np.zeros_like(clamped), where=clamped > 0.0)
    np.multiply(clamped, terms, out=terms)
    values = np.maximum(-terms.sum(axis=1), 0.0)
    margin = clamped.shape[1] * _ENTROPY_MARGIN_PER_CLASS
    unsure = decide(values - margin) != decide(values + margin)
    if unsure.any():
        values[unsure] = _exact_entropy(clamped[unsure])
    return values


def write_scores_csv(scores, sink) -> None:
    """Dump scores as CSV with header ``index,score``.

    Floats are written with repr so reading the file back reproduces
    them bit for bit.
    """
    values = np.asarray(scores, dtype=np.float64)
    write_text(sink, _SCORE_HEADER + "\n")
    for start in range(0, len(values), _WRITE_ROWS):
        rows = enumerate(values[start:start + _WRITE_ROWS].tolist(), start)
        write_text(sink, "".join([f"{i},{value!r}\n" for i, value in rows]))


def _after_header(lineno: int, block):
    """Return ``(line number, rest of block)`` after the header, or None.

    The lines before the header may only be blank or ``#`` comments; the
    block holds no header when it has nothing else.
    """
    lines = block_lines(block)
    for lineno, line in numbered_lines(lines, "line", lineno):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text != _SCORE_HEADER:
            raise ParseError(
                f"line {lineno}: expected header 'index,score', got {text!r}"
            )
        return lineno + 1, block[lines.tell():]
    return None


def _score_values(numbered, count: int) -> list:
    """The line parser for score rows; the first row's index must be ``count``."""
    values = []
    for lineno, line in numbered:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'index,score', got {text!r}")
        try:
            index = int(parts[0])
            value = float(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed row {text!r}") from None
        if index != count + len(values):
            raise ParseError(
                f"line {lineno}: index {index} out of order, "
                f"expected {count + len(values)}"
            )
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite score")
        values.append(value)
    return values


def _scores_block(lineno: int, block, count: int) -> np.ndarray:
    """Decode one block of score rows, the first indexed ``count``.

    numpy's reader decodes the block; where it rejects the block, or a row
    fails the line parser's checks, the line parser reruns on the block and
    either raises its error or returns the rows numpy could not read.
    """
    rec = load_block(block, _SCORE_DTYPE, ",")
    if rec is not None:
        expected = np.arange(count, count + rec.shape[0])
        if np.isfinite(rec["score"]).all() and (rec["index"] == expected).all():
            return rec["score"]
    return np.array(_score_values(numbered_lines(block_lines(block), "line", lineno),
                                  count), dtype=np.float64)


def read_scores_csv(source) -> np.ndarray:
    """Read a score CSV written by :func:`write_scores_csv`.

    Blank lines and ``#`` comment lines are skipped; scores must be finite.
    """
    values = np.empty(0)
    blocks = iter_blocks(source)
    for lineno, block in blocks:
        found = _after_header(lineno, block)
        if found is not None:
            break
    else:
        raise ParseError("missing 'index,score' header")
    blocks = itertools.chain([found], blocks)
    # values grows as each block is stacked, so its length is the index
    # the next block's first row must have.
    return stacked((_scores_block(lineno, block, len(values))
                    for lineno, block in blocks), values)

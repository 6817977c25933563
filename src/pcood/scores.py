"""Per-point uncertainty scores with a shared higher-means-OOD orientation.

Two scalar scores are supported: the complement of the maximum softmax
probability (1 - MSP) and the Shannon entropy of the predictive row
(natural log, unnormalized). Both are 0 for a one-hot row, maximal for
a uniform row, and rank points the same way for C = 2, so a single
"score >= threshold means OOD" convention covers both.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._io import (block_lines, frozen, iter_blocks, load_block, numbered_lines,
                  write_text)
from .errors import ParseError, ValidationError
from .predictive import _row_max

# Probabilities below this are treated as exact zeros in the entropy sum
# so denormal-range entries cannot produce NaN through the logarithm.
ENTROPY_PROB_FLOOR = 1e-12

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


def score_distribution(probs: np.ndarray, kind: ScoreKind) -> np.ndarray:
    """Score every row of an (N, C) probability array, preserving point order.

    The rows are trusted to be probabilities: pass a mean from
    :meth:`~pcood.predictive.TensorStream.means`, whose members were
    checked as they were read. Returns a read-only float64 array of N
    scores.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if kind is ScoreKind.MSP_COMPLEMENT:
        values = _row_max(probs)
        np.subtract(1.0, values, out=values)
    elif kind is ScoreKind.ENTROPY:
        from scipy.special import xlogy

        clamped = np.where(probs < ENTROPY_PROB_FLOOR, 0.0, probs)
        values = np.maximum(-xlogy(clamped, clamped).sum(axis=1), 0.0)
    else:
        raise ValidationError(f"unknown score kind: {kind!r}")
    return frozen(values)


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
    parts = [np.zeros(0)]
    count = 0
    header_seen = False
    for lineno, block in iter_blocks(source):
        if not header_seen:
            found = _after_header(lineno, block)
            if found is None:
                continue
            lineno, block = found
            header_seen = True
        parts.append(_scores_block(lineno, block, count))
        count += len(parts[-1])
    if not header_seen:
        raise ParseError("missing 'index,score' header")
    return np.concatenate(parts)

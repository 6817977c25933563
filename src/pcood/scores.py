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
from dataclasses import dataclass

import numpy as np

from ._io import block_lines, iter_blocks, load_block, numbered_lines, write_text
from .errors import ParseError, StructuralError, ValidationError
from .predictive import PredictiveDistribution

ROW_SUM_TOL = 1e-5
DOMAIN_TOL = 1e-9

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class ScoreVector:
    """Per-point OOD scores of one kind, bounded by the kind's domain."""

    scores: np.ndarray
    kind: ScoreKind
    n_classes: int
    domain_lo: float | None = None
    domain_hi: float | None = None

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        if scores.ndim != 1:
            raise StructuralError(f"scores must be one-dimensional, got {scores.shape}")
        if self.domain_lo is None or self.domain_hi is None:
            self.domain_lo, self.domain_hi = score_domain(self.kind, self.n_classes)
        if scores.size:
            if not np.isfinite(scores).all():
                raise ValidationError("scores must be finite")
            lo, hi = scores.min(), scores.max()
            if lo < self.domain_lo - DOMAIN_TOL or hi > self.domain_hi + DOMAIN_TOL:
                raise ValidationError(
                    f"scores span [{lo!r}, {hi!r}], outside the "
                    f"[{self.domain_lo!r}, {self.domain_hi!r}] domain"
                )
        self.scores = _frozen(scores)

    def __len__(self) -> int:
        return self.scores.shape[0]


def _checked_row(probs) -> np.ndarray:
    row = np.asarray(probs, dtype=np.float64)
    if row.ndim != 1:
        raise StructuralError(f"expected a probability row, got shape {row.shape}")
    if row.size == 0:
        raise ValidationError("probability row is empty")
    if not np.isfinite(row).all():
        raise ValidationError("probability row must be finite")
    if row.min() < 0.0:
        raise ValidationError(f"negative probability {row.min()!r}")
    total = row.sum()
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise ValidationError(f"probability row sums to {total!r}, not 1")
    return row


def msp_complement(probs) -> float:
    """1 minus the maximum softmax probability; 0 = fully confident."""
    row = _checked_row(probs)
    return float(1.0 - row.max())


def entropy(probs) -> float:
    """Shannon entropy (natural log) with the 0 ln 0 = 0 convention."""
    from scipy.special import xlogy

    row = _checked_row(probs)
    row = np.where(row < ENTROPY_PROB_FLOOR, 0.0, row)
    return float(max(-xlogy(row, row).sum(), 0.0))


def score_distribution(dist: PredictiveDistribution, kind: ScoreKind) -> ScoreVector:
    """Score every row of a distribution, preserving point order."""
    probs = dist.probs
    if probs.size:
        dev = np.abs(probs.sum(axis=1) - 1.0)
        if dev.max() > ROW_SUM_TOL:
            i = int(dev.argmax())
            raise ValidationError(
                f"point {i}: probability row sums to {probs[i].sum()!r}, not 1"
            )
    if kind is ScoreKind.MSP_COMPLEMENT:
        values = 1.0 - probs.max(axis=1) if probs.size else np.zeros(0)
    elif kind is ScoreKind.ENTROPY:
        if probs.size:
            from scipy.special import xlogy

            clamped = np.where(probs < ENTROPY_PROB_FLOOR, 0.0, probs)
            values = np.maximum(-xlogy(clamped, clamped).sum(axis=1), 0.0)
        else:
            values = np.zeros(0)
    else:
        raise ValidationError(f"unknown score kind: {kind!r}")
    return ScoreVector(values, kind, dist.n_classes)


def write_scores_csv(scores, sink) -> None:
    """Dump scores as CSV with header ``index,score``.

    Floats are written with repr so reading the file back reproduces
    them bit for bit.
    """
    values = scores.scores if isinstance(scores, ScoreVector) else \
        np.asarray(scores, dtype=np.float64)
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

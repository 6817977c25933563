"""Pooled ID/OOD discrimination metrics and segmentation scoring.

AUROC is the probability that a randomly chosen OOD point scores above
a randomly chosen ID point, with ties credited 0.5 (the Mann-Whitney
rank form). It is computed either exactly, by binary search of each
OOD score among the sorted ID scores, or from per-population int64 bin
counts; the counts of the parts of any partition of the input add up to
the counts of the whole, so the binned route is bit-deterministic
however the input is split.

Both histogram AUROC and the ROC curve's area are evaluated in exact
integer arithmetic (one float division at the very end), which makes
the trapezoidal area and the rank statistic agree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._args import DEFAULT_BIN_COUNT, check_threshold
from ._io import frozen, numbered_lines, quoted, skip_header
from .errors import ValidationError

# Below this many pooled points the exact sort is cheap; above it the
# streaming histogram is the default (overridable by CLI flag).
EXACT_MODE_MAX_POINTS = 10 ** 7

# Stated in every report so downstream users know the tie convention.
TIE_RULE = "ties-credited-0.5"

# OOD scores per block of exact_auroc's binary searches.
_SEARCH_BLOCK = 1 << 16

_ROC_HEADER = "threshold,fpr,tpr"


def exact_auroc(id_scores, ood_scores) -> float:
    """Tie-credited Mann-Whitney statistic P(ood > id) + 0.5 P(ood = id).

    Computed by counting: with U the tie-credited Mann-Whitney count,
    2U is the sum over OOD scores o of (#ID < o) + (#ID <= o). With the
    ID scores sorted, those two counts are the left and right insertion
    points of o, found by binary search. They differ only where an ID
    score equals o, so the right one is searched for only there. The
    count is an exact integer, so the result is the exactly rounded
    value of 2U / (2nm).
    """
    ids = np.asarray(id_scores, dtype=np.float64).ravel()
    oods = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ids.size == 0 or oods.size == 0:
        raise ValidationError("both populations must be non-empty")
    if not np.isfinite(ids).all() or not np.isfinite(oods).all():
        raise ValidationError("scores must be finite")
    ids, oods = np.sort(ids), np.sort(oods)
    double_u = 0
    # OOD scores a block at a time, so the temporaries stay block-sized.
    for a in range(0, oods.size, _SEARCH_BLOCK):
        part = oods[a:a + _SEARCH_BLOCK]
        left = np.searchsorted(ids, part, "left")
        tied = ids.take(left, mode="clip") == part
        right = np.searchsorted(ids, part[tied], "right")
        double_u += 2 * int(left.sum()) + int((right - left[tied]).sum())
    return double_u / (2 * ids.size * oods.size)


def check_domain(domain) -> tuple[float, float]:
    """The (lo, hi) floats of `domain`, an interval bins can be cut from."""
    lo, hi = (float(end) for end in domain)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValidationError(f"domain [{lo!r}, {hi!r}] is not an interval")
    # Binning divides by the width, so it must be a finite double too.
    if not np.isfinite(hi - lo):
        raise ValidationError(
            f"domain [{lo!r}, {hi!r}] is wider than the largest double")
    return lo, hi


def hist_accumulate(scores, domain,
                    bins: int = DEFAULT_BIN_COUNT) -> np.ndarray:
    """The (bins,) int64 counts of finite scores binned over domain (lo, hi).

    A score s lands in bin floor((s - lo) / (hi - lo) * bins), clamped to
    [0, bins - 1], so scores outside the domain land in the edge bins. A
    score kind's domain is ``score_domain(kind, n_classes)``. The counts
    of the parts of any partition of the scores add up to the counts of
    the whole, so sharded counts merge by ``+``.
    """
    if bins < 2:
        raise ValidationError(f"bin_count must be >= 2, got {bins}")
    lo, hi = check_domain(domain)
    values = np.asarray(scores, dtype=np.float64).ravel()
    if values.size and not np.isfinite(values).all():
        raise ValidationError("scores must be finite")
    # A finite score far outside the domain overflows to +-inf, which the
    # clip maps to its edge bin.
    with np.errstate(over="ignore"):
        idx = np.floor((values - lo) / (hi - lo) * bins)
    idx = np.clip(idx, 0, bins - 1).astype(np.int64)
    return np.bincount(idx, minlength=bins)


def _check_counts(counts_id, counts_ood) -> tuple[np.ndarray, np.ndarray]:
    """Both populations' bin counts as int64 arrays, checked: one 1-D shape
    of at least 2 bins, no negative count, and a point in each."""
    counts_id = np.asarray(counts_id, dtype=np.int64)
    counts_ood = np.asarray(counts_ood, dtype=np.int64)
    if counts_id.ndim != 1 or counts_id.size < 2 or counts_ood.shape != counts_id.shape:
        raise ValidationError(
            f"counts must share one 1-D shape of at least 2 bins, got "
            f"{counts_id.shape} and {counts_ood.shape}")
    if counts_id.min() < 0 or counts_ood.min() < 0:
        raise ValidationError("counts must be nonnegative")
    if not counts_id.any() or not counts_ood.any():
        raise ValidationError("both populations need at least one accumulated point")
    return counts_id, counts_ood


def hist_auroc(counts_id, counts_ood) -> float:
    """Mann-Whitney over bins, crediting within-bin ties 0.5.

    The bin sums are accumulated as exact integers and divided once, so
    the result cannot drift however large the counts grow.
    """
    counts_id, counts_ood = _check_counts(counts_id, counts_ood)
    n_id, n_ood = int(counts_id.sum()), int(counts_ood.sum())
    # 2 * sum_b ood_b * (id_below(b) + 0.5 * id_b), kept in exact ints.
    below = 0
    double_u = 0
    for id_b, ood_b in zip(counts_id.tolist(), counts_ood.tolist()):
        if ood_b:
            double_u += ood_b * (2 * below + id_b)
        below += id_b
    return double_u / (2 * n_id * n_ood)


@dataclass
class RocCurve:
    """ROC sweep over bin edges from high threshold to low.

    thresholds[i] is the lower edge of the (i-th from the top) bin;
    point i + 1 of (fpr, tpr) is the fraction of each population at or
    above that threshold. Point 0 is the (0, 0) corner.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auroc: float

    def __post_init__(self):
        thresholds = np.array(self.thresholds, dtype=np.float64, copy=True)
        fpr = np.array(self.fpr, dtype=np.float64, copy=True)
        tpr = np.array(self.tpr, dtype=np.float64, copy=True)
        m = thresholds.shape[0]
        if fpr.shape != (m + 1,) or tpr.shape != (m + 1,):
            raise ValidationError(
                f"{m} thresholds need {m + 1} curve points, got "
                f"{fpr.shape[0]} fpr and {tpr.shape[0]} tpr"
            )
        if m == 0:
            raise ValidationError("curve needs at least one threshold")
        # A NaN fails no comparison below, so it is refused first.
        if not (np.isfinite(thresholds).all() and np.isfinite(fpr).all()
                and np.isfinite(tpr).all() and np.isfinite(self.auroc)):
            raise ValidationError("curve values must be finite")
        if np.any(np.diff(thresholds) > 0):
            raise ValidationError("thresholds must be descending")
        for name, arr in (("fpr", fpr), ("tpr", tpr)):
            if np.any(np.diff(arr) < 0):
                raise ValidationError(f"{name} must be nondecreasing")
            if arr[0] != 0.0 or arr[-1] != 1.0:
                raise ValidationError(f"{name} must start at 0 and end at 1")
        area = float(np.trapezoid(tpr, fpr))
        if abs(area - self.auroc) > 1e-12:
            raise ValidationError(
                f"auroc {self.auroc!r} does not match curve area {area!r}"
            )
        self.thresholds = frozen(thresholds)
        self.fpr = frozen(fpr)
        self.tpr = frozen(tpr)


def roc_curve(counts_id, counts_ood, domain) -> RocCurve:
    """The ROC curve of bin counts over domain (lo, hi); its area is the
    tie-credited AUROC."""
    counts_id, counts_ood = _check_counts(counts_id, counts_ood)
    b = counts_id.size
    lo, hi = check_domain(domain)
    width = (hi - lo) / b
    thresholds = lo + width * np.arange(b - 1, -1, -1, dtype=np.float64)
    # Each tail ends at its population's size.
    tail_id = np.cumsum(counts_id[::-1])
    tail_ood = np.cumsum(counts_ood[::-1])
    fpr = np.concatenate(([0.0], tail_id / tail_id[-1]))
    tpr = np.concatenate(([0.0], tail_ood / tail_ood[-1]))
    return RocCurve(thresholds, fpr, tpr, hist_auroc(counts_id, counts_ood))


def optimal_threshold(curve: RocCurve) -> tuple[float, float]:
    """Threshold maximizing Youden's J = tpr - fpr, ties to the smallest.

    The returned threshold lives in OOD-score space (higher = more OOD);
    a points-scored-by-MSP consumer would use 1 - threshold.
    """
    j = curve.tpr[1:] - curve.fpr[1:]
    best = j.max()
    # Thresholds descend, so the last maximizer is the smallest threshold.
    idx = int(np.nonzero(j == best)[0][-1])
    return float(curve.thresholds[idx]), float(j[idx])


def confusion_accumulate(predicted, truth,
                         n_classes: int) -> tuple[np.ndarray, int]:
    """Tally (truth row, prediction column) label pairs over classes 1..C.

    Truth labels range over 0..C, predictions over 1..C. Returns (counts,
    ignored): the (C, C) int64 counts of the points with a truth label,
    and how many points have truth 0 (unlabeled) and go to no cell. The
    counts and ignored of the parts of any partition of the points add
    up to those of the whole.
    """
    c = n_classes
    if c < 1:
        raise ValidationError(f"n_classes must be >= 1, got {c}")
    pred = np.asarray(predicted, dtype=np.int64).ravel()
    true = np.asarray(truth, dtype=np.int64).ravel()
    if pred.shape != true.shape:
        raise ValidationError(
            f"{pred.shape[0]} predictions vs {true.shape[0]} truth labels"
        )
    for name, labels, lo in (("truth", true, 0), ("predicted", pred, 1)):
        # min/max first: the index is looked for only when a label is out.
        if labels.size and (labels.min() < lo or labels.max() > c):
            i = int(np.flatnonzero((labels < lo) | (labels > c))[0])
            raise ValidationError(f"{name} label {labels[i]} at index {i} outside {lo}..{c}")
    labeled = true > 0
    flat = (true[labeled] - 1) * c + (pred[labeled] - 1)
    counts = np.bincount(flat, minlength=c * c).reshape(c, c)
    return counts, int(true.size - labeled.sum())


@dataclass
class SegMetrics:
    """Per-class IoU (NaN where undefined), their mean, and accuracy."""

    per_class_iou: np.ndarray
    mean_iou: float
    accuracy: float

    def __post_init__(self):
        self.per_class_iou = frozen(np.array(self.per_class_iou,
                                             dtype=np.float64, copy=True))


def seg_metrics(counts) -> SegMetrics:
    """IoU per class, meanIoU over defined classes, and overall accuracy
    of a (C, C) confusion count, truth in rows.

    IoU_c = tp / (tp + fp + fn) is undefined (NaN) when a class appears
    in neither truth nor prediction; such classes are excluded from the
    mean rather than counted as 0. The mean is evaluated in exact
    rational arithmetic and rounded once, so meanIoU of a small fixture
    is bit-equal to its closed form.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValidationError(f"counts must be a square matrix, got shape {counts.shape}")
    if counts.size and counts.min() < 0:
        raise ValidationError("confusion counts must be nonnegative")
    total = int(counts.sum())
    if total == 0:
        raise ValidationError("no labeled points accumulated; metrics undefined")
    tp = np.diag(counts)
    truth_sizes = counts.sum(axis=1)
    pred_sizes = counts.sum(axis=0)
    union = truth_sizes + pred_sizes - tp
    iou = np.full(counts.shape[0], np.nan)
    defined = union > 0
    iou[defined] = tp[defined] / union[defined]
    mean = Fraction(0)
    for tp_c, union_c in zip(tp[defined].tolist(), union[defined].tolist()):
        mean += Fraction(tp_c, union_c)
    mean /= int(defined.sum())
    return SegMetrics(iou, float(mean), float(tp.sum() / total))


def argmax_labels(probs: np.ndarray) -> np.ndarray:
    """Predicted class per point, 1-based; ties go to the lowest class."""
    return np.argmax(probs, axis=1).astype(np.int64) + 1


def apply_threshold(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Flag each point OOD (1) iff its score is at or above the threshold.

    Returns a read-only uint8 array of 0 (ID) and 1 (OOD) flags.
    """
    threshold = check_threshold(threshold)
    return frozen((np.asarray(scores) >= threshold).astype(np.uint8))


# ---------------------------------------------------------------------------
# Report and CSV formats
# ---------------------------------------------------------------------------

def _report_line(key, value) -> str:
    """The ``key=value`` text of one report or ROC metadata entry; neither
    side may hold a line break, and the key no ``=``."""
    if "=" in key or "\n" in key or not key:
        raise ValidationError(f"bad report key: {key!r}")
    # Floats, numpy float64 among them, use float's repr for lossless
    # parse-back.
    text = repr(float(value)) if isinstance(value, float) else str(value)
    if "\n" in text:
        raise ValidationError(f"report value for {key!r} spans lines")
    return f"{key}={text}"


def write_metrics_report(entries, sink) -> None:
    """Write ordered (key, value) pairs as ``key=value`` lines."""
    lines = [_report_line(key, value) for key, value in entries]
    sink.write(("\n".join(lines) + "\n").encode())


def write_roc_csv(curve: RocCurve, sink, metadata=()) -> None:
    """Write ``threshold,fpr,tpr`` rows plus a trailing metadata block.

    Row i pairs thresholds[i] with curve point i + 1; the (0, 0) corner
    is implicit. Floats use repr, so parse-back is bit-exact. The
    metadata block holds ``# key=value`` lines (score kind, bin count,
    tie rule, auroc, and anything the caller appends), each checked as a
    report line is. No key may repeat, as :func:`read_roc_csv` refuses one.
    """
    entries = [("auroc", curve.auroc), *metadata]
    seen = set()
    for key, _ in entries:
        if key in seen:
            raise ValidationError(f"repeated metadata key: {key!r}")
        seen.add(key)
    lines = [_ROC_HEADER]
    t = curve.thresholds.tolist()
    f = curve.fpr[1:].tolist()
    p = curve.tpr[1:].tolist()
    lines.extend(f"{t[i]!r},{f[i]!r},{p[i]!r}" for i in range(len(t)))
    lines.extend(f"# {_report_line(key, value)}" for key, value in entries)
    sink.write(("\n".join(lines) + "\n").encode())


def read_roc_csv(source) -> tuple[RocCurve, dict]:
    """Read a ROC CSV back into a curve plus its metadata dict."""
    thresholds = []
    fpr, tpr = [0.0], [0.0]
    metadata = {}

    def parse(lineno, line):
        """The line parser of ROC CSVs: a ``#`` line is a ``key=value``
        metadata entry, any other line not blank a curve row."""
        text = line.strip()
        if not text:
            return
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if "=" not in body:
                raise ValidationError(f"line {lineno}: bad metadata line {quoted(text)}")
            key, _, value = body.partition("=")
            if key in metadata:
                raise ValidationError(f"line {lineno}: repeated metadata key {quoted(key)}")
            metadata[key] = value
            return
        parts = text.split(",")
        if len(parts) != 3:
            raise ValidationError(f"line {lineno}: expected 3 fields, got {quoted(text)}")
        try:
            thresholds.append(float(parts[0]))
            fpr.append(float(parts[1]))
            tpr.append(float(parts[2]))
        except ValueError:
            raise ValidationError(f"line {lineno}: malformed row {quoted(text)}") from None

    lineno = skip_header(source, _ROC_HEADER, parse)
    for lineno, line in numbered_lines(source, start=lineno):
        parse(lineno, line)
    if "auroc" not in metadata:
        raise ValidationError("missing auroc metadata line")
    try:
        auroc = float(metadata["auroc"])
    except ValueError:
        raise ValidationError(f"bad auroc metadata: {quoted(metadata['auroc'])}") from None
    curve = RocCurve(np.array(thresholds), np.array(fpr), np.array(tpr), auroc)
    return curve, metadata

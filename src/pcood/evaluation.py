"""Pooled ID/OOD discrimination metrics and segmentation scoring.

AUROC is the probability that a randomly chosen OOD point scores above
a randomly chosen ID point, with ties credited 0.5 (the Mann-Whitney
rank form). It is computed either exactly, by binary search of each
OOD score among the sorted ID scores, or in a streaming fashion from
mergeable per-population count histograms; the histogram route keeps
memory flat no matter how many points are accumulated and is
bit-deterministic under any partitioning of the input.

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

_POPULATIONS = ("id", "ood")

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


@dataclass
class BinnedScoreHistogram:
    """Mergeable per-population score counts over a fixed binning.

    A score s lands in bin floor((s - lo) / (hi - lo) * B), clamped to
    [0, B - 1]. Merging adds counts elementwise, so any partitioning of
    the input into chunks or workers yields identical state.
    """

    bin_count: int
    domain_lo: float
    domain_hi: float
    counts_id: np.ndarray
    counts_ood: np.ndarray

    def __post_init__(self):
        if self.bin_count < 2:
            raise ValidationError(f"bin_count must be >= 2, got {self.bin_count}")
        if not (np.isfinite(self.domain_lo) and np.isfinite(self.domain_hi)
                and self.domain_lo < self.domain_hi):
            raise ValidationError(
                f"domain [{self.domain_lo!r}, {self.domain_hi!r}] is not an interval"
            )
        # Binning divides by the width, so it must be a finite double too.
        if not np.isfinite(float(self.domain_hi) - float(self.domain_lo)):
            raise ValidationError(
                f"domain [{self.domain_lo!r}, {self.domain_hi!r}] is wider than "
                f"the largest double"
            )
        for name in ("counts_id", "counts_ood"):
            counts = np.array(getattr(self, name), dtype=np.int64, copy=True)
            if counts.shape != (self.bin_count,):
                raise ValidationError(
                    f"{name} must have shape ({self.bin_count},), got {counts.shape}"
                )
            if counts.size and counts.min() < 0:
                raise ValidationError(f"{name} has negative counts")
            setattr(self, name, counts)

    @property
    def n_id(self) -> int:
        return int(self.counts_id.sum())

    @property
    def n_ood(self) -> int:
        return int(self.counts_ood.sum())


def hist_new_range(domain_lo: float, domain_hi: float,
                   bin_count: int = DEFAULT_BIN_COUNT) -> BinnedScoreHistogram:
    """Empty histogram over [domain_lo, domain_hi]; a score kind's range is
    ``score_domain(kind, n_classes)``."""
    return BinnedScoreHistogram(bin_count, float(domain_lo), float(domain_hi),
                                np.zeros(bin_count, dtype=np.int64),
                                np.zeros(bin_count, dtype=np.int64))


def hist_accumulate(hist: BinnedScoreHistogram, scores,
                    population: str) -> BinnedScoreHistogram:
    """Bin scores into one population's counts; returns the same histogram.

    Scores are an array of finite reals. Values outside the domain are
    clamped into the edge bins.
    """
    if population not in _POPULATIONS:
        raise ValidationError(f"population must be 'id' or 'ood', got {population!r}")
    values = np.asarray(scores, dtype=np.float64).ravel()
    if values.size and not np.isfinite(values).all():
        raise ValidationError("scores must be finite")
    idx = np.floor((values - hist.domain_lo) / (hist.domain_hi - hist.domain_lo)
                   * hist.bin_count)
    idx = np.clip(idx, 0, hist.bin_count - 1).astype(np.int64)
    counts = np.bincount(idx, minlength=hist.bin_count)
    if population == "id":
        hist.counts_id += counts
    else:
        hist.counts_ood += counts
    return hist


def hist_merge(a: BinnedScoreHistogram,
               b: BinnedScoreHistogram) -> BinnedScoreHistogram:
    """Combine two histograms over the same binning into a new one.

    Tensor scores are binned over their kind's domain, and the MSP and
    entropy domains differ for every class count, so equal domains also
    mean equal score kinds.
    """
    if a.bin_count != b.bin_count:
        raise ValidationError(f"bin counts differ: {a.bin_count} vs {b.bin_count}")
    if a.domain_lo != b.domain_lo or a.domain_hi != b.domain_hi:
        raise ValidationError("histogram domains differ")
    return BinnedScoreHistogram(a.bin_count, a.domain_lo, a.domain_hi,
                                a.counts_id + b.counts_id,
                                a.counts_ood + b.counts_ood)


def hist_auroc(hist: BinnedScoreHistogram) -> float:
    """Mann-Whitney over bins, crediting within-bin ties 0.5.

    The bin sums are accumulated as exact integers and divided once, so
    the result cannot drift however large the counts grow.
    """
    n_id, n_ood = hist.n_id, hist.n_ood
    if n_id == 0 or n_ood == 0:
        raise ValidationError("both populations need at least one accumulated point")
    # 2 * sum_b ood_b * (id_below(b) + 0.5 * id_b), kept in exact ints.
    below = 0
    double_u = 0
    for id_b, ood_b in zip(hist.counts_id.tolist(), hist.counts_ood.tolist()):
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


def roc_curve(hist: BinnedScoreHistogram) -> RocCurve:
    """Build the ROC curve of a histogram; its area is the tie-credited AUROC."""
    auroc = hist_auroc(hist)
    n_id, n_ood = hist.n_id, hist.n_ood
    b = hist.bin_count
    width = (hist.domain_hi - hist.domain_lo) / b
    thresholds = hist.domain_lo + width * np.arange(b - 1, -1, -1, dtype=np.float64)
    tail_id = np.cumsum(hist.counts_id[::-1])
    tail_ood = np.cumsum(hist.counts_ood[::-1])
    fpr = np.concatenate(([0.0], tail_id / n_id))
    tpr = np.concatenate(([0.0], tail_ood / n_ood))
    return RocCurve(thresholds, fpr, tpr, auroc)


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


@dataclass
class ConfusionMatrix:
    """Counts of (truth row, prediction column) pairs over classes 1..C.

    Truth label 0 marks unlabeled points; they are tallied in `ignored`
    and contribute to no cell.
    """

    n_classes: int
    counts: np.ndarray
    ignored: int = 0

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValidationError(f"n_classes must be >= 1, got {self.n_classes}")
        counts = np.array(self.counts, dtype=np.int64, copy=True)
        c = self.n_classes
        if counts.shape != (c, c):
            raise ValidationError(
                f"counts must have shape ({c}, {c}), got {counts.shape}"
            )
        if counts.size and counts.min() < 0:
            raise ValidationError("confusion counts must be nonnegative")
        if self.ignored < 0:
            raise ValidationError("ignored count must be nonnegative")
        self.counts = counts

    @property
    def total_counted(self) -> int:
        return int(self.counts.sum())


def confusion_new(n_classes: int) -> ConfusionMatrix:
    return ConfusionMatrix(n_classes, np.zeros((n_classes, n_classes),
                                               dtype=np.int64))


def confusion_accumulate(matrix: ConfusionMatrix, predicted,
                         truth) -> ConfusionMatrix:
    """Tally label pairs into the matrix; returns the same matrix.

    Truth labels range over 0..C (0 = ignore), predictions over 1..C.
    """
    pred = np.asarray(predicted, dtype=np.int64).ravel()
    true = np.asarray(truth, dtype=np.int64).ravel()
    if pred.shape != true.shape:
        raise ValidationError(
            f"{pred.shape[0]} predictions vs {true.shape[0]} truth labels"
        )
    c = matrix.n_classes
    for name, labels, lo in (("truth", true, 0), ("predicted", pred, 1)):
        # min/max first: the index is looked for only when a label is out.
        if labels.size and (labels.min() < lo or labels.max() > c):
            i = int(np.flatnonzero((labels < lo) | (labels > c))[0])
            raise ValidationError(f"{name} label {labels[i]} at index {i} outside {lo}..{c}")
    labeled = true > 0
    matrix.ignored += int(true.size - labeled.sum())
    flat = (true[labeled] - 1) * c + (pred[labeled] - 1)
    matrix.counts += np.bincount(flat, minlength=c * c).reshape(c, c)
    return matrix


@dataclass
class SegMetrics:
    """Per-class IoU (NaN where undefined), their mean, and accuracy."""

    per_class_iou: np.ndarray
    mean_iou: float
    accuracy: float

    def __post_init__(self):
        self.per_class_iou = frozen(np.array(self.per_class_iou,
                                             dtype=np.float64, copy=True))


def seg_metrics(matrix: ConfusionMatrix) -> SegMetrics:
    """IoU per class, meanIoU over defined classes, and overall accuracy.

    IoU_c = tp / (tp + fp + fn) is undefined (NaN) when a class appears
    in neither truth nor prediction; such classes are excluded from the
    mean rather than counted as 0. The mean is evaluated in exact
    rational arithmetic and rounded once, so meanIoU of a small fixture
    is bit-equal to its closed form.
    """
    total = matrix.total_counted
    if total == 0:
        raise ValidationError("no labeled points accumulated; metrics undefined")
    tp = np.diag(matrix.counts)
    truth_sizes = matrix.counts.sum(axis=1)
    pred_sizes = matrix.counts.sum(axis=0)
    union = truth_sizes + pred_sizes - tp
    iou = np.full(matrix.n_classes, np.nan)
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

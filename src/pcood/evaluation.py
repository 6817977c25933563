"""Pooled ID/OOD discrimination metrics and segmentation scoring.

AUROC is the probability that a randomly chosen OOD point scores above
a randomly chosen ID point, with ties credited 0.5 (the Mann-Whitney
rank form). It is computed either exactly by sorting the pooled scores
or in a streaming fashion from mergeable per-population count
histograms; the histogram route keeps memory flat no matter how many
points are accumulated and is bit-deterministic under any partitioning
of the input.

Both histogram AUROC and the ROC curve's area are evaluated in exact
integer arithmetic (one float division at the very end), which makes
the trapezoidal area and the rank statistic agree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._io import frozen, numbered_lines, write_text
from .errors import ParseError, StructuralError, ValidationError
from .scores import ScoreKind, score_domain

DEFAULT_BIN_COUNT = 4096

# Below this many pooled points the exact sort is cheap; above it the
# streaming histogram is the default (overridable by CLI flag).
EXACT_MODE_MAX_POINTS = 10 ** 7

# Stated in every report so downstream users know the tie convention.
TIE_RULE = "ties-credited-0.5"

_POPULATIONS = ("id", "ood")


def exact_auroc(id_scores, ood_scores) -> float:
    """Tie-credited Mann-Whitney statistic P(ood > id) + 0.5 P(ood = id).

    Computed from midranks via one argsort of the pooled scores: a run
    of equal scores starting at 0-based position s with length L holds
    ranks s+1..s+L, whose mean is s + (L + 1) / 2, and each OOD score in
    the run takes it. Only the count of OOD scores per run enters, so the
    order the sort leaves within a run does not matter. The rank sums are taken in integer
    arithmetic, so the result is the exactly rounded value of the
    underlying rational number.
    """
    ids = np.asarray(id_scores, dtype=np.float64).ravel()
    oods = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ids.size == 0 or oods.size == 0:
        raise ValidationError("both populations must be non-empty")
    if not np.isfinite(ids).all() or not np.isfinite(oods).all():
        raise ValidationError("scores must be finite")
    n, m = ids.size, oods.size
    pooled = np.concatenate([ids, oods])
    order = np.argsort(pooled)
    ranked = pooled[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    ood_in_run = np.add.reduceat((order >= n).astype(np.int64), starts)
    lengths = np.diff(starts, append=n + m)
    # Twice the 1-based midrank sum of the OOD population; exact as an int.
    double_ranks = int(np.dot(ood_in_run, 2 * starts + lengths + 1))
    double_u = double_ranks - m * (m + 1)
    return double_u / (2 * n * m)


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
        for name in ("counts_id", "counts_ood"):
            counts = np.array(getattr(self, name), dtype=np.int64, copy=True)
            if counts.shape != (self.bin_count,):
                raise StructuralError(
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


def hist_new(kind: ScoreKind, n_classes: int,
             bin_count: int = DEFAULT_BIN_COUNT) -> BinnedScoreHistogram:
    """Empty histogram spanning the natural domain of a score kind."""
    return hist_new_range(*score_domain(kind, n_classes), bin_count)


def hist_new_range(domain_lo: float, domain_hi: float,
                   bin_count: int = DEFAULT_BIN_COUNT) -> BinnedScoreHistogram:
    """Empty histogram over an explicit range, for raw (kind-free) scores."""
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
    width = hist.domain_hi - hist.domain_lo
    idx = np.floor((values - hist.domain_lo) / width * hist.bin_count)
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
        raise StructuralError(f"bin counts differ: {a.bin_count} vs {b.bin_count}")
    if a.domain_lo != b.domain_lo or a.domain_hi != b.domain_hi:
        raise StructuralError("histogram domains differ")
    return BinnedScoreHistogram(a.bin_count, a.domain_lo, a.domain_hi,
                                a.counts_id + b.counts_id,
                                a.counts_ood + b.counts_ood)


def _double_rank_credit(counts_id, counts_ood) -> int:
    # 2 * sum_b ood_b * (id_below(b) + 0.5 * id_b), kept in exact ints.
    below = 0
    acc = 0
    for id_b, ood_b in zip(counts_id.tolist(), counts_ood.tolist()):
        if ood_b:
            acc += ood_b * (2 * below + id_b)
        below += id_b
    return acc


def hist_auroc(hist: BinnedScoreHistogram) -> float:
    """Mann-Whitney over bins, crediting within-bin ties 0.5.

    The bin sums are accumulated as exact integers and divided once, so
    the result cannot drift however large the counts grow.
    """
    n_id, n_ood = hist.n_id, hist.n_ood
    if n_id == 0 or n_ood == 0:
        raise ValidationError("both populations need at least one accumulated point")
    return _double_rank_credit(hist.counts_id, hist.counts_ood) / (2 * n_id * n_ood)


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
            raise StructuralError(
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
    n_id, n_ood = hist.n_id, hist.n_ood
    if n_id == 0 or n_ood == 0:
        raise ValidationError("both populations need at least one accumulated point")
    b = hist.bin_count
    width = (hist.domain_hi - hist.domain_lo) / b
    thresholds = hist.domain_lo + width * np.arange(b - 1, -1, -1, dtype=np.float64)
    tail_id = np.cumsum(hist.counts_id[::-1])
    tail_ood = np.cumsum(hist.counts_ood[::-1])
    fpr = np.concatenate(([0.0], tail_id / n_id))
    tpr = np.concatenate(([0.0], tail_ood / n_ood))
    auroc = _double_rank_credit(hist.counts_id, hist.counts_ood) / (2 * n_id * n_ood)
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
            raise StructuralError(
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
        raise StructuralError(
            f"{pred.shape[0]} predictions vs {true.shape[0]} truth labels"
        )
    c = matrix.n_classes
    bad = np.nonzero((true < 0) | (true > c))[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"truth label {true[i]} at index {i} outside 0..{c}")
    bad = np.nonzero((pred < 1) | (pred > c))[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"predicted label {pred[i]} at index {i} outside 1..{c}")
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
    threshold = float(threshold)
    if not np.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold!r}")
    return frozen((np.asarray(scores) >= threshold).astype(np.uint8))


# ---------------------------------------------------------------------------
# Report and CSV formats
# ---------------------------------------------------------------------------

def format_value(value) -> str:
    """Render a report value; floats use repr for lossless parse-back."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_report(entries, sink) -> None:
    """Write ordered (key, value) pairs as ``key=value`` lines."""
    lines = []
    for key, value in entries:
        if "=" in key or "\n" in key or not key:
            raise ValidationError(f"bad report key: {key!r}")
        text = format_value(value)
        if "\n" in text:
            raise ValidationError(f"report value for {key!r} spans lines")
        lines.append(f"{key}={text}")
    write_text(sink, "\n".join(lines) + "\n")


def read_metrics_report(source) -> dict:
    """Parse a key=value report back into an ordered dict of strings."""
    entries = {}
    for lineno, line in numbered_lines(source):
        text = line.strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(f"line {lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        entries[key] = value
    return entries


def write_roc_csv(curve: RocCurve, sink, metadata=()) -> None:
    """Write ``threshold,fpr,tpr`` rows plus a trailing metadata block.

    Row i pairs thresholds[i] with curve point i + 1; the (0, 0) corner
    is implicit. Floats use repr, so parse-back is bit-exact. The
    metadata block holds ``# key=value`` lines (score kind, bin count,
    tie rule, auroc, and anything the caller appends).
    """
    lines = ["threshold,fpr,tpr"]
    t = curve.thresholds.tolist()
    f = curve.fpr[1:].tolist()
    p = curve.tpr[1:].tolist()
    lines.extend(f"{t[i]!r},{f[i]!r},{p[i]!r}" for i in range(len(t)))
    lines.append(f"# auroc={curve.auroc!r}")
    for key, value in metadata:
        lines.append(f"# {key}={format_value(value)}")
    write_text(sink, "\n".join(lines) + "\n")


def read_roc_csv(source) -> tuple[RocCurve, dict]:
    """Read a ROC CSV back into a curve plus its metadata dict."""
    thresholds = []
    fpr, tpr = [0.0], [0.0]
    metadata = {}
    header_seen = False
    for lineno, line in numbered_lines(source):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if "=" not in body:
                raise ParseError(f"line {lineno}: bad metadata line {text!r}")
            key, _, value = body.partition("=")
            metadata[key] = value
            continue
        if not header_seen:
            if text != "threshold,fpr,tpr":
                raise ParseError(
                    f"line {lineno}: expected header 'threshold,fpr,tpr', got {text!r}"
                )
            header_seen = True
            continue
        parts = text.split(",")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {text!r}")
        try:
            thresholds.append(float(parts[0]))
            fpr.append(float(parts[1]))
            tpr.append(float(parts[2]))
        except ValueError:
            raise ParseError(f"line {lineno}: malformed row {text!r}") from None
    if not header_seen:
        raise ParseError("missing 'threshold,fpr,tpr' header")
    if "auroc" not in metadata:
        raise ParseError("missing auroc metadata line")
    try:
        auroc = float(metadata["auroc"])
    except ValueError:
        raise ParseError(f"bad auroc metadata: {metadata['auroc']!r}") from None
    curve = RocCurve(np.array(thresholds), np.array(fpr), np.array(tpr), auroc)
    return curve, metadata

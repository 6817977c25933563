"""Uncertainty-based OOD evaluation for point cloud semantic segmentation.

The pipeline: parse labeled clouds, average per-point class
probabilities over ensemble members, turn each point's predictive row
into an OOD score (MSP complement or entropy), then measure how well
the scores separate ID from OOD points (AUROC, ROC, Youden threshold)
and how well the argmax labels segment (IoU, accuracy).
"""

from .errors import (CapacityError, FormatError, ParseError, PcoodError,
                     StructuralError, TruncatedStreamError, ValidationError)
from .pointcloud import (ID_COLOR, OOD_COLOR, SEMANTIC3D_CLASS_COUNT,
                         SEMANTIC3D_CLASS_NAMES, LabeledCloud, parse_semantic3d,
                         read_labels, write_idood_map)
from .predictive import (PredictiveTensor, TensorKind, TensorStream, aggregate,
                         read_tensor, write_tensor)
from .scores import (ScoreKind, read_scores_csv, score_distribution,
                     score_domain, write_scores_csv)
from .evaluation import (BinnedScoreHistogram, ConfusionMatrix, RocCurve,
                         SegMetrics, apply_threshold, argmax_labels,
                         confusion_accumulate, confusion_new, exact_auroc,
                         hist_accumulate, hist_auroc, hist_merge, hist_new,
                         hist_new_range, optimal_threshold,
                         read_metrics_report, read_roc_csv, roc_curve,
                         seg_metrics, write_metrics_report, write_roc_csv)
from .synth import (GaussianPairSpec, analytic_auroc, sample_scores,
                    sample_scores_chunk, synth_member, synth_tensor,
                    synth_true_classes)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "FormatError", "ParseError", "PcoodError",
    "StructuralError", "TruncatedStreamError", "ValidationError",
    "ID_COLOR", "OOD_COLOR", "SEMANTIC3D_CLASS_COUNT",
    "SEMANTIC3D_CLASS_NAMES", "LabeledCloud",
    "parse_semantic3d", "read_labels", "write_idood_map",
    "PredictiveTensor", "TensorKind", "TensorStream", "aggregate",
    "read_tensor", "write_tensor",
    "ScoreKind", "read_scores_csv", "score_distribution", "score_domain",
    "write_scores_csv",
    "BinnedScoreHistogram", "ConfusionMatrix", "RocCurve", "SegMetrics",
    "apply_threshold", "argmax_labels", "confusion_accumulate",
    "confusion_new", "exact_auroc", "hist_accumulate",
    "hist_auroc", "hist_merge", "hist_new", "hist_new_range",
    "optimal_threshold", "read_metrics_report", "read_roc_csv", "roc_curve",
    "seg_metrics", "write_metrics_report", "write_roc_csv",
    "GaussianPairSpec", "analytic_auroc", "sample_scores",
    "sample_scores_chunk", "synth_member", "synth_tensor",
    "synth_true_classes",
]

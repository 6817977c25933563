"""Uncertainty-based OOD evaluation for point cloud semantic segmentation.

The pipeline: parse labeled clouds, average per-point class
probabilities over ensemble members, turn each point's predictive row
into an OOD score (MSP complement or entropy), then measure how well
the scores separate ID from OOD points (AUROC, ROC, Youden threshold)
and how well the argmax labels segment (IoU, accuracy).
"""

import importlib

__version__ = "0.1.0"

# Each public name is imported from its submodule on first use (PEP 562),
# so ``import pcood`` itself loads no numpy.
_EXPORTS = {
    "errors": ("PcoodError", "TruncatedStreamError", "ValidationError"),
    "pointcloud": ("ID_COLOR", "OOD_COLOR", "parse_semantic3d", "read_labels",
                   "write_idood_map"),
    "predictive": ("TensorKind", "TensorStream", "write_header",
                   "write_member"),
    "scores": ("ScoreKind", "read_scores_csv", "score_distribution",
               "score_domain", "write_scores_csv"),
    "evaluation": ("BinnedScoreHistogram", "ConfusionMatrix", "RocCurve",
                   "SegMetrics", "apply_threshold", "argmax_labels",
                   "confusion_accumulate", "confusion_new", "exact_auroc",
                   "hist_accumulate", "hist_auroc", "hist_merge",
                   "hist_new_range", "optimal_threshold",
                   "read_roc_csv", "roc_curve",
                   "seg_metrics", "write_metrics_report", "write_roc_csv"),
    "synth": ("GaussianPairSpec", "sample_scores_chunk", "synth_member",
              "synth_true_classes"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

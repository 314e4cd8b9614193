"""``repro.metrics`` — accuracy metrics used throughout the evaluation."""

import dataclasses
from typing import Dict

import numpy as np

from .auc import pr_auc, precision_recall_curve, roc_auc
from .classification import (ConfusionCounts, confusion_counts, f1_score,
                             precision_recall_f1, precision_score,
                             recall_score)
from .events import (FleetRefreshReport, RuntimeReport, StreamReport,
                     fleet_refresh_report, fleet_refresh_report_from_registry,
                     label_segments, point_adjust, point_adjusted_prf,
                     runtime_report, stream_event_report)
from .thresholding import (ThresholdResult, apply_threshold,
                           best_f1_threshold, evaluate_at_ratio,
                           evaluate_top_k, top_k_threshold)


@dataclasses.dataclass(frozen=True)
class AccuracyReport:
    """The five-metric row used by Tables 3-5: P/R/F1 at the best-F1
    threshold, plus the threshold-free PR-AUC and ROC-AUC."""
    precision: float
    recall: float
    f1: float
    pr_auc: float
    roc_auc: float

    def as_dict(self) -> Dict[str, float]:
        return {"precision": self.precision, "recall": self.recall,
                "f1": self.f1, "pr": self.pr_auc, "roc": self.roc_auc}


def accuracy_report(labels: np.ndarray, scores: np.ndarray) -> AccuracyReport:
    """Compute the paper's standard metric row from scores + ground truth."""
    best = best_f1_threshold(labels, scores)
    return AccuracyReport(precision=best.precision, recall=best.recall,
                          f1=best.f1, pr_auc=pr_auc(labels, scores),
                          roc_auc=roc_auc(labels, scores))


__all__ = [
    "AccuracyReport", "ConfusionCounts", "FleetRefreshReport",
    "RuntimeReport", "StreamReport", "ThresholdResult", "accuracy_report",
    "apply_threshold", "best_f1_threshold", "confusion_counts",
    "evaluate_at_ratio", "evaluate_top_k", "f1_score",
    "fleet_refresh_report", "fleet_refresh_report_from_registry",
    "label_segments", "point_adjust", "point_adjusted_prf", "pr_auc",
    "precision_recall_curve", "precision_recall_f1", "precision_score",
    "recall_score", "roc_auc", "runtime_report", "stream_event_report",
    "top_k_threshold",
]

"""Threshold-selection strategies over outlier scores.

Implements the paper's two 'specific threshold' settings (Section 4.1.3):

* **best-F1** — the threshold, among all distinct scores, that maximises F1
  (used for the Precision/Recall/F1 columns of Tables 3-5);
* **top-K %** — if the outlier ratio K is known, flag the K % highest
  scores (the Figure 13 sensitivity study).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .classification import precision_recall_f1


@dataclasses.dataclass(frozen=True)
class ThresholdResult:
    """One evaluated thresholding of the scores."""
    threshold: float
    precision: float
    recall: float
    f1: float


def apply_threshold(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Binary predictions: score strictly above threshold → outlier."""
    return (np.asarray(scores, dtype=np.float64) > threshold).astype(np.int64)


def best_f1_threshold(labels: np.ndarray, scores: np.ndarray
                      ) -> ThresholdResult:
    """Scan all distinct score thresholds, return the F1-maximising one.

    Runs in O(n log n) using cumulative confusion counts over the score
    ranking rather than re-evaluating per threshold.
    """
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError(f"labels {labels.shape} vs scores {scores.shape}")
    n_pos = int(labels.sum())
    if n_pos == 0:
        return ThresholdResult(float(scores.max()), 0.0, 0.0, 0.0)

    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0)
    boundary = np.concatenate([distinct, [labels.size - 1]])
    tps = np.cumsum(sorted_labels)[boundary].astype(np.float64)
    predicted = boundary + 1.0
    precision = tps / predicted
    recall = tps / n_pos
    f1 = np.where(precision + recall > 0,
                  2 * precision * recall / (precision + recall + 1e-300), 0.0)
    best = int(np.argmax(f1))
    # Threshold is set *between* this score block and the next so that
    # `score > threshold` includes exactly the top `boundary[best]+1` items.
    if boundary[best] + 1 < labels.size:
        threshold = 0.5 * (sorted_scores[boundary[best]] +
                           sorted_scores[boundary[best] + 1])
    else:
        threshold = sorted_scores[-1] - 1.0
    return ThresholdResult(float(threshold), float(precision[best]),
                           float(recall[best]), float(f1[best]))


def top_k_threshold(scores: np.ndarray, k_percent: float) -> float:
    """Threshold such that the top ``k_percent`` % of scores exceed it."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if not 0.0 < k_percent <= 100.0:
        raise ValueError(f"k_percent must be in (0, 100], got {k_percent}")
    count = max(1, int(round(scores.size * k_percent / 100.0)))
    count = min(count, scores.size)
    # The count-th largest score acts as the (exclusive) threshold.
    partitioned = np.partition(scores, scores.size - count)
    return float(np.nextafter(partitioned[scores.size - count], -np.inf))


def evaluate_top_k(labels: np.ndarray, scores: np.ndarray, k_percent: float
                   ) -> ThresholdResult:
    """Precision/Recall/F1 when flagging the top K % of scores (Fig. 13)."""
    threshold = top_k_threshold(scores, k_percent)
    predictions = apply_threshold(scores, threshold)
    precision, recall, f1 = precision_recall_f1(labels, predictions)
    return ThresholdResult(threshold, precision, recall, f1)


def evaluate_at_ratio(labels: np.ndarray, scores: np.ndarray,
                      outlier_ratio: float) -> ThresholdResult:
    """Threshold at the known outlier ratio (second Section 4.1.3 setting)."""
    return evaluate_top_k(labels, scores, outlier_ratio * 100.0)

"""Threshold-free metrics: ROC-AUC and PR-AUC (Section 4.1.3, 'All thresholds').

Both are computed from the exact score ranking (every distinct score is a
threshold), matching scikit-learn's `roc_auc_score` and the
`precision_recall_curve` + step-wise `auc` combination ("average precision")
that the paper's public implementation uses for its PR column.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _validate(labels: np.ndarray, scores: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError(f"labels {labels.shape} vs scores {scores.shape}")
    if not set(np.unique(labels)).issubset({0, 1}):
        raise ValueError("labels must be binary 0/1")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return labels, scores


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve (probability a random outlier outranks a
    random inlier; ties counted half — the Mann-Whitney U statistic)."""
    labels, scores = _validate(labels, scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    # Rank-based formulation handles ties exactly.
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(labels.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def precision_recall_curve(labels: np.ndarray, scores: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(precision, recall, thresholds) with thresholds descending."""
    labels, scores = _validate(labels, scores)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0)
    boundary = np.concatenate([distinct, [labels.size - 1]])
    tps = np.cumsum(sorted_labels)[boundary].astype(np.float64)
    predicted_pos = boundary + 1.0
    n_pos = float(labels.sum())
    precision = np.where(predicted_pos > 0, tps / predicted_pos, 1.0)
    recall = tps / n_pos if n_pos else np.zeros_like(tps)
    return precision, recall, sorted_scores[boundary]


def pr_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the precision-recall curve (step-wise interpolation —
    identical to scikit-learn's average_precision_score)."""
    labels, scores = _validate(labels, scores)
    if labels.sum() == 0:
        raise ValueError("pr_auc needs at least one positive label")
    precision, recall, _ = precision_recall_curve(labels, scores)
    recall = np.concatenate([[0.0], recall])
    return float(np.sum(np.diff(recall) * precision))

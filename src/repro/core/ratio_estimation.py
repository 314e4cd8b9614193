"""Unsupervised outlier-ratio estimation from score distributions.

The paper's second future-work item: "study more advanced unsupervised
hyperparameter selection, e.g., exploring the relationships between the
outlier ratio and the diversity metric".  The practical gap it addresses:
the top-K thresholding of Figure 13 needs the outlier ratio K, which real
deployments rarely know.

This module estimates K from the shape of the outlier-score distribution,
with three estimators of increasing sophistication:

* :func:`mad_ratio_estimate` — fraction of scores beyond a robust
  ``median + k·MAD`` fence (MAD is immune to the outliers themselves);
* :func:`elbow_ratio_estimate` — locate the elbow of the sorted score
  curve (outliers form a steep tail; the elbow separates it from the
  bulk) via the maximum-distance-to-chord rule;
* :func:`gaussian_tail_estimate` — fit a normal distribution to the
  *log* scores' robust core and report the mass exceeding its
  ``q``-quantile, exploiting that reconstruction errors of normal data
  are approximately log-normal.

:func:`estimate_outlier_ratio` combines them by median voting.
"""

from __future__ import annotations

import numpy as np


def _validate_scores(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.size < 10:
        raise ValueError(f"need at least 10 scores, got {scores.size}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores


def mad_ratio_estimate(scores: np.ndarray, k: float = 5.0) -> float:
    """Fraction of scores above ``median + k·MAD`` (robust fence)."""
    scores = _validate_scores(scores)
    median = np.median(scores)
    mad = np.median(np.abs(scores - median))
    if mad <= 0:
        # Degenerate: over half the scores identical; fall back to the
        # standard deviation fence.
        spread = scores.std()
        if spread <= 0:
            return 0.0
        return float((scores > median + k * spread).mean())
    return float((scores > median + k * mad).mean())


def elbow_ratio_estimate(scores: np.ndarray) -> float:
    """Elbow of the sorted-score curve via max distance to the chord.

    Sort scores ascending; draw the chord from the first to the last
    point; the index with maximum perpendicular distance to the chord is
    the elbow.  Scores above the elbow are the steep tail — the outliers.
    """
    scores = _validate_scores(scores)
    ordered = np.sort(scores)
    n = ordered.size
    x = np.linspace(0.0, 1.0, n)
    y = (ordered - ordered[0]) / max(ordered[-1] - ordered[0], 1e-300)
    # Perpendicular distance to the y = x chord is |y - x| / sqrt(2).
    elbow = int(np.argmax(np.abs(y - x)))
    ratio = 1.0 - (elbow + 1) / n
    # The chord rule can degenerate on heavy-tailed bulks; clamp to a
    # plausible contamination range.
    return float(np.clip(ratio, 0.0, 0.5))


def _normal_ppf(q, loc, scale):
    """``scipy.stats.norm.ppf(q, loc=loc, scale=scale)`` for ``scale > 0``,
    evaluated as scipy does (``ndtri(q) * scale + loc``) without importing
    ``scipy.stats``, the bulk of scipy's load time and memory."""
    from scipy.special import ndtri
    return ndtri(q) * scale + loc


def gaussian_tail_estimate(scores: np.ndarray,
                           core_quantile: float = 0.75,
                           fence_quantile: float = 0.999) -> float:
    """Mass above the fitted log-normal fence of the score bulk.

    Fits a normal to log-scores using robust location/scale from the
    central ``core_quantile`` of the data (so outliers do not inflate the
    fit), then counts the fraction of scores beyond the fitted
    ``fence_quantile``.
    """
    scores = _validate_scores(scores)
    positive = scores[scores > 0]
    if positive.size < 10:
        return 0.0
    logs = np.log(positive)
    low, high = np.quantile(logs, [(1 - core_quantile) / 2,
                                   1 - (1 - core_quantile) / 2])
    core = logs[(logs >= low) & (logs <= high)]
    if core.size < 5 or core.std() <= 0:
        return mad_ratio_estimate(scores)
    fence = _normal_ppf(fence_quantile, core.mean(), core.std())
    return float((logs > fence).mean())


def estimate_outlier_ratio(scores: np.ndarray) -> float:
    """Median vote over the three estimators (robust combination)."""
    estimates = [mad_ratio_estimate(scores), elbow_ratio_estimate(scores),
                 gaussian_tail_estimate(scores)]
    return float(np.median(estimates))

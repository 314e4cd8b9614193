"""Unsupervised time-series cleaning: repairing detected outliers.

The paper's conclusion names this as future work: "enable unsupervised
time series cleaning by repairing detected outliers".  This module
implements that extension on top of CAE-Ensemble: observations flagged as
outliers are replaced by the ensemble's reconstruction of them — the
median (over basic models) of the model outputs, which by construction
reflects the *normal* patterns the ensemble learned, mapped back to the
original (un-scaled) units.

Two repair policies are provided:

* ``'reconstruction'`` — replace a flagged observation with the ensemble
  reconstruction at its position (uses the same Figure 10 protocol as
  scoring: the reconstruction of observation *t* comes from the window
  ending at *t*);
* ``'interpolation'`` — linear interpolation between the nearest clean
  neighbours, the classic statistical repair used as a fallback for
  dimensions where the model's reconstruction is itself unreliable.

Because the CAE reconstructs *raw observation space* (the default
``reconstruct='observations'`` mode), repairs land in the data's units
directly; with the paper-literal embedding target the reconstruction
policy falls back to interpolation.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..datasets.windows import sliding_windows
from .ensemble import CAEEnsemble


@dataclasses.dataclass
class RepairResult:
    """Outcome of a cleaning pass.

    Attributes
    ----------
    repaired:      the cleaned series, same shape as the input.
    outlier_mask:  boolean mask of repaired observations.
    scores:        the outlier scores that drove the decision.
    threshold:     the score threshold that was applied.
    """
    repaired: np.ndarray
    outlier_mask: np.ndarray
    scores: np.ndarray
    threshold: float

    @property
    def n_repaired(self) -> int:
        return int(self.outlier_mask.sum())


def ensemble_reconstruction(ensemble: CAEEnsemble,
                            series: np.ndarray) -> np.ndarray:
    """Median-of-models reconstruction of every observation (raw units).

    Follows the scoring protocol: observation ``t`` (for ``t >= w``) is
    reconstructed from the window ending at ``t``; the first window
    reconstructs its ``w`` observations directly.
    """
    if ensemble.cae_config.reconstruct != "observations":
        raise ValueError("ensemble reconstruction requires the "
                         "'observations' target mode")
    ensemble._require_fitted()
    scaled = ensemble._transform(series)
    window = ensemble.cae_config.window
    windows = np.array(sliding_windows(scaled, window))
    outputs = np.stack([ensemble._model_output(model, windows)
                        for model in ensemble.models])    # (M, N, w, D)
    median_output = np.median(outputs, axis=0)            # (N, w, D)
    length = series.shape[0]
    reconstruction = np.empty_like(scaled)
    reconstruction[:window] = median_output[0]
    if median_output.shape[0] > 1:
        reconstruction[window:] = median_output[1:, -1, :]
    if ensemble.scaler is not None:
        reconstruction = ensemble.scaler.inverse_transform(reconstruction)
    assert reconstruction.shape[0] == length
    return reconstruction


def interpolate_over_mask(series: np.ndarray,
                          mask: np.ndarray) -> np.ndarray:
    """Linearly interpolate masked observations from clean neighbours.

    Leading/trailing masked runs take the nearest clean value (constant
    extrapolation).  If everything is masked, the series is returned
    unchanged — there is nothing trustworthy to interpolate from.
    """
    series = np.asarray(series, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.all() or not mask.any():
        return series.copy()
    clean_index = np.flatnonzero(~mask)
    out = series.copy()
    positions = np.flatnonzero(mask)
    for dim in range(series.shape[1]):
        out[positions, dim] = np.interp(positions, clean_index,
                                        series[clean_index, dim])
    return out


def repair_series(ensemble: CAEEnsemble, series: np.ndarray,
                  threshold: Optional[float] = None,
                  ratio: Optional[float] = None,
                  policy: str = "reconstruction") -> RepairResult:
    """Detect and repair outliers in ``series``.

    Parameters
    ----------
    ensemble:  a fitted :class:`CAEEnsemble`.
    threshold: explicit score threshold; or
    ratio:     known outlier ratio — the top-ratio scores are repaired.
    policy:    ``'reconstruction'`` (model-based) or ``'interpolation'``.

    Returns
    -------
    :class:`RepairResult` with the cleaned series and bookkeeping.
    """
    if policy not in ("reconstruction", "interpolation"):
        raise ValueError(f"unknown repair policy {policy!r}")
    series = np.asarray(series, dtype=np.float64)
    scores = ensemble.score(series)
    if threshold is None:
        if ratio is None:
            raise ValueError("provide either threshold or ratio")
        from ..metrics.thresholding import top_k_threshold
        threshold = top_k_threshold(scores, ratio * 100.0)
    mask = scores > threshold

    if policy == "reconstruction":
        replacement = ensemble_reconstruction(ensemble, series)
        repaired = series.copy()
        repaired[mask] = replacement[mask]
    else:
        repaired = interpolate_over_mask(series, mask)
    return RepairResult(repaired=repaired, outlier_mask=mask,
                        scores=scores, threshold=float(threshold))


def repair_quality(original_clean: np.ndarray, corrupted: np.ndarray,
                   repaired: np.ndarray) -> dict:
    """Quantify a repair against the known clean signal (for evaluation).

    Returns RMSE of the corrupted and repaired series against the clean
    reference plus the improvement ratio — > 1 means the repair moved the
    series closer to the truth.
    """
    original_clean = np.asarray(original_clean, dtype=np.float64)

    def rmse(candidate: np.ndarray) -> float:
        return float(np.sqrt(np.mean((candidate - original_clean) ** 2)))

    rmse_corrupted = rmse(np.asarray(corrupted, dtype=np.float64))
    rmse_repaired = rmse(np.asarray(repaired, dtype=np.float64))
    return {"rmse_corrupted": rmse_corrupted,
            "rmse_repaired": rmse_repaired,
            "improvement": rmse_corrupted / max(rmse_repaired, 1e-12)}

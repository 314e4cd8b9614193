"""Common interface for all outlier detectors (baselines and CAE-Ensemble).

Every detector follows the paper's unsupervised protocol:

* ``fit(train_series)``  — learns from an *unlabelled* (L, D) series;
* ``score(series)``      — returns one outlier score per observation,
  higher = more anomalous (Section 2's ``OS``).

Window-based neural detectors share :class:`WindowedDetector`, which
handles re-scaling, window extraction and the Figure 10 window→observation
score mapping, so each concrete model only implements window training and
window scoring.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..datasets.preprocess import StandardScaler
from ..datasets.windows import (sample_windows, sliding_windows,
                                window_scores_to_observation_scores)


class OutlierDetector(abc.ABC):
    """Abstract unsupervised point-outlier detector."""

    name: str = "detector"

    @abc.abstractmethod
    def fit(self, series: np.ndarray) -> "OutlierDetector":
        """Train on an unlabelled ``(L, D)`` series; returns self."""

    @abc.abstractmethod
    def score(self, series: np.ndarray) -> np.ndarray:
        """Outlier score per observation, shape ``(L,)``."""

    def fit_score(self, train: np.ndarray, test: np.ndarray) -> np.ndarray:
        """Convenience: fit on ``train`` and score ``test``."""
        return self.fit(train).score(test)

    @staticmethod
    def _validate_series(series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError(f"expected (L, D) series, got shape "
                             f"{series.shape}")
        if series.shape[0] == 0:
            raise ValueError("series is empty")
        if not np.all(np.isfinite(series)):
            raise ValueError("series contains NaN or infinite values; "
                             "impute or drop them before detection")
        return series


class WindowedDetector(OutlierDetector):
    """Base for detectors that train and score on sliding windows.

    Subclasses implement :meth:`_fit_windows` (training on an ``(N, w, D)``
    array) and :meth:`_score_windows` (returning per-window per-timestamp
    scores ``(N, w)``).
    """

    def __init__(self, window: int, rescale: bool = True,
                 max_training_windows: Optional[int] = 4096, seed: int = 0):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.window = window
        self.rescale = rescale
        self.max_training_windows = max_training_windows
        self.seed = seed
        self.scaler: Optional[StandardScaler] = None
        self._fitted = False

    @abc.abstractmethod
    def _fit_windows(self, windows: np.ndarray) -> None:
        """Train the underlying model on ``(N, w, D)`` windows."""

    @abc.abstractmethod
    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        """Per-window per-timestamp scores ``(N, w)``."""

    def fit(self, series: np.ndarray) -> "WindowedDetector":
        series = self._validate_series(series)
        if self.rescale:
            self.scaler = StandardScaler().fit(series)
            series = self.scaler.transform(series)
        windows = sample_windows(series, self.window,
                                 self.max_training_windows,
                                 np.random.default_rng(self.seed))
        self._fit_windows(windows)
        self._fitted = True
        return self

    def score(self, series: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError(f"{self.name} must be fitted before scoring")
        series = self._validate_series(series)
        if self.scaler is not None:
            series = self.scaler.transform(series)
        windows = np.array(sliding_windows(series, self.window))
        window_scores = self._score_windows(windows)
        return window_scores_to_observation_scores(window_scores, self.window)

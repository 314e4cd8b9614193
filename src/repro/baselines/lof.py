"""Local Outlier Factor (Breunig et al., SIGMOD 2000) — from scratch.

Density-based scoring: a point whose local reachability density is much
lower than that of its k nearest neighbours gets LOF ≫ 1.  The paper uses
k = 20 neighbours with Euclidean distance (Section 4.1.2).

Neighbour queries use :class:`scipy.spatial.cKDTree`; the LOF algebra
(k-distance, reachability distance, lrd, LOF ratio) is implemented here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..datasets.preprocess import StandardScaler
from .base import OutlierDetector

if TYPE_CHECKING:
    from scipy.spatial import cKDTree


class LocalOutlierFactor(OutlierDetector):
    """LOF in 'novelty' mode: densities from the training set, scores for
    arbitrary query series (the paper's train/test protocol)."""

    name = "LOF"

    def __init__(self, n_neighbors: int = 20, rescale: bool = True,
                 max_training_points: Optional[int] = 4096, seed: int = 0):
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        self.n_neighbors = n_neighbors
        self.rescale = rescale
        self.max_training_points = max_training_points
        self.seed = seed
        self.scaler: Optional[StandardScaler] = None
        self._tree: Optional[cKDTree] = None
        self._train: Optional[np.ndarray] = None
        self._lrd: Optional[np.ndarray] = None
        self._k_distances: Optional[np.ndarray] = None

    def fit(self, series: np.ndarray) -> "LocalOutlierFactor":
        series = self._validate_series(series)
        if self.rescale:
            self.scaler = StandardScaler().fit(series)
            series = self.scaler.transform(series)
        cap = self.max_training_points
        if cap is not None and series.shape[0] > cap:
            rng = np.random.default_rng(self.seed)
            keep = np.sort(rng.choice(series.shape[0], size=cap,
                                      replace=False))
            series = series[keep]
        if series.shape[0] <= self.n_neighbors:
            raise ValueError(f"need more than {self.n_neighbors} training "
                             f"points, got {series.shape[0]}")
        # scipy.spatial is imported here, not at module load, so importing
        # the baselines does not pull scipy into every process.
        from scipy.spatial import cKDTree
        self._train = series
        self._tree = cKDTree(series)
        # k-distance and neighbourhood of each *training* point: query k+1
        # (the nearest hit is the point itself).
        distances, neighbors = self._tree.query(series,
                                                k=self.n_neighbors + 1)
        distances, neighbors = distances[:, 1:], neighbors[:, 1:]
        self._k_distances = distances[:, -1]
        reach = np.maximum(distances, self._k_distances[neighbors])
        self._lrd = 1.0 / (reach.mean(axis=1) + 1e-12)
        return self

    def score(self, series: np.ndarray) -> np.ndarray:
        if self._tree is None:
            raise RuntimeError("LOF must be fitted before scoring")
        series = self._validate_series(series)
        if self.scaler is not None:
            series = self.scaler.transform(series)
        distances, neighbors = self._tree.query(series, k=self.n_neighbors)
        if self.n_neighbors == 1:
            distances = distances[:, None]
            neighbors = neighbors[:, None]
        reach = np.maximum(distances, self._k_distances[neighbors])
        lrd_query = 1.0 / (reach.mean(axis=1) + 1e-12)
        # LOF = average neighbour density / own density.
        return self._lrd[neighbors].mean(axis=1) / lrd_query

"""``repro.datasets`` — synthetic stand-ins for the paper's five corpora,
plus windowing and pre-processing utilities shared by every model."""

from .preprocess import StandardScaler, train_validation_split
from .registry import (DATASET_NAMES, PAPER_DIMS, PAPER_OUTLIER_RATIOS,
                       TimeSeriesDataset, load_dataset, make_ecg, make_msl,
                       make_smap, make_smd, make_wadi)
from .windows import (sliding_windows, window_count,
                      window_scores_to_observation_scores)

__all__ = [
    "DATASET_NAMES", "PAPER_DIMS", "PAPER_OUTLIER_RATIOS", "StandardScaler",
    "TimeSeriesDataset", "load_dataset", "make_ecg", "make_msl", "make_smap",
    "make_smd", "make_wadi", "sliding_windows", "train_validation_split",
    "window_count", "window_scores_to_observation_scores",
]

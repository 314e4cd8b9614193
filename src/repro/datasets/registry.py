"""Named datasets matching the paper's five evaluation corpora.

Each builder returns a :class:`TimeSeriesDataset` whose *shape* mirrors the
original (Section 4.1.1 of the paper):

=========  ====  ==============  =============================
name       dims  outlier ratio   character
=========  ====  ==============  =============================
``ecg``      2        4.88 %     quasi-periodic heartbeats; train == test
                                 (labels ignored during training)
``smd``     38        4.16 %     server metrics: random walks, daily load
                                 cycles, correlated dimensions
``msl``     55        9.17 %     rover telemetry: mode switches +
                                 actuation patterns
``smap``    25       12.27 %     satellite soil-moisture telemetry with
                                 orbital periodicity; ratio varies widely
                                 across subsets (0.8–21.9 %)
``wadi``   127        5.76 %     water-distribution sensors; anomalies are
                                 long labelled *intervals* whose true
                                 deviation is a short core (low-recall
                                 regime, Fig. 11)
=========  ====  ==============  =============================

Lengths are scaled down (roughly 100×) relative to the originals so the
pure-NumPy substrate trains in CPU time; the ``scale`` argument restores
larger sizes when desired.  All generation is seeded — two calls with the
same arguments produce identical data.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from . import synthetic as syn


@dataclasses.dataclass
class TimeSeriesDataset:
    """A train/test multivariate series with point-level test labels.

    Attributes
    ----------
    name:          dataset identifier ("ecg", ...).
    train:         (L_train, D) float array, assumed mostly normal.
    test:          (L_test, D) float array.
    test_labels:   (L_test,) int array, 1 = outlier.
    outlier_ratio: labelled fraction of the test set (for top-K thresholds).
    """
    name: str
    train: np.ndarray
    test: np.ndarray
    test_labels: np.ndarray
    outlier_ratio: float

    @property
    def dims(self) -> int:
        return int(self.train.shape[1])

    def validate(self) -> None:
        """Sanity-check internal consistency (used by tests)."""
        if self.train.ndim != 2 or self.test.ndim != 2:
            raise ValueError("train/test must be 2-D (length, dims)")
        if self.train.shape[1] != self.test.shape[1]:
            raise ValueError("train/test dimensionality mismatch")
        if self.test_labels.shape[0] != self.test.shape[0]:
            raise ValueError("labels must align with test observations")
        if not set(np.unique(self.test_labels)).issubset({0, 1}):
            raise ValueError("labels must be binary")


def _target_count(length: int, ratio: float) -> int:
    return max(1, int(round(length * ratio)))


def _trim_labels_to_ratio(labels: np.ndarray, ratio: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Randomly unset surplus labels so the final ratio matches the target.

    Injection can overlap; this keeps the advertised outlier ratio exact
    enough that Figure 13's "threshold at the true ratio" story holds.
    """
    target = _target_count(labels.shape[0], ratio)
    marked = np.flatnonzero(labels)
    if marked.size > target:
        drop = rng.choice(marked, size=marked.size - target, replace=False)
        labels = labels.copy()
        labels[drop] = 0
    return labels


# ----------------------------------------------------------------------
# Individual builders
# ----------------------------------------------------------------------
def make_ecg(seed: int = 7, scale: float = 1.0) -> TimeSeriesDataset:
    """Two-channel electrocardiogram; one set serves as train and test."""
    rng = np.random.default_rng(seed)
    length = int(4000 * scale)
    specs = [
        syn.ChannelSpec([syn.ecg_beats(beat_period=37.0, qrs_width=1.8,
                                       amplitude=3.2),
                         syn.sine_wave(period=600.0, amplitude=0.25)],
                        noise_std=0.08),
        syn.ChannelSpec([syn.ecg_beats(beat_period=37.0, qrs_width=2.4,
                                       amplitude=-2.1),
                         syn.sine_wave(period=600.0, amplitude=0.2,
                                       phase=1.1)],
                        noise_std=0.08),
    ]
    series = syn.render_channels(specs, length, rng)
    labels = np.zeros(length, dtype=np.int64)
    ratio = 0.0488
    # Arrhythmia-like events: short bursts where morphology degrades.
    n_events = max(2, int(round(length * ratio / 12)))
    syn.inject_interval_outliers(series, labels, n_intervals=n_events,
                                 interval_length=12, magnitude=2.5, rng=rng,
                                 dims_fraction=1.0, mode="noise")
    syn.inject_point_outliers(series, labels,
                              count=_target_count(length, ratio) -
                              int(labels.sum()),
                              magnitude=6.0, rng=rng, dims_per_event=1)
    labels = _trim_labels_to_ratio(labels, ratio, rng)
    # Paper protocol: ECG uses the same set for training and testing.
    return TimeSeriesDataset("ecg", series.copy(), series, labels,
                             outlier_ratio=ratio)


def make_smd(seed: int = 11, scale: float = 1.0) -> TimeSeriesDataset:
    """38-dimensional server-machine metrics."""
    rng = np.random.default_rng(seed)
    train_len, test_len = int(5000 * scale), int(5000 * scale)
    dims = 38
    specs = []
    for d in range(dims):
        components = [
            syn.sine_wave(period=float(rng.uniform(180, 400)),
                          amplitude=float(rng.uniform(0.3, 1.2)),
                          phase=float(rng.uniform(0, 6.28))),
            syn.random_walk(step_std=0.01),
        ]
        if d % 5 == 0:
            components.append(syn.level_shifts(n_levels=4, magnitude=0.8))
        specs.append(syn.ChannelSpec(components,
                                     noise_std=float(rng.uniform(0.03, 0.12)),
                                     offset=float(rng.uniform(-1, 1))))
    full = syn.render_channels(specs, train_len + test_len, rng,
                               mixing_strength=0.6)
    train, test = full[:train_len].copy(), full[train_len:].copy()
    labels = np.zeros(test_len, dtype=np.int64)
    ratio = 0.0416
    syn.inject_interval_outliers(test, labels, n_intervals=6,
                                 interval_length=20, magnitude=3.0, rng=rng,
                                 dims_fraction=0.25, mode="shift")
    syn.inject_point_outliers(test, labels,
                              count=max(0, _target_count(test_len, ratio) -
                                        int(labels.sum())),
                              magnitude=5.0, rng=rng, dims_per_event=4)
    labels = _trim_labels_to_ratio(labels, ratio, rng)
    return TimeSeriesDataset("smd", train, test, labels, outlier_ratio=ratio)


def make_msl(seed: int = 13, scale: float = 1.0) -> TimeSeriesDataset:
    """55-dimensional Mars-rover telemetry with operating-mode regimes."""
    rng = np.random.default_rng(seed)
    train_len, test_len = int(3500 * scale), int(4000 * scale)
    dims = 55
    specs = []
    for d in range(dims):
        components = [syn.level_shifts(n_levels=6, magnitude=1.0)]
        if d % 3 == 0:
            components.append(syn.square_duty_cycle(
                period=float(rng.uniform(120, 300)),
                duty=float(rng.uniform(0.2, 0.7)),
                amplitude=float(rng.uniform(0.5, 1.5))))
        else:
            components.append(syn.sine_wave(
                period=float(rng.uniform(150, 500)),
                amplitude=float(rng.uniform(0.2, 0.8))))
        specs.append(syn.ChannelSpec(components,
                                     noise_std=float(rng.uniform(0.02, 0.1))))
    full = syn.render_channels(specs, train_len + test_len, rng,
                               mixing_strength=0.4)
    train, test = full[:train_len].copy(), full[train_len:].copy()
    labels = np.zeros(test_len, dtype=np.int64)
    ratio = 0.0917
    syn.inject_interval_outliers(test, labels, n_intervals=8,
                                 interval_length=30, magnitude=3.5, rng=rng,
                                 dims_fraction=0.2, mode="shift")
    syn.inject_interval_outliers(test, labels, n_intervals=4,
                                 interval_length=25, magnitude=2.0, rng=rng,
                                 dims_fraction=0.15, mode="flatline")
    syn.inject_point_outliers(test, labels,
                              count=max(0, _target_count(test_len, ratio) -
                                        int(labels.sum())),
                              magnitude=5.0, rng=rng, dims_per_event=6)
    labels = _trim_labels_to_ratio(labels, ratio, rng)
    return TimeSeriesDataset("msl", train, test, labels, outlier_ratio=ratio)


def make_smap(seed: int = 17, scale: float = 1.0) -> TimeSeriesDataset:
    """25-dimensional soil-moisture satellite telemetry."""
    rng = np.random.default_rng(seed)
    train_len, test_len = int(3000 * scale), int(4500 * scale)
    dims = 25
    specs = []
    for d in range(dims):
        specs.append(syn.ChannelSpec(
            [syn.sine_wave(period=float(rng.uniform(80, 160)),   # orbit
                           amplitude=float(rng.uniform(0.5, 1.5)),
                           phase=float(rng.uniform(0, 6.28))),
             syn.sine_wave(period=float(rng.uniform(600, 1200)),  # season
                           amplitude=float(rng.uniform(0.2, 0.6))),
             syn.random_walk(step_std=0.005)],
            noise_std=float(rng.uniform(0.02, 0.08))))
    full = syn.render_channels(specs, train_len + test_len, rng,
                               mixing_strength=0.3)
    train, test = full[:train_len].copy(), full[train_len:].copy()
    labels = np.zeros(test_len, dtype=np.int64)
    ratio = 0.1227
    syn.inject_interval_outliers(test, labels, n_intervals=9,
                                 interval_length=45, magnitude=3.0, rng=rng,
                                 dims_fraction=0.3, mode="shift")
    syn.inject_contextual_outliers(test, labels, count=40, rng=rng,
                                   dims_per_event=5)
    syn.inject_point_outliers(test, labels,
                              count=max(0, _target_count(test_len, ratio) -
                                        int(labels.sum())),
                              magnitude=5.5, rng=rng, dims_per_event=3)
    labels = _trim_labels_to_ratio(labels, ratio, rng)
    return TimeSeriesDataset("smap", train, test, labels, outlier_ratio=ratio)


def make_wadi(seed: int = 19, scale: float = 1.0) -> TimeSeriesDataset:
    """127-dimensional water-distribution testbed with attack intervals.

    Labels mark long intervals; only the central ~30 % of each interval
    truly deviates (``core_fraction=0.3``), reproducing the paper's
    observation that WADI recall is structurally capped (Section 4.2.1).
    """
    rng = np.random.default_rng(seed)
    train_len, test_len = int(6000 * scale), int(3000 * scale)
    dims = 127
    specs = []
    for d in range(dims):
        if d % 4 == 0:       # actuators: on/off duty cycles
            components = [syn.square_duty_cycle(
                period=float(rng.uniform(100, 400)),
                duty=float(rng.uniform(0.3, 0.7)),
                amplitude=float(rng.uniform(0.8, 1.5)))]
        else:                 # continuous sensors: flow / pressure
            components = [
                syn.sine_wave(period=float(rng.uniform(200, 800)),
                              amplitude=float(rng.uniform(0.3, 1.0)),
                              phase=float(rng.uniform(0, 6.28))),
                syn.random_walk(step_std=0.008),
            ]
        specs.append(syn.ChannelSpec(components,
                                     noise_std=float(rng.uniform(0.02, 0.06))))
    full = syn.render_channels(specs, train_len + test_len, rng,
                               mixing_strength=0.5)
    train, test = full[:train_len].copy(), full[train_len:].copy()
    labels = np.zeros(test_len, dtype=np.int64)
    ratio = 0.0576
    # Intervals are sized so the total label mass meets the target ratio
    # without trimming — trimming would break interval contiguity, which is
    # the defining property of WADI's attack labels.
    interval_length = 40
    n_intervals = max(1, _target_count(test_len, ratio) // interval_length)
    syn.inject_interval_outliers(test, labels, n_intervals=n_intervals,
                                 interval_length=interval_length,
                                 magnitude=4.0, rng=rng,
                                 dims_fraction=0.1, mode="shift",
                                 label_whole_interval=True, core_fraction=0.3)
    return TimeSeriesDataset("wadi", train, test, labels, outlier_ratio=ratio)


_BUILDERS = {
    "ecg": make_ecg,
    "smd": make_smd,
    "msl": make_msl,
    "smap": make_smap,
    "wadi": make_wadi,
}

DATASET_NAMES: Tuple[str, ...] = tuple(_BUILDERS)

PAPER_OUTLIER_RATIOS: Dict[str, float] = {
    "ecg": 0.0488, "smd": 0.0416, "msl": 0.0917,
    "smap": 0.1227, "wadi": 0.0576,
}

PAPER_DIMS: Dict[str, int] = {
    "ecg": 2, "smd": 38, "msl": 55, "smap": 25, "wadi": 127,
}


def load_dataset(name: str, seed: Optional[int] = None,
                 scale: float = 1.0) -> TimeSeriesDataset:
    """Build (deterministically) one of the five named datasets.

    Parameters
    ----------
    name:  one of :data:`DATASET_NAMES`.
    seed:  override the dataset's default seed (different synthetic draw).
    scale: length multiplier; 1.0 gives CPU-friendly sizes, larger values
           approach the original corpus lengths.
    """
    key = name.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; "
                       f"available: {sorted(_BUILDERS)}")
    builder = _BUILDERS[key]
    dataset = builder(scale=scale) if seed is None else builder(seed=seed,
                                                                scale=scale)
    dataset.validate()
    return dataset

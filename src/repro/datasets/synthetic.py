"""Composable synthetic multivariate time-series generators.

The paper evaluates on five public datasets (ECG, SMD, MSL, SMAP, WADI)
which cannot be downloaded in this offline environment.  This module
provides the building blocks used by :mod:`repro.datasets.registry` to
synthesise stand-ins that match each dataset's *shape*: dimensionality,
outlier ratio, label semantics and qualitative signal character.

Generators produce the *normal* signal; injectors then overwrite selected
regions with anomalous behaviour and emit point-level ground-truth labels.
Three outlier families cover the phenomenology discussed in the paper:

* **point outliers** — isolated spikes (classic sensor glitches);
* **contextual outliers** — values plausible globally but wrong for their
  temporal context (e.g. a mid-range reading during a peak);
* **collective/interval outliers** — whole segments behaving abnormally
  (level shifts, flatlines, frequency changes).  WADI-style labelling marks
  the *entire* interval as anomalous even though only a few observations
  inside differ strongly — reproducing the low-recall discussion of
  Section 4.2.1 / Figures 11-12.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Sequence, Tuple

import numpy as np

SignalFn = Callable[[np.ndarray, np.random.Generator], np.ndarray]


# ----------------------------------------------------------------------
# Normal-signal components (each returns shape (C,) for time grid t)
# ----------------------------------------------------------------------
def sine_wave(period: float, amplitude: float = 1.0, phase: float = 0.0) -> SignalFn:
    """Pure sinusoid — the basic seasonal component."""
    def component(t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return amplitude * np.sin(2.0 * np.pi * t / period + phase)
    return component


def random_walk(step_std: float) -> SignalFn:
    """Integrated noise — slowly wandering baselines (server metrics)."""
    def component(t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.cumsum(rng.normal(0.0, step_std, size=t.shape))
    return component


def level_shifts(n_levels: int, magnitude: float) -> SignalFn:
    """Piecewise-constant regimes — operating-mode switches (telemetry)."""
    def component(t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        length = t.shape[0]
        boundaries = np.sort(rng.choice(np.arange(1, length),
                                        size=max(n_levels - 1, 0),
                                        replace=False)) if n_levels > 1 else []
        levels = rng.normal(0.0, magnitude, size=n_levels)
        signal = np.empty(length)
        start = 0
        for i, boundary in enumerate(list(boundaries) + [length]):
            signal[start:boundary] = levels[i]
            start = boundary
        return signal
    return component


def ecg_beats(beat_period: float, qrs_width: float = 2.0,
              amplitude: float = 3.0) -> SignalFn:
    """Quasi-periodic spike train approximating QRS complexes.

    A Gaussian bump per beat with slight per-beat timing jitter gives the
    characteristic sharp-peak-on-flat-baseline morphology of ECG channels.
    """
    def component(t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        length = t.shape[0]
        signal = np.zeros(length)
        centre = rng.uniform(0.0, beat_period)
        while centre < length:
            jitter = rng.normal(0.0, beat_period * 0.02)
            peak = centre + jitter
            window = np.exp(-0.5 * ((t - peak) / qrs_width) ** 2)
            signal += amplitude * window
            # T-wave: smaller, wider bump after the main peak.
            signal += 0.35 * amplitude * np.exp(
                -0.5 * ((t - peak - 3.5 * qrs_width) / (2.5 * qrs_width)) ** 2)
            centre += beat_period
        return signal
    return component


def square_duty_cycle(period: float, duty: float = 0.5,
                      amplitude: float = 1.0) -> SignalFn:
    """On/off actuator pattern (valves and pumps in WADI-style plants)."""
    def component(t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        phase = np.mod(t, period) / period
        return amplitude * (phase < duty).astype(float)
    return component


@dataclasses.dataclass
class ChannelSpec:
    """One output dimension: a sum of components plus white noise."""
    components: Sequence[SignalFn]
    noise_std: float = 0.1
    offset: float = 0.0
    scale: float = 1.0

    def render(self, length: int, rng: np.random.Generator) -> np.ndarray:
        t = np.arange(length, dtype=np.float64)
        signal = np.zeros(length)
        for component in self.components:
            signal += component(t, rng)
        signal += rng.normal(0.0, self.noise_std, size=length)
        return self.offset + self.scale * signal


def correlate_channels(channels: np.ndarray, mixing_strength: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Mix channels linearly so dimensions are correlated (multivariate).

    ``channels`` has shape (C, D).  A random row-stochastic-ish mixing
    matrix close to identity couples the dimensions, as in real server /
    sensor fleets where metrics co-move.
    """
    _, dims = channels.shape
    mixing = np.eye(dims) + mixing_strength * rng.uniform(
        -1.0, 1.0, size=(dims, dims)) / max(dims, 1)
    return channels @ mixing.T


# ----------------------------------------------------------------------
# Outlier injection
# ----------------------------------------------------------------------
@dataclasses.dataclass
class InjectionReport:
    """Where anomalies were written and which kind."""
    kind: str
    start: int
    stop: int              # exclusive
    dims: Tuple[int, ...]


def inject_point_outliers(series: np.ndarray, labels: np.ndarray,
                          count: int, magnitude: float,
                          rng: np.random.Generator,
                          dims_per_event: int = 1) -> List[InjectionReport]:
    """Isolated spikes: add ``magnitude``·σ to a few dimensions at one step."""
    length, total_dims = series.shape
    reports = []
    if count <= 0:
        return reports
    positions = rng.choice(length, size=min(count, length), replace=False)
    stds = series.std(axis=0) + 1e-9
    for pos in positions:
        dims = tuple(rng.choice(total_dims,
                                size=min(dims_per_event, total_dims),
                                replace=False))
        sign = rng.choice([-1.0, 1.0])
        for d in dims:
            series[pos, d] += sign * magnitude * stds[d]
        labels[pos] = 1
        reports.append(InjectionReport("point", int(pos), int(pos) + 1, dims))
    return reports


def inject_contextual_outliers(series: np.ndarray, labels: np.ndarray,
                               count: int, rng: np.random.Generator,
                               dims_per_event: int = 1) -> List[InjectionReport]:
    """Replace a step with the series *global mean* — plausible value,
    wrong context (visible only to models that track temporal structure)."""
    length, total_dims = series.shape
    reports = []
    if count <= 0:
        return reports
    means = series.mean(axis=0)
    positions = rng.choice(length, size=min(count, length), replace=False)
    for pos in positions:
        dims = tuple(rng.choice(total_dims,
                                size=min(dims_per_event, total_dims),
                                replace=False))
        for d in dims:
            series[pos, d] = means[d]
        labels[pos] = 1
        reports.append(InjectionReport("contextual", int(pos), int(pos) + 1,
                                       dims))
    return reports


def inject_interval_outliers(series: np.ndarray, labels: np.ndarray,
                             n_intervals: int, interval_length: int,
                             magnitude: float, rng: np.random.Generator,
                             dims_fraction: float = 0.3,
                             mode: str = "shift",
                             label_whole_interval: bool = True,
                             core_fraction: float = 1.0
                             ) -> List[InjectionReport]:
    """Collective anomalies over contiguous segments.

    ``mode``:
      * ``'shift'``    — add a constant offset (attack / fault plateau);
      * ``'flatline'`` — freeze the signal at its segment-start value
                         (stuck sensor);
      * ``'noise'``    — replace with high-variance noise.

    ``label_whole_interval`` + ``core_fraction < 1`` reproduces WADI-style
    labelling: the *whole* interval is marked anomalous but only a central
    core of observations actually deviates, which caps achievable recall
    (Section 4.2.1 of the paper).
    """
    length, total_dims = series.shape
    reports = []
    stds = series.std(axis=0) + 1e-9
    n_dims = max(1, int(round(dims_fraction * total_dims)))
    for _ in range(n_intervals):
        if length <= interval_length + 2:
            break
        start = int(rng.integers(1, length - interval_length - 1))
        stop = start + interval_length
        dims = tuple(rng.choice(total_dims, size=n_dims, replace=False))
        if core_fraction >= 1.0:
            core_start, core_stop = start, stop
        else:
            core_len = max(1, int(round(core_fraction * interval_length)))
            core_start = start + (interval_length - core_len) // 2
            core_stop = core_start + core_len
        for d in dims:
            if mode == "shift":
                series[core_start:core_stop, d] += magnitude * stds[d]
            elif mode == "flatline":
                series[core_start:core_stop, d] = series[core_start, d]
            elif mode == "noise":
                series[core_start:core_stop, d] = rng.normal(
                    series[:, d].mean(), magnitude * stds[d],
                    size=core_stop - core_start)
            else:
                raise ValueError(f"unknown interval mode {mode!r}")
        if label_whole_interval:
            labels[start:stop] = 1
        else:
            labels[core_start:core_stop] = 1
        reports.append(InjectionReport(f"interval:{mode}", start, stop, dims))
    return reports


def render_channels(specs: Sequence[ChannelSpec], length: int,
                    rng: np.random.Generator,
                    mixing_strength: float = 0.0) -> np.ndarray:
    """Render all channel specs into an (L, D) array, optionally mixed."""
    channels = np.stack([spec.render(length, rng) for spec in specs], axis=1)
    if mixing_strength > 0.0:
        channels = correlate_channels(channels, mixing_strength, rng)
    return channels

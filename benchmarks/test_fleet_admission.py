"""Fleet refresh admission control: K co-drifting streams, one build.

The fleet-scale cost problem: streams that drift *together* (co-located
servers seeing the same regime change) each trigger a refresh of the
same shared ensemble.  Without admission control that is K independent
background builds training K identical replacements — K× the training
CPU of Table 7 for one model's worth of new information.  The
:class:`~repro.streaming.RefreshCoordinator` dedups requests whose
ensemble is the same instance and fans the single replacement out to
every subscriber, while a bounded pool caps how many distinct builds
ever train at once.

This benchmark trains real CAE-Ensembles (no stubs) and asserts the
acceptance claims:

* **dedup** — K streams sharing one ensemble and drifting in the same
  window run exactly **1** build; every stream swaps to the same
  replacement instance at its own boundary;
* **CPU** — total build seconds under the coordinator stay well under
  the independent-workers total (measured here by actually running the
  K independent builds);
* **cap** — with K *distinct* ensembles and ``max_concurrent_builds=1``
  no two builds ever train simultaneously.
"""

import copy
import threading
import time

import numpy as np
import pytest

from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.metrics import fleet_refresh_report
from repro.streaming import (EnsembleRefresher, RefreshCoordinator,
                             StreamingDetector)
from repro.streaming.drift import DriftEvent

# Wall-clock ratio assertions under deliberate thread contention: kept
# out of the PR fast lane; the full-suite and nightly lanes run it.
pytestmark = pytest.mark.slow

N_STREAMS = 6
TRIGGER_AT = 50
WINDOW = 16
HISTORY = 256
STREAM_LENGTH = 120


class FireOnce:
    """Drift stub firing one confirmed drift at a fixed arrival, so all
    streams and all runs see the exact same trigger."""

    def __init__(self, at: int):
        self.at = at

    def update(self, score, index):
        if index == self.at:
            return DriftEvent(index=index, detector="bench", kind="drift",
                              statistic=1.0, threshold=0.0)
        return None

    def reset(self):
        pass


def make_fitted_ensemble(bench_budget):
    rng = np.random.default_rng(0)
    t = np.arange(1024)
    train = np.stack([np.sin(2 * np.pi * t / 31),
                      np.cos(2 * np.pi * t / 47),
                      np.sin(2 * np.pi * t / 19)], axis=1)
    train = train + 0.05 * rng.standard_normal(train.shape)
    ensemble = CAEEnsemble(
        CAEConfig(input_dim=3, embed_dim=bench_budget.embed_dim,
                  window=WINDOW, n_layers=bench_budget.n_layers),
        EnsembleConfig(n_models=bench_budget.n_models,
                       epochs_per_model=bench_budget.epochs, seed=0,
                       max_training_windows=bench_budget
                       .max_training_windows))
    ensemble.fit(train)
    return ensemble, train


def make_stream(length=STREAM_LENGTH):
    """Co-drifting traffic: the same regime shift on every stream."""
    rng = np.random.default_rng(1)
    t = np.arange(2048, 2048 + length)
    stream = np.stack([np.sin(2 * np.pi * t / 31),
                       np.cos(2 * np.pi * t / 47),
                       np.sin(2 * np.pi * t / 19)], axis=1)
    stream = stream + 0.05 * rng.standard_normal(stream.shape)
    stream[TRIGGER_AT:] += 1.5
    return stream


def make_detector(ensemble, train, coordinator=None):
    detector = StreamingDetector(
        ensemble, drift_detector=FireOnce(TRIGGER_AT),
        refresher=EnsembleRefresher(epochs_per_model=2),
        history=HISTORY, refresh_mode="async", coordinator=coordinator)
    detector.warm_up(train[-(WINDOW - 1):])
    return detector


def drive_to_refresh(detectors, stream):
    """Replay the stream on every detector: pre-trigger chunk first,
    then a tiny trigger chunk per stream back to back — so all K
    submissions land while the first build is still training — then the
    rest, then drain."""
    for detector in detectors:
        detector.update_batch(stream[:TRIGGER_AT - 1])
    for detector in detectors:                 # ~ms per stream: submits
        detector.update_batch(stream[TRIGGER_AT - 1:TRIGGER_AT + 1])
    for detector in detectors:
        detector.update_batch(stream[TRIGGER_AT + 1:])
    for detector in detectors:
        assert detector.wait_for_refresh(timeout=120) or \
            detector.n_refreshes == 1
    for detector in detectors:
        assert detector.n_refreshes == 1
    return [detector.refresh_reports[0] for detector in detectors]


def test_coordinator_dedups_shared_ensemble_refreshes(bench_budget,
                                                      save_artifact):
    ensemble, train = make_fitted_ensemble(bench_budget)
    stream = make_stream()

    # --- Coordinated: K streams, one shared ensemble, one build -------
    coordinator = RefreshCoordinator(max_concurrent_builds=1)
    coordinated = [make_detector(ensemble, train, coordinator)
                   for _ in range(N_STREAMS)]
    tick = time.perf_counter()
    coordinated_reports = drive_to_refresh(coordinated, stream)
    coordinated_wall = time.perf_counter() - tick
    stats = coordinator.stats()
    report = fleet_refresh_report(coordinator)

    # The tentpole claim: ONE build served all K co-drifting streams.
    assert stats.n_requests == N_STREAMS
    assert stats.n_admitted == 1, (
        f"K streams sharing one ensemble must coalesce into one build, "
        f"ran {stats.n_admitted}")
    assert stats.n_deduped == N_STREAMS - 1
    assert stats.max_concurrent == 1
    assert report.within_cap and report.builds_saved == N_STREAMS - 1
    # Fan-out preserved sharing: every stream serves the SAME instance.
    replacement = coordinated[0].ensemble
    assert replacement is not ensemble
    assert all(detector.ensemble is replacement
               for detector in coordinated)
    # Distinct builds' training time — exactly one build's worth.
    coordinated_cpu = coordinated_reports[0].train_seconds

    # --- Independent: the status quo — K private workers, K builds ----
    independent = [make_detector(ensemble, train, coordinator=None)
                   for _ in range(N_STREAMS)]
    tick = time.perf_counter()
    independent_reports = drive_to_refresh(independent, stream)
    independent_wall = time.perf_counter() - tick
    independent_cpu = sum(r.train_seconds for r in independent_reports)
    # Each stream trained its own replacement: no sharing afterwards.
    assert len({id(detector.ensemble) for detector in independent}) \
        == N_STREAMS

    rendering = "\n".join([
        "Fleet refresh admission control: "
        f"{N_STREAMS} co-drifting streams, one shared ensemble",
        f"  ({ensemble.n_models} basic models/build, refresh corpus "
        f"<= {HISTORY} rows, drift at arrival {TRIGGER_AT})",
        f"  independent workers   builds {N_STREAMS}   "
        f"total build seconds {independent_cpu:7.2f}   "
        f"wall {independent_wall:6.2f}s",
        f"  coordinated (cap 1)   builds {stats.n_admitted}   "
        f"total build seconds {coordinated_cpu:7.2f}   "
        f"wall {coordinated_wall:6.2f}s",
        f"  requests {report.n_requests}, deduped {report.n_deduped} "
        f"(dedup ratio {report.dedup_ratio:.0%}), "
        f"builds saved {report.builds_saved}",
        f"  build CPU ratio coordinated/independent = "
        f"{coordinated_cpu / independent_cpu:.2f}x "
        f"(ideal {1 / N_STREAMS:.2f}x)",
    ])
    print("\n" + rendering)
    save_artifact("fleet_admission", rendering)

    # CPU claim: one build instead of K keeps total build cost well
    # under the independent total (allow generous noise margin).
    assert coordinated_cpu <= independent_cpu / 2, (
        f"coordinated fleet should spend far less build CPU than "
        f"independent workers, got {coordinated_cpu:.2f}s vs "
        f"{independent_cpu:.2f}s")


def test_concurrency_cap_bounds_distinct_builds(bench_budget):
    """K distinct ensembles drifting together under cap 1: builds run
    strictly one at a time (real training, measured inside build)."""
    ensemble, train = make_fitted_ensemble(bench_budget)
    stream = make_stream()
    active, peak = [0], [0]
    track = threading.Lock()

    class TrackedRefresher(EnsembleRefresher):
        def build(self, *args, **kwargs):
            with track:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                return super().build(*args, **kwargs)
            finally:
                with track:
                    active[0] -= 1

    coordinator = RefreshCoordinator(max_concurrent_builds=1)
    detectors = []
    for _ in range(3):
        private = copy.deepcopy(ensemble)      # distinct identity
        detector = StreamingDetector(
            private, drift_detector=FireOnce(TRIGGER_AT),
            refresher=TrackedRefresher(epochs_per_model=2),
            history=HISTORY, refresh_mode="async",
            coordinator=coordinator)
        detector.warm_up(train[-(WINDOW - 1):])
        detectors.append(detector)
    drive_to_refresh(detectors, stream)
    assert coordinator.drain(timeout=120)
    stats = coordinator.stats()
    assert stats.n_admitted == 3 and stats.n_deduped == 0
    assert stats.max_concurrent == 1
    assert peak[0] == 1, (
        f"cap 1 must serialise training, observed {peak[0]} concurrent "
        f"builds")

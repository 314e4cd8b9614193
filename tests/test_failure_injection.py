"""Failure injection: degenerate inputs must fail loudly, not silently.

Silent NaN propagation is the classic failure mode of reconstruction-based
detectors (every score becomes NaN and every threshold comparison False —
no outliers ever flagged).  These tests pin the contract: invalid inputs
raise immediately with actionable messages.
"""

import numpy as np
import pytest

from repro.baselines import (IsolationForest, MovingAverageSmoothing, RAE)
from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.experiments.tables import sequential_depth_per_window
from repro.experiments.reporting import paired_row


@pytest.fixture
def clean_series():
    rng = np.random.default_rng(0)
    return rng.standard_normal((200, 2))


def quick_ensemble():
    return CAEEnsemble(
        CAEConfig(input_dim=2, embed_dim=8, window=8, n_layers=1),
        EnsembleConfig(n_models=1, epochs_per_model=1,
                       max_training_windows=64, seed=0))


class TestNaNRejection:
    def test_ensemble_fit_rejects_nan(self, clean_series):
        series = clean_series.copy()
        series[10, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            quick_ensemble().fit(series)

    def test_ensemble_fit_rejects_inf(self, clean_series):
        series = clean_series.copy()
        series[10, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or infinite"):
            quick_ensemble().fit(series)

    def test_ensemble_score_rejects_nan(self, clean_series):
        ensemble = quick_ensemble().fit(clean_series)
        dirty = clean_series.copy()
        dirty[5, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ensemble.score(dirty)

    def test_windowed_detector_rejects_nan(self, clean_series):
        dirty = clean_series.copy()
        dirty[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            RAE(window=8, epochs=1).fit(dirty)

    def test_classic_detector_rejects_nan(self, clean_series):
        dirty = clean_series.copy()
        dirty[3, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            IsolationForest(n_estimators=5).fit(dirty)

    def test_mas_rejects_nan_at_scoring(self, clean_series):
        detector = MovingAverageSmoothing(window=8).fit(clean_series)
        dirty = clean_series.copy()
        dirty[7, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            detector.score(dirty)


class TestDegenerateSeries:
    def test_constant_series_trains_without_nan(self):
        """σ = 0 dimensions must not blow up the z-scaler or the model."""
        series = np.ones((120, 2))
        ensemble = quick_ensemble().fit(series)
        scores = ensemble.score(series)
        assert np.all(np.isfinite(scores))

    def test_single_window_series(self):
        """A series exactly one window long still scores every point."""
        rng = np.random.default_rng(1)
        series = rng.standard_normal((100, 2))
        ensemble = quick_ensemble().fit(series)
        window = ensemble.cae_config.window
        scores = ensemble.score(series[:window])
        assert scores.shape == (window,)

    def test_series_shorter_than_window_raises(self, clean_series):
        ensemble = quick_ensemble().fit(clean_series)
        with pytest.raises(ValueError):
            ensemble.score(clean_series[:4])    # window is 8

    def test_huge_magnitude_series_finite(self):
        """Re-scaling must absorb extreme raw magnitudes (1e9-scale)."""
        rng = np.random.default_rng(2)
        series = 1e9 * (1.0 + 0.001 * rng.standard_normal((150, 2)))
        ensemble = quick_ensemble().fit(series)
        assert np.all(np.isfinite(ensemble.score(series)))


class TestHarnessHelpers:
    def test_sequential_depth_rae_grows_with_window(self):
        assert sequential_depth_per_window("RAE", 16, 2) == 32
        assert sequential_depth_per_window("RAE-Ensemble", 64, 2) == 128

    def test_sequential_depth_cae_independent_of_window(self):
        assert sequential_depth_per_window("CAE", 16, 2) == \
            sequential_depth_per_window("CAE", 256, 2) == 6
        assert sequential_depth_per_window("CAE-Ensemble", 16, 3) == 8

    def test_paired_row_formats(self):
        cells = paired_row((0.5, 0.25), (0.1, 0.2))
        assert cells == ["0.5000 (0.1000)", "0.2500 (0.2000)"]

    def test_paired_row_without_reference(self):
        assert paired_row((0.5,), None) == ["0.5000"]


# ----------------------------------------------------------------------
# Process-level faults: the runtime must degrade, never poison serving
# ----------------------------------------------------------------------
class TestProcessFaults:
    """SIGKILLed workers, orphaned segments and a dead broker.

    Uses the same gated mp handshake as ``test_runtime_processes`` —
    every fault is injected at a point the test *chose* (the build is
    provably in flight because the worker said so), never timed.
    """

    def test_sigkill_worker_fails_handle_without_poisoning(
            self, shm_namespace, mp_handshake):
        """Kill the build worker mid-train: the handle fails with
        WorkerCrashed, the pool respawns, and the *next* build on the
        same client succeeds on the fresh worker."""
        import os
        from repro.runtime import ProcessBuildPool, WorkerCrashed
        from repro.streaming import RefreshCoordinator
        from tests.conftest import fabricate_ensemble, sine_regime
        from tests.test_runtime_processes import (GATE_TIMEOUT,
                                                  ProcessGatedRefresher,
                                                  wait_started)

        pool = ProcessBuildPool(n_workers=1, worker_context=mp_handshake)
        coordinator = RefreshCoordinator(max_concurrent_builds=1,
                                         build_runner=pool.build_runner)
        try:
            client = coordinator.client(ProcessGatedRefresher())
            ensemble = fabricate_ensemble()
            history = sine_regime(32, seed=1)
            handle = client.submit(ensemble, history, 30)
            victim_pid, _ = wait_started(mp_handshake)
            os.kill(victim_pid, 9)
            assert client.join(GATE_TIMEOUT)
            assert client.take() is handle
            assert handle.status == "failed"
            assert isinstance(handle.error, WorkerCrashed)

            # The serving side is unharmed: the coordinator accepts a new
            # request and the respawned worker completes it.  (The second
            # gate, never touched by the victim, releases it — the victim
            # may have died holding the first gate's condition lock.)
            mp_handshake["gate2"].set()
            survivor = coordinator.client(ProcessGatedRefresher(
                tag="retry", gate_key="gate2", started_key="started2"))
            retry = survivor.submit(ensemble, history, 60)
            fresh_pid, _ = wait_started(mp_handshake, key="started2")
            assert fresh_pid != victim_pid
            assert survivor.join(GATE_TIMEOUT)
            assert survivor.take() is retry and retry.ready
        finally:
            coordinator.shutdown()
            pool.shutdown()
        from repro.runtime import list_segments
        assert list_segments(shm_namespace) == []

    def test_orphan_fails_when_another_thread_respawns_its_worker(
            self, shm_namespace, mp_handshake):
        """With two workers, whichever runner thread first sees a dead
        worker respawns it.  The orphaned job must still fail with
        WorkerCrashed instead of polling forever: here the kill and the
        respawn both happen on the test thread while it holds the pool
        lock, so the orphan's own runner never sees the dead worker."""
        import os
        import threading
        from repro.runtime import (ProcessBuildPool, WorkerCrashed,
                                   list_segments)
        from tests.conftest import fabricate_ensemble, sine_regime
        from tests.test_runtime_processes import (GATE_TIMEOUT,
                                                  ProcessGatedRefresher,
                                                  wait_started)

        pool = ProcessBuildPool(n_workers=2, worker_context=mp_handshake)
        outcome = {}

        def run():
            try:
                pool.build_runner(ProcessGatedRefresher(),
                                  fabricate_ensemble(),
                                  sine_regime(32, seed=1), 10,
                                  {"trigger_index": 10})
            except Exception as exc:
                outcome["error"] = exc

        runner = threading.Thread(target=run, daemon=True)
        try:
            runner.start()
            victim_pid, _ = wait_started(mp_handshake)
            with pool._lock:
                victim = next(process for process in pool._workers
                              if process.pid == victim_pid)
                os.kill(victim_pid, 9)
                victim.join(GATE_TIMEOUT)
                pool._respawn_dead_locked()
            runner.join(GATE_TIMEOUT)
            assert not runner.is_alive(), "orphaned build never resolved"
            assert isinstance(outcome.get("error"), WorkerCrashed)
        finally:
            pool.shutdown()
            runner.join(GATE_TIMEOUT)
        assert list_segments(shm_namespace) == []

    def test_orphaned_segments_unlinked_on_next_attach(self,
                                                       shm_namespace):
        """A segment whose owner pid is dead is swept by the next
        publish/attach instead of accumulating in /dev/shm."""
        import multiprocessing as mp
        from multiprocessing import shared_memory
        from repro.runtime import (attach_pack, list_segments,
                                   publish_pack, unlink_pack)
        from repro.runtime import shm as shm_mod
        from tests.conftest import fabricate_ensemble

        child = mp.get_context("fork").Process(target=int)
        child.start()
        child.join()
        dead_pid = child.pid

        orphan = shared_memory.SharedMemory(
            create=True, size=64,
            name=f"repro-{shm_namespace}-{dead_pid}-deadbeef")
        orphan.close()
        shm_mod._unregister(orphan.name)
        assert list_segments(shm_namespace) == [orphan.name]

        manifest = publish_pack(fabricate_ensemble(), dtype=np.float64)
        attached = attach_pack(manifest)   # sweeps before mapping
        attached.close()
        survivors = list_segments(shm_namespace)
        assert orphan.name not in survivors
        assert survivors == [manifest["segment"]]
        assert unlink_pack(manifest)

    def test_attach_after_unlink_raises_orphaned(self, shm_namespace):
        from repro.runtime import (OrphanedSegmentError, attach_pack,
                                   publish_pack, unlink_pack)
        from tests.conftest import fabricate_ensemble
        manifest = publish_pack(fabricate_ensemble(), dtype=np.float64)
        assert unlink_pack(manifest)
        with pytest.raises(OrphanedSegmentError):
            attach_pack(manifest)

    def test_broker_death_degrades_to_inline_refresh(self, shm_namespace,
                                                     mp_handshake):
        """SIGKILL the broker with a build in flight: the pending handle
        resolves discarded (the engine re-queues it), the port flips to
        degraded, and new submits build locally in-process."""
        from repro.runtime import BuildBroker
        from repro.streaming.refresh import RefreshReport
        from tests.conftest import fabricate_ensemble, sine_regime
        from tests.test_runtime_processes import (GATE_TIMEOUT,
                                                  ProcessGatedRefresher,
                                                  wait_started)

        class LocalInstantRefresher:
            """Builds immediately, in this process — the degraded path."""

            def __init__(self, replacement):
                self.replacement = replacement
                self.n_refreshes = 0

            def ready(self, history_length, index):
                return True

            def build(self, ensemble, history, index, generation=None,
                      trigger_index=None, mode="inline", cancel=None):
                report = RefreshReport(
                    index=int(index), history_length=int(len(history)),
                    train_seconds=0.0, warm_start_fraction=0.0,
                    copied_fraction=0.0, trigger_index=trigger_index,
                    mode=mode)
                return self.replacement, report

            def commit(self, report):
                self.n_refreshes += 1

        broker = BuildBroker(n_ports=1, n_workers=1,
                             worker_context=mp_handshake)
        try:
            coordinator = broker.coordinator(0)
            ensemble = fabricate_ensemble()
            history = sine_regime(32, seed=1)

            remote = coordinator.client(ProcessGatedRefresher())
            in_flight = remote.submit(ensemble, history, 30)
            wait_started(mp_handshake)     # provably mid-build
            broker.kill()

            # The port notices on its next pump and discards the pending
            # handle — exactly what a coordinator shutdown does, which
            # the engine answers by restoring the refresh request.
            assert remote.join(GATE_TIMEOUT)
            assert in_flight.status == "discarded"
            assert coordinator.port.degraded

            local = coordinator.client(
                LocalInstantRefresher(fabricate_ensemble(seed=5)))
            rebuilt = local.submit(ensemble, history, 60)
            assert local.join(GATE_TIMEOUT)
            assert local.take() is rebuilt and rebuilt.ready
            assert rebuilt.report.trigger_index == 60
            # The degraded-mode fallback ran that build, and its ledger
            # is what the coordinator reports while the broker is gone.
            stats = coordinator.stats()
            assert stats.n_requests == 1 and stats.n_completed == 1
        finally:
            broker.shutdown(timeout=1.0)
        from repro.runtime import list_segments
        assert list_segments(shm_namespace) == []

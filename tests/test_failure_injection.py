"""Failure injection: degenerate inputs must fail loudly, not silently.

Silent NaN propagation is the classic failure mode of reconstruction-based
detectors (every score becomes NaN and every threshold comparison False —
no outliers ever flagged).  These tests pin the contract: invalid inputs
raise immediately with actionable messages.
"""

import os
import time

import numpy as np
import pytest

from repro.baselines import (IsolationForest, MovingAverageSmoothing, RAE)
from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.experiments.tables import sequential_depth_per_window
from repro.experiments.reporting import paired_row
from tests.test_runtime_processes import ProcessGatedRefresher


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
N_KILL_SEEDS = 36
KILL_RESULT_BYTES = 16 * 2 ** 20


class KillPointRefresher:
    """Build stub that marks the kill point with one byte on a raw pipe
    (``os.write`` takes no lock, so a kill cannot poison it), then
    blocks (``"build"``) or returns a multi-MB replacement whose pickle
    and send the kill can interrupt (``"send"``).  ``"quick"`` returns
    an 8-byte replacement without signalling."""

    def __init__(self, signal_fd, phase):
        self.signal_fd = signal_fd
        self.phase = phase

    def build(self, ensemble, history, index, **kwargs):
        if self.phase == "quick":
            return np.ones(1), None
        os.write(self.signal_fd, b"k")
        if self.phase == "build":
            time.sleep(60.0)
        return np.ones(KILL_RESULT_BYTES // 8), None


class FirstAttemptBlocksRefresher(ProcessGatedRefresher):
    """The first build anywhere reports on the ``started`` handshake and
    blocks until its worker is killed; every later build returns the
    context's replacement at once.  An ``O_EXCL`` marker file decides
    which build is first, so nothing a later build touches can have
    been poisoned by the kill."""

    def __init__(self, marker):
        super().__init__(tag="first")
        self.marker = marker

    def build(self, ensemble, history, index, generation=None,
              trigger_index=None, mode="inline", cancel=None):
        from repro.runtime.pool import worker_context
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return self.finish(index, history, trigger_index, mode)
        worker_context()["started"].put((os.getpid(), self.tag))
        time.sleep(60.0)
        raise RuntimeError("the test never killed this build")


def _run_catching(pool, refresher):
    """One ``build_runner`` call; its result, or the exception raised."""
    try:
        return pool.build_runner(refresher, None, np.zeros((4, 1)), 0,
                                 {"trigger_index": 0})
    except Exception as exc:
        return exc


def _wait_exited(pid, timeout=60.0):
    """Block until ``pid`` is gone or a zombie (a killed child of this
    process stays a zombie until its owner reaps it)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except FileNotFoundError:
            return
        time.sleep(0.001)
    raise AssertionError(f"pid {pid} survived SIGKILL")


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

    def test_killed_worker_fails_only_its_own_build(self, shm_namespace,
                                                    mp_handshake):
        """Two workers run two builds at once and one worker is killed:
        that build's runner raises WorkerCrashed and the other build
        completes, because a dead worker breaks only its own pipe."""
        import threading
        from repro.runtime import (ProcessBuildPool, WorkerCrashed,
                                   list_segments)
        from tests.conftest import fabricate_ensemble, sine_regime
        from tests.test_runtime_processes import (GATE_TIMEOUT,
                                                  ProcessGatedRefresher,
                                                  wait_started)

        pool = ProcessBuildPool(n_workers=2, worker_context=mp_handshake)
        outcomes = {}

        def run(tag, refresher):
            try:
                outcomes[tag] = pool.build_runner(
                    refresher, fabricate_ensemble(),
                    sine_regime(32, seed=1), 10, {"trigger_index": 10})
            except Exception as exc:
                outcomes[tag] = exc

        runners = {
            "victim": threading.Thread(
                target=run, args=("victim", ProcessGatedRefresher()),
                daemon=True),
            "survivor": threading.Thread(
                target=run, args=("survivor", ProcessGatedRefresher(
                    tag="survivor", gate_key="gate2",
                    started_key="started2")),
                daemon=True)}
        try:
            for runner in runners.values():
                runner.start()
            victim_pid, _ = wait_started(mp_handshake)
            survivor_pid, _ = wait_started(mp_handshake, key="started2")
            assert victim_pid != survivor_pid
            os.kill(victim_pid, 9)
            runners["victim"].join(GATE_TIMEOUT)
            assert not runners["victim"].is_alive(), (
                "the killed build never resolved")
            assert isinstance(outcomes["victim"], WorkerCrashed)
            assert runners["survivor"].is_alive()
            mp_handshake["gate2"].set()
            runners["survivor"].join(GATE_TIMEOUT)
            assert not runners["survivor"].is_alive()
            replacement, report = outcomes["survivor"]
            assert report.trigger_index == 10
            assert survivor_pid in pool.worker_pids()
            assert victim_pid not in pool.worker_pids()
        finally:
            pool.shutdown()
            for runner in runners.values():
                runner.join(GATE_TIMEOUT)
        assert list_segments(shm_namespace) == []

    def test_seeded_worker_kills_never_hang_the_pool(self, shm_namespace):
        """SIGKILL the pool's worker at a seeded point — idle, mid-build
        or mid-send of a multi-MB result — over many seeds.  No runner
        hangs; the build fails with WorkerCrashed or completes (the kill
        landed after the send); the next build completes on a respawned
        worker, which the pool counts as a build-worker restart."""
        import random
        import select
        import threading
        from repro import obs
        from repro.runtime import ProcessBuildPool, WorkerCrashed
        from tests.test_runtime_processes import GATE_TIMEOUT

        registry = obs.MetricsRegistry()
        obs.set_default_registry(registry)
        signal_read, signal_write = os.pipe()
        pool = ProcessBuildPool(n_workers=1, publish_packs=False)

        def build(phase):
            outcome = []
            runner = threading.Thread(target=lambda: outcome.append(
                _run_catching(pool, KillPointRefresher(signal_write,
                                                       phase))),
                daemon=True)
            runner.start()
            return runner, outcome

        def resolved(runner, outcome):
            runner.join(GATE_TIMEOUT)
            assert not runner.is_alive(), f"seed {seed}: runner hung"
            return outcome[0]

        try:
            for seed in range(N_KILL_SEEDS):
                rng = random.Random(seed)
                phase = ("idle", "build", "send")[seed % 3]
                victim = pool.worker_pids()[0]
                if phase == "idle":
                    os.kill(victim, 9)
                    runner, outcome = build("quick")
                else:
                    runner, outcome = build(phase)
                    ready, _, _ = select.select([signal_read], [], [],
                                                GATE_TIMEOUT)
                    assert ready, f"seed {seed}: build never started"
                    os.read(signal_read, 1)
                    time.sleep(rng.uniform(0.0, 0.03 if phase == "send"
                                           else 0.005))
                    os.kill(victim, 9)
                result = resolved(runner, outcome)
                if phase == "build":
                    assert isinstance(result, WorkerCrashed), seed
                elif not isinstance(result, WorkerCrashed):
                    replacement, _ = result
                    assert replacement.nbytes == (
                        KILL_RESULT_BYTES if phase == "send" else 8), seed
                _wait_exited(victim)
                replacement, _ = resolved(*build("quick"))
                assert replacement.nbytes == 8, seed
                assert victim not in pool.worker_pids(), seed
            assert registry.counter("repro_restarts_total",
                                    component="build_worker").value \
                == N_KILL_SEEDS
        finally:
            pool.shutdown()
            os.close(signal_read)
            os.close(signal_write)

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_sigkilled_broker_worker_resolves_without_a_watchdog(
            self, shm_namespace, mp_handshake, tmp_path, max_retries):
        """With no ``restart=`` nothing outside the broker reaps a killed
        build worker.  The broker's own pool sees the death at once:
        the handle fails with WorkerCrashed and the next submit builds on
        a respawned worker; with a retry budget the same kill ends
        ``ready``."""
        from repro.runtime import (BuildBroker, RetryPolicy, WorkerCrashed,
                                   list_segments)
        from tests.conftest import fabricate_ensemble, sine_regime
        from tests.test_runtime_processes import GATE_TIMEOUT, wait_started

        retry = RetryPolicy(max_retries=max_retries, base_delay=0.001) \
            if max_retries else None
        broker = BuildBroker(n_ports=1, n_workers=1,
                             worker_context=mp_handshake, retry=retry)
        try:
            client = broker.coordinator(0).client(
                FirstAttemptBlocksRefresher(str(tmp_path / "first")))
            ensemble = fabricate_ensemble()
            history = sine_regime(32, seed=1)
            handle = client.submit(ensemble, history, 30)
            victim_pid, _ = wait_started(mp_handshake)
            os.kill(victim_pid, 9)
            assert client.join(GATE_TIMEOUT), "the killed build hung"
            assert client.take() is handle
            if retry is not None:
                assert handle.ready
            else:
                assert handle.status == "failed"
                assert isinstance(handle.error, WorkerCrashed)
                again = client.submit(ensemble, history, 60)
                assert client.join(GATE_TIMEOUT)
                assert client.take() is again and again.ready
        finally:
            broker.shutdown()
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

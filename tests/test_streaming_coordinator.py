"""Deterministic tests for fleet-wide refresh admission control.

Same methodology as ``test_streaming_worker``: gated slow-trainer stubs
make every interleaving controllable from the test thread — builds block
on events we hold, so cap enforcement, dedup fan-out, cancellation and
checkpointing are asserted without sleeps or timing assumptions.
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import (CAEConfig, CAEEnsemble, EnsembleConfig,
                        TrainingCancelled, load_fleet, save_fleet)
from repro.metrics import fleet_refresh_report
from repro.streaming import (CoordinatedRefreshClient, RefreshCoordinator,
                             StreamFleet, StreamingDetector)
from tests.conftest import make_stream_ensemble, sine_regime
from tests.test_streaming_worker import (ConstantEnsemble, FireAt,
                                         SlowRefresher, wait_build_started)

GATE_TIMEOUT = 30.0


class CancelAwareRefresher(SlowRefresher):
    """Gated stub whose build honours the coordinator's cancel flag the
    way :meth:`CAEEnsemble.fit` does — by raising TrainingCancelled."""

    def build(self, ensemble, history, index, generation=None,
              trigger_index=None, mode="inline", cancel=None):
        self.build_calls.append((int(index), mode, generation))
        if not self.gate.wait(GATE_TIMEOUT):
            raise RuntimeError("test gate never opened")
        if cancel is not None and cancel.is_set():
            raise TrainingCancelled(0)
        return super().build(ensemble, history, index,
                             generation=generation,
                             trigger_index=trigger_index, mode=mode)


def make_coordinated_detector(ensemble, coordinator, gate, fire_at=(30,),
                              constant=1234.5, refresher_cls=SlowRefresher):
    refresher = refresher_cls(
        ConstantEnsemble(constant, ensemble.cae_config), gate)
    detector = StreamingDetector(ensemble,
                                 drift_detector=FireAt(*fire_at),
                                 refresher=refresher, history=64,
                                 refresh_mode="async",
                                 coordinator=coordinator)
    detector.warm_up(sine_regime(7, start=353))
    return detector, refresher


class PriorityRecordingRefresher(SlowRefresher):
    """Records the niceness of the thread its build runs on."""

    def build(self, *args, **kwargs):
        kwargs.pop("cancel", None)
        self.niceness = os.getpriority(os.PRIO_PROCESS,
                                       threading.get_native_id())
        return super().build(*args, **kwargs)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="per-thread niceness is a Linux facility")
class TestBuildThreadPriority:
    def test_in_process_build_trains_at_lowest_priority(self,
                                                        stream_ensemble):
        """An in-process build thread yields its cores to serving: it
        trains at nice 19 while the serving thread keeps its own."""
        serving = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
        gate = threading.Event()
        gate.set()
        detector, refresher = make_coordinated_detector(
            stream_ensemble, RefreshCoordinator(), gate,
            refresher_cls=PriorityRecordingRefresher)
        detector.update_batch(sine_regime(40, start=360))
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert refresher.niceness == 19
        assert os.getpriority(os.PRIO_PROCESS,
                              threading.get_native_id()) == serving

    def test_build_runner_thread_keeps_its_priority(self, stream_ensemble):
        """With a build runner the coordinator thread only waits on it,
        so it is left at the process's niceness."""
        serving = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())

        def runner(refresher, ensemble, history, index, kwargs, cancel):
            return refresher.build(ensemble, history, index, **kwargs)

        gate = threading.Event()
        gate.set()
        detector, refresher = make_coordinated_detector(
            stream_ensemble, RefreshCoordinator(build_runner=runner), gate,
            refresher_cls=PriorityRecordingRefresher)
        detector.update_batch(sine_regime(40, start=360))
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert refresher.niceness == serving


@pytest.fixture(scope="module")
def second_ensemble():
    """A second distinct fitted ensemble (different identity than the
    session-shared ``stream_ensemble``), for mixed-sharing fleets."""
    return make_stream_ensemble(seed=1)


class TestConcurrencyCap:
    def test_pool_never_exceeds_max_concurrent_builds(self,
                                                      stream_ensemble):
        """5 streams with 5 *distinct* ensembles drift together under a
        cap of 2: exactly 2 builds run at any moment, the rest queue."""
        coordinator = RefreshCoordinator(max_concurrent_builds=2)
        active, peak = [0], [0]
        track = threading.Lock()

        class TrackedRefresher(SlowRefresher):
            """Counts how many builds are *training* at once — the CPU
            the cap is supposed to bound."""

            def build(self, *args, **kwargs):
                kwargs.pop("cancel", None)     # stub ignores the flag
                with track:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                try:
                    return super().build(*args, **kwargs)
                finally:
                    with track:
                        active[0] -= 1

        gates = [threading.Event() for _ in range(5)]
        detectors = []
        for i in range(5):
            # Distinct identity per stream: a private serving stand-in
            # sharing the real ensemble's config.
            private = ConstantEnsemble(0.5, stream_ensemble.cae_config)
            detector, refresher = make_coordinated_detector(
                private, coordinator, gates[i],
                refresher_cls=TrackedRefresher)
            detectors.append((detector, refresher))
        stream = sine_regime(40, start=360)
        for detector, _ in detectors:
            detector.update_batch(stream)

        assert wait_build_started(detectors[0][1])
        assert wait_build_started(detectors[1][1])
        stats = coordinator.stats()
        assert stats.n_running == 2 and stats.n_queued == 3
        assert stats.n_requests == 5 and stats.n_deduped == 0

        # Release one build: exactly one queued build is admitted.
        gates[0].set()
        assert detectors[0][0].wait_for_refresh(GATE_TIMEOUT)
        assert wait_build_started(detectors[2][1])
        assert coordinator.stats().n_running == 2

        for gate in gates:
            gate.set()
        for detector, _ in detectors:
            detector.wait_for_refresh(GATE_TIMEOUT)
            assert detector.n_refreshes == 1
        stats = coordinator.stats()
        assert stats.n_admitted == 5 and stats.n_completed == 5
        assert stats.max_concurrent == 2 == peak[0]
        assert coordinator.drain(GATE_TIMEOUT)

    def test_invalid_configuration_rejected(self, stream_ensemble):
        with pytest.raises(ValueError):
            RefreshCoordinator(max_concurrent_builds=0)
        with pytest.raises(ValueError):
            RefreshCoordinator(policy="lifo")
        with pytest.raises(ValueError, match="refresh_mode"):
            StreamingDetector(stream_ensemble, history=64,
                              coordinator=RefreshCoordinator())

    def test_shared_fleet_validates_admission_needs_async_eagerly(
            self, stream_ensemble):
        from repro.streaming import shared_fleet
        with pytest.raises(ValueError, match="async"):
            shared_fleet(stream_ensemble, max_concurrent_builds=2)

    def test_priority_policy_admits_highest_first(self, stream_ensemble):
        """Under policy='priority' the queue drains highest-priority
        first; FIFO breaks ties."""
        coordinator = RefreshCoordinator(max_concurrent_builds=1,
                                         policy="priority")
        order = []
        coordinator.on_build_start = lambda build: order.append(
            build.priority)
        gate = threading.Event()
        clients = []
        for priority in (0, 1, 5, 3):
            refresher = SlowRefresher(
                ConstantEnsemble(1.0, stream_ensemble.cae_config), gate)
            client = coordinator.client(refresher, priority=priority)
            # Distinct ensembles: no dedup, four separate builds.
            client.submit(ConstantEnsemble(0.0,
                                           stream_ensemble.cae_config),
                          sine_regime(40), trigger_index=30)
            clients.append(client)
        gate.set()
        for client in clients:
            assert client.join(GATE_TIMEOUT)
        assert coordinator.drain(GATE_TIMEOUT)
        # Priority 0 was admitted immediately (empty pool); the queued
        # rest drained highest-first.
        assert order == [0, 5, 3, 1]


class TestDedup:
    def test_shared_ensemble_streams_coalesce_into_one_build(
            self, stream_ensemble):
        """K streams sharing one ensemble and drifting in the same
        window cost exactly one build, fanned out to all K at each
        stream's next boundary."""
        coordinator = RefreshCoordinator(max_concurrent_builds=4)
        gate = threading.Event()
        detectors = [make_coordinated_detector(stream_ensemble,
                                               coordinator, gate)
                     for _ in range(4)]
        stream = sine_regime(120, start=360)
        for detector, _ in detectors:
            detector.update_batch(stream[:40])
        leader = detectors[0][1]
        assert wait_build_started(leader)
        stats = coordinator.stats()
        assert stats.n_requests == 4
        assert stats.n_deduped == 3
        assert stats.n_admitted == 1          # ONE build for four streams
        # Only the leader's refresher ever trains.
        assert all(refresher.build_calls == []
                   for _, refresher in detectors[1:])

        gate.set()
        for detector, _ in detectors:
            assert detector.wait_for_refresh(GATE_TIMEOUT)
            assert detector.n_refreshes == 1
        # Fan-out: every stream now serves the SAME replacement instance
        # (sharing preserved, exactly like save_fleet would dedup it).
        replacement = detectors[0][0].ensemble
        assert replacement is leader.replacement
        assert all(detector.ensemble is replacement
                   for detector, _ in detectors)
        # Each stream still committed its own report with its own trigger.
        for detector, refresher in detectors:
            assert detector.refresh_reports[0].trigger_index == 30
            assert len(refresher.reports) == 1
        report = fleet_refresh_report(coordinator)
        assert report.n_builds == 1 and report.builds_saved == 3
        assert report.dedup_ratio == 0.75 and report.within_cap

    def test_fanned_out_updates_match_independent_builds(
            self, stream_ensemble):
        """Dedup is a pure cost optimisation: the StreamUpdates of a
        coordinated fleet are identical to streams building
        independently (same replacement scores, same swap boundaries)."""
        def run(coordinator):
            gate = threading.Event()
            gate.set()                         # builds are instant
            detectors = [make_coordinated_detector(
                stream_ensemble, coordinator, gate, constant=50.0)
                if coordinator is not None else
                self._independent_detector(stream_ensemble, gate)
                for _ in range(3)]
            stream = sine_regime(120, start=360)
            updates = [[] for _ in detectors]
            for start, stop in ((0, 40), (40, 80), (80, 120)):
                for i, (detector, _) in enumerate(detectors):
                    updates[i].extend(
                        detector.update_batch(stream[start:stop]))
                for detector, _ in detectors:
                    detector.wait_for_refresh(GATE_TIMEOUT)
            reports = [detector.refresh_reports
                       for detector, _ in detectors]
            return updates, reports

        coordinated, coordinated_reports = run(
            RefreshCoordinator(max_concurrent_builds=1))
        independent, independent_reports = run(None)
        assert coordinated == independent      # exact dataclass equality
        assert coordinated_reports == independent_reports

    @staticmethod
    def _independent_detector(ensemble, gate, constant=50.0):
        refresher = SlowRefresher(
            ConstantEnsemble(constant, ensemble.cae_config), gate)
        detector = StreamingDetector(ensemble,
                                     drift_detector=FireAt(30),
                                     refresher=refresher, history=64,
                                     refresh_mode="async")
        detector.warm_up(sine_regime(7, start=353))
        return detector, refresher

    def test_duck_typed_reports_fan_out_without_wedging(
            self, stream_ensemble):
        """Regression: a refresher returning a non-dataclass report must
        not crash the build thread mid-fan-out (which would leave every
        subscriber waiting forever and stall the queue)."""
        # Held closed until every submit has landed: the instant-return
        # build must not finish before the follower joins it, or the
        # dedup below races.
        gate = threading.Event()

        class TokenRefresher:
            n_refreshes = 0

            def build(self, ensemble, history, index, **kwargs):
                if not gate.wait(GATE_TIMEOUT):
                    raise RuntimeError("test gate never opened")
                return "replacement", "report-token"

        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        shared = ConstantEnsemble(0.0, stream_ensemble.cae_config)
        leader = coordinator.client(TokenRefresher())
        follower = coordinator.client(TokenRefresher())
        queued = coordinator.client(TokenRefresher())
        first = leader.submit(shared, sine_regime(40), trigger_index=10)
        second = follower.submit(shared, sine_regime(40),
                                 trigger_index=12)
        behind = queued.submit(
            ConstantEnsemble(1.0, stream_ensemble.cae_config),
            sine_regime(40), trigger_index=14)
        gate.set()
        for handle in (first, second, behind):
            assert handle.wait(GATE_TIMEOUT)   # nothing wedged
            assert handle.ready
            assert handle.replacement == "replacement"
            assert handle.report == "report-token"   # passed through
        assert coordinator.drain(GATE_TIMEOUT)
        stats = coordinator.stats()
        assert stats.n_completed == 2 and stats.n_deduped == 1

    @pytest.mark.parametrize("key", ["shared-key", None])
    def test_explicit_key_replaces_identity_as_the_dedup_key(
            self, stream_ensemble, key):
        """``_submit(key=)`` is the broker's dedup seam: two distinct
        ensemble objects submitted under one key cost one build, fanned
        out to both handles; without a key, identity keeps them two
        builds."""
        config = stream_ensemble.cae_config
        gate = threading.Event()     # held until both submits landed
        refresher = SlowRefresher(ConstantEnsemble(7.0, config), gate)
        coordinator = RefreshCoordinator(max_concurrent_builds=2)
        handles = [coordinator._submit(
            coordinator.client(refresher), ConstantEnsemble(0.0, config),
            sine_regime(40), trigger_index, 0, key=key)
            for trigger_index in (10, 11)]
        gate.set()
        for handle in handles:
            assert handle.wait(GATE_TIMEOUT) and handle.ready
        assert [handle.report.trigger_index for handle in handles] \
            == [10, 11]
        assert coordinator.drain(GATE_TIMEOUT)
        stats = coordinator.stats()
        if key is None:
            assert stats.n_admitted == 2 and stats.n_deduped == 0
            assert len(refresher.build_calls) == 2
        else:
            assert stats.n_admitted == 1 and stats.n_deduped == 1
            assert refresher.build_calls == [(10, "async", 0)]
            assert handles[0].replacement is handles[1].replacement
        assert stats.n_completed == stats.n_admitted

    def test_no_dedup_across_distinct_ensembles(self, stream_ensemble,
                                                second_ensemble):
        """Sharing is identity, not architecture: streams on two equal-
        config but distinct ensembles build separately."""
        coordinator = RefreshCoordinator(max_concurrent_builds=2)
        gate = threading.Event()
        gate.set()
        one, _ = make_coordinated_detector(stream_ensemble, coordinator,
                                           gate)
        two, _ = make_coordinated_detector(second_ensemble, coordinator,
                                           gate)
        stream = sine_regime(40, start=360)
        one.update_batch(stream)
        two.update_batch(stream)
        assert one.wait_for_refresh(GATE_TIMEOUT)
        assert two.wait_for_refresh(GATE_TIMEOUT)
        stats = coordinator.stats()
        assert stats.n_admitted == 2 and stats.n_deduped == 0


class TestCooperativeCancellation:
    def test_fit_stops_before_the_next_basic_model(self):
        """The core contract: a cancel flag set after model i is trained
        stops the fit before model i+1 starts, leaving the ensemble
        unfitted."""
        class FlagAfterFirstCheck:
            def __init__(self):
                self.checks = 0

            def is_set(self):
                self.checks += 1
                return self.checks > 1         # set once model 0 trained

        ensemble = CAEEnsemble(
            CAEConfig(input_dim=2, embed_dim=8, window=8, n_layers=1),
            EnsembleConfig(n_models=3, epochs_per_model=1, seed=0,
                           max_training_windows=64))
        with pytest.raises(TrainingCancelled) as excinfo:
            ensemble.fit(sine_regime(100, seed=7),
                         cancel=FlagAfterFirstCheck())
        assert excinfo.value.models_trained == 1
        assert ensemble.models == []           # unfitted, old gen serves

    def test_preset_flag_cancels_before_any_training(self):
        flag = threading.Event()
        flag.set()
        ensemble = CAEEnsemble(
            CAEConfig(input_dim=2, embed_dim=8, window=8, n_layers=1),
            EnsembleConfig(n_models=2, epochs_per_model=1, seed=0))
        with pytest.raises(TrainingCancelled) as excinfo:
            ensemble.fit(sine_regime(100, seed=7), cancel=flag)
        assert excinfo.value.models_trained == 0

    def test_abandoned_build_is_cancelled_mid_flight(self,
                                                     stream_ensemble):
        """When the last subscriber discards its request, the running
        build's cancel flag is set and the build resolves cancelled —
        its result never fans out and the stream keeps the old model."""
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        gate = threading.Event()
        detector, refresher = make_coordinated_detector(
            stream_ensemble, coordinator, gate,
            refresher_cls=CancelAwareRefresher)
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        handle = detector.pending_refresh
        assert handle is not None and handle.in_flight

        abandoned = detector.refresh_worker.discard()
        assert abandoned is handle
        gate.set()                    # the build now observes the flag
        assert handle.wait(GATE_TIMEOUT)
        assert coordinator.drain(GATE_TIMEOUT)
        stats = coordinator.stats()
        assert stats.n_cancelled == 1
        assert stats.n_completed == 0
        assert handle.status == "discarded"
        assert detector.ensemble is stream_ensemble
        assert detector.n_refreshes == 0

    def test_queued_build_is_dequeued_without_ever_running(
            self, stream_ensemble, second_ensemble):
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        gate = threading.Event()
        running, _ = make_coordinated_detector(stream_ensemble,
                                               coordinator, gate)
        queued, queued_refresher = make_coordinated_detector(
            second_ensemble, coordinator, gate)
        stream = sine_regime(40, start=360)
        running.update_batch(stream)
        queued.update_batch(stream)
        assert coordinator.stats().n_queued == 1

        queued.refresh_worker.discard()
        stats = coordinator.stats()
        assert stats.n_queued == 0 and stats.n_cancelled == 1
        gate.set()
        assert running.wait_for_refresh(GATE_TIMEOUT)
        # The dequeued build never trained, and the report only counts
        # builds that actually started.
        assert queued_refresher.build_calls == []
        report = fleet_refresh_report(coordinator)
        assert report.n_requests == 2 and report.n_builds == 1
        assert report.n_cancelled == 1

    def test_dedup_never_joins_a_doomed_build(self, stream_ensemble):
        """Regression: a build whose last subscriber discarded it has
        its cancel flag set but may still read 'building' until the
        thread observes the flag — a new request for the same ensemble
        must start a fresh build, not join the doomed one (whose result
        will never fan out)."""
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        gate = threading.Event()
        first, first_refresher = make_coordinated_detector(
            stream_ensemble, coordinator, gate,
            refresher_cls=CancelAwareRefresher)
        first.update_batch(sine_regime(40, start=360))
        assert wait_build_started(first_refresher)
        doomed = first.refresh_worker.discard()   # cancel flag set,
        assert doomed.status == "discarded"       # thread still gated

        second, second_refresher = make_coordinated_detector(
            stream_ensemble, coordinator, gate,
            refresher_cls=CancelAwareRefresher)
        second.update_batch(sine_regime(40, start=360))
        stats = coordinator.stats()
        assert stats.n_deduped == 0               # did NOT join
        assert stats.n_queued == 1                # fresh build, capped

        gate.set()
        assert second.wait_for_refresh(GATE_TIMEOUT)
        assert second.n_refreshes == 1            # drift answered
        assert coordinator.drain(GATE_TIMEOUT)
        final = coordinator.stats()
        assert final.n_cancelled == 1 and final.n_completed == 1

    def test_direct_coordinator_shutdown_restores_requests_at_boundary(
            self, stream_ensemble):
        """Regression: coordinator.shutdown() called directly (not via
        StreamFleet.shutdown) discards subscriber handles; the engine
        must turn that back into a pending request at its next update
        boundary instead of losing the drift."""
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        gate = threading.Event()
        detector, refresher = make_coordinated_detector(
            stream_ensemble, coordinator, gate,
            refresher_cls=CancelAwareRefresher)
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        assert not detector._pending_refresh      # cleared at submit

        coordinator.shutdown()
        gate.set()
        assert coordinator.drain(GATE_TIMEOUT)
        update = detector.update(sine_regime(1, start=400)[0])
        assert update.score is not None           # serving unaffected
        assert detector._pending_refresh          # request restored
        detector.drift_detector = None            # stubs can't checkpoint
        assert detector.state_dict()["pending_refresh"]

    def test_checkpoint_right_after_direct_shutdown_keeps_the_request(
            self, stream_ensemble):
        """Regression: a checkpoint taken after coordinator.shutdown()
        but BEFORE the engine's next update boundary must still record
        the (externally discarded) build as a pending request."""
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        gate = threading.Event()
        refresher = CancelAwareRefresher(
            ConstantEnsemble(5.0, stream_ensemble.cae_config), gate)
        detector = StreamingDetector(stream_ensemble, refresher=refresher,
                                     history=64, refresh_mode="async",
                                     coordinator=coordinator)
        detector.warm_up(sine_regime(7, start=353))
        detector._pending_refresh = True          # a confirmed drift
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        assert not detector._pending_refresh      # cleared at submit

        coordinator.shutdown()                    # handle -> discarded
        gate.set()
        assert coordinator.drain(GATE_TIMEOUT)
        # No update boundary has run: state_dict must still see it.
        state = detector.state_dict()
        assert state["pending_refresh"]
        resumed = StreamingDetector.from_state(stream_ensemble, state)
        assert resumed._pending_refresh

    def test_fleet_shutdown_without_coordinator_gates_private_workers(
            self, stream_ensemble):
        """Regression: on a coordinator-less async fleet, shutdown must
        not let the restored request relaunch a private build at the
        very next update."""
        gate = threading.Event()
        refreshers = {}

        def factory(name):
            refresher = SlowRefresher(
                ConstantEnsemble(7.0, stream_ensemble.cae_config), gate)
            refreshers[name] = refresher
            detector = StreamingDetector(stream_ensemble,
                                         drift_detector=FireAt(30),
                                         refresher=refresher, history=64,
                                         refresh_mode="async")
            detector.warm_up(sine_regime(7, start=353))
            return detector

        fleet = StreamFleet(factory)              # no coordinator
        fleet.update_batch("a", sine_regime(40, start=360))
        assert wait_build_started(refreshers["a"])
        fleet.shutdown()
        gate.set()
        assert fleet.detector("a")._pending_refresh
        # Plenty more traffic: no second private build is spawned.
        fleet.update_batch("a", sine_regime(40, start=400))
        assert len(refreshers["a"].build_calls) == 1
        assert fleet.detector("a")._pending_refresh   # still answerable

    def test_shutdown_racing_the_accepting_check_parks_the_request(
            self, stream_ensemble, monkeypatch):
        """Regression: shutdown can land between the engine's accepting
        check and the submit; the raised AdmissionClosed must park the
        request instead of crashing the serving thread."""
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        gate = threading.Event()
        gate.set()
        detector, _ = make_coordinated_detector(stream_ensemble,
                                                coordinator, gate)
        coordinator.shutdown()
        # Simulate the race: the engine still observes open admission.
        monkeypatch.setattr(CoordinatedRefreshClient, "accepting",
                            property(lambda self: True))
        updates = detector.update_batch(sine_regime(40, start=360))
        assert all(update.score is not None for update in updates)
        assert detector.n_refreshes == 0
        assert detector._pending_refresh          # parked, not lost
        assert coordinator.stats().n_requests == 0

    def test_fleet_shutdown_cancels_everything(self, stream_ensemble,
                                               second_ensemble):
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        gate = threading.Event()
        ensembles = {"a": stream_ensemble, "b": second_ensemble}
        refreshers = {}

        def factory(name):
            refresher = CancelAwareRefresher(
                ConstantEnsemble(9.0, stream_ensemble.cae_config), gate)
            refreshers[name] = refresher
            detector = StreamingDetector(ensembles[name],
                                         drift_detector=FireAt(30),
                                         refresher=refresher, history=64,
                                         refresh_mode="async",
                                         coordinator=coordinator)
            detector.warm_up(sine_regime(7, start=353))
            return detector

        fleet = StreamFleet(factory, coordinator=coordinator)
        stream = sine_regime(40, start=360)
        fleet.update_batch("a", stream)      # admitted, held by the gate
        fleet.update_batch("b", stream)      # queued behind the cap
        assert wait_build_started(refreshers["a"])

        fleet.shutdown()
        gate.set()
        assert coordinator.drain(GATE_TIMEOUT)
        stats = coordinator.stats()
        assert stats.n_cancelled == 2 and stats.n_completed == 0
        # The drifts stay answerable: requests were restored per stream.
        assert fleet.detector("a")._pending_refresh
        assert fleet.detector("b")._pending_refresh
        # Scoring still works — the pending request is parked, not
        # re-submitted through the closed queue.
        update = fleet.update("a", sine_regime(1, start=400)[0])
        assert update.score is not None
        assert fleet.detector("a")._pending_refresh
        assert coordinator.stats().n_requests == 2     # nothing new
        # Direct submission against a closed coordinator is an error.
        with pytest.raises(RuntimeError, match="shut down"):
            coordinator.client(refreshers["a"]).submit(
                stream_ensemble, sine_regime(40), trigger_index=1)


class TestFleetCheckpointWithQueuedBuilds:
    def test_save_load_with_running_queued_and_deduped_builds(
            self, stream_ensemble, second_ensemble, tmp_path):
        """The acceptance scenario: a fleet saved while one build runs,
        another is queued, and three streams are deduped subscribers —
        every in-flight build resolves to a per-stream pending request,
        the coordinator's config + counters persist (fleet format v2),
        and the resumed fleet re-runs and re-dedups the builds."""
        ensembles = {"a1": stream_ensemble, "a2": stream_ensemble,
                     "a3": stream_ensemble, "b1": second_ensemble,
                     "b2": second_ensemble}
        names = sorted(ensembles)
        coordinator = RefreshCoordinator(max_concurrent_builds=1)
        gate = threading.Event()
        refreshers = {}

        def make_factory(coord, opened):
            def factory(name):
                refresher = SlowRefresher(
                    ConstantEnsemble(777.0, stream_ensemble.cae_config),
                    opened)
                refreshers[name] = refresher
                detector = StreamingDetector(
                    ensembles[name], refresher=refresher, history=64,
                    refresh_mode="async", coordinator=coord)
                detector.warm_up(sine_regime(7, start=353))
                return detector
            return factory

        fleet = StreamFleet(make_factory(coordinator, gate),
                            coordinator=coordinator)
        stream = sine_regime(40, start=360)
        for name in names:
            detector = fleet.detector(name)
            detector._pending_refresh = True   # a confirmed drift's work
            detector.update_batch(stream)
        assert wait_build_started(refreshers["a1"])
        stats = coordinator.stats()
        # a1 runs; a2/a3 deduped onto it; b1 queued; b2 deduped onto b1.
        assert stats.n_requests == 5 and stats.n_deduped == 3
        assert stats.n_running == 1 and stats.n_queued == 1

        save_fleet(fleet, str(tmp_path / "ckpt"))
        gate.set()                             # release the original

        with open(tmp_path / "ckpt" / "fleet.json") as handle:
            payload = json.load(handle)
        assert payload["format_version"] == 2
        assert payload["coordinator"]["max_concurrent_builds"] == 1
        assert payload["coordinator"]["counters"]["n_deduped"] == 3
        # Two distinct ensembles stored once each, five streams total.
        assert payload["n_ensembles"] == 2
        for name in names:
            assert payload["streams"][name]["state"]["pending_refresh"]

        resumed_gate = threading.Event()       # held: dedup is observable
        resumed_refreshers = []

        def resumed_factory():
            refresher = SlowRefresher(
                ConstantEnsemble(777.0, stream_ensemble.cae_config),
                resumed_gate)
            resumed_refreshers.append(refresher)
            return refresher

        resumed = load_fleet(str(tmp_path / "ckpt"),
                             refresher_factory=resumed_factory)
        assert resumed.coordinator is not None
        assert resumed.coordinator is not coordinator
        assert resumed.coordinator.max_concurrent_builds == 1
        restored_stats = resumed.coordinator.stats()
        assert restored_stats.n_requests == 5      # counters survived
        assert restored_stats.n_deduped == 3
        assert restored_stats.n_running == 0       # queue starts empty
        for name in names:
            detector = resumed.detector(name)
            assert detector.pending_refresh is None    # build discarded
            assert detector._pending_refresh           # request survived
            assert detector.coordinator is resumed.coordinator
        # Shared identity round-tripped: a-streams share one instance.
        assert resumed.detector("a1").ensemble is \
            resumed.detector("a2").ensemble
        assert resumed.detector("b1").ensemble is \
            resumed.detector("b2").ensemble
        assert resumed.detector("a1").ensemble is not \
            resumed.detector("b1").ensemble

        # Driving the resumed fleet re-submits and re-dedups the builds:
        # with the gate held, a1's build runs, a2/a3 join it, b1 queues
        # and b2 joins b1 — the same admission shape as before the save.
        for name in names:
            resumed.update_batch(name, sine_regime(10, start=400))
        mid = resumed.coordinator.stats()
        assert mid.n_requests == 10 and mid.n_deduped == 6
        assert mid.n_running == 1 and mid.n_queued == 1
        resumed_gate.set()
        for name in names:
            assert resumed.detector(name).wait_for_refresh(GATE_TIMEOUT)
            assert resumed.detector(name).n_refreshes == 1
        final = resumed.coordinator.stats()
        assert final.n_admitted == 3           # 1 before + 2 after resume
        assert final.n_completed == 2          # both resumed builds
        assert final.max_concurrent == 1

    def test_new_streams_after_resume_share_the_coordinator(
            self, stream_ensemble, tmp_path):
        """Regression: a detector_factory authored before the resume
        cannot close over the checkpoint's rebuilt coordinator —
        from_state must inject it, or post-resume streams would spawn
        private uncapped workers."""
        coordinator = RefreshCoordinator(max_concurrent_builds=2)

        def factory(name):
            return StreamingDetector(stream_ensemble, history=64,
                                     refresh_mode="async",
                                     coordinator=coordinator)

        fleet = StreamFleet(factory, coordinator=coordinator)
        fleet.warm_up("old", sine_regime(7, start=353))
        fleet.update_batch("old", sine_regime(20, start=360))
        save_fleet(fleet, str(tmp_path / "ckpt"))

        def naive_factory(name):               # knows no coordinator
            return StreamingDetector(stream_ensemble, history=64,
                                     refresh_mode="async")

        resumed = load_fleet(str(tmp_path / "ckpt"),
                             detector_factory=naive_factory)
        assert resumed.coordinator is not None
        fresh = resumed.detector("brand-new")   # first seen post-resume
        assert fresh.coordinator is resumed.coordinator
        assert resumed.detector("old").coordinator is resumed.coordinator

    def test_fleet_v1_checkpoints_still_load(self, stream_ensemble,
                                             tmp_path):
        """A coordinator-less fleet saved today round-trips, and a
        hand-downgraded v1 payload (the pre-coordinator format) loads."""
        from repro.streaming import BurnInMAD, shared_fleet
        fleet = shared_fleet(stream_ensemble,
                             calibrator_factory=lambda: BurnInMAD(20, 8.0),
                             history=64)
        fleet.warm_up("s", sine_regime(7, start=353))
        fleet.update_batch("s", sine_regime(40, start=360))
        save_fleet(fleet, str(tmp_path / "ckpt"))
        path = tmp_path / "ckpt" / "fleet.json"
        payload = json.loads(path.read_text())
        assert payload["coordinator"] is None
        payload["format_version"] = 1
        del payload["coordinator"]
        path.write_text(json.dumps(payload))
        resumed = load_fleet(str(tmp_path / "ckpt"))
        assert resumed.coordinator is None
        tail = sine_regime(20, start=400)
        assert resumed.update_batch("s", tail) == \
            fleet.update_batch("s", tail)

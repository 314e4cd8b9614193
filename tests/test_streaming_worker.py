"""Deterministic concurrency tests for the async refresh path.

A slow-trainer stub whose ``build`` blocks on a ``threading.Event`` makes
the worker's interleavings controllable from the test thread: we can hold
a build open for as long as we like, prove scoring continues against the
old ensemble, then release the gate and observe exactly one atomic swap.
No sleeps, no timing assumptions — every wait is on an event with a
generous timeout that only triggers on genuine deadlock.
"""

import threading

import numpy as np
import pytest

from repro.core import TrainingCancelled
from repro.streaming import (DriftEvent, RefreshCoordinator,
                             StreamingDetector)
from repro.streaming.refresh import RefreshReport
from tests.conftest import sine_regime

GATE_TIMEOUT = 30.0


class ConstantEnsemble:
    """A stand-in replacement ensemble scoring every window the same."""

    def __init__(self, constant, cae_config):
        self.constant = float(constant)
        self.cae_config = cae_config
        self.models = ["fake"]

    def score_windows_last(self, windows):
        return np.full(len(windows), self.constant)


class SlowRefresher:
    """Duck-typed refresher whose build blocks until ``gate`` is set."""

    def __init__(self, replacement, gate):
        self.replacement = replacement
        self.gate = gate
        self.reports = []
        self.build_calls = []
        self.last_refresh_index = None
        self.fail_with = None

    @property
    def n_refreshes(self):
        return len(self.reports)

    def ready(self, history_length, index):
        return True

    def build(self, ensemble, history, index, generation=None,
              trigger_index=None, mode="inline"):
        self.build_calls.append((int(index), mode, generation))
        if not self.gate.wait(GATE_TIMEOUT):
            raise RuntimeError("test gate never opened")
        if self.fail_with is not None:
            raise self.fail_with
        report = RefreshReport(index=int(index),
                               history_length=int(len(history)),
                               train_seconds=0.0, warm_start_fraction=0.0,
                               copied_fraction=0.0,
                               trigger_index=trigger_index, mode=mode)
        return self.replacement, report

    def commit(self, report):
        self.reports.append(report)
        self.last_refresh_index = report.index


class CancelObservingRefresher(SlowRefresher):
    """Gated stub whose build takes the cancel flag and, once its gate
    opens, stops the way :meth:`CAEEnsemble.fit` does if it was set."""

    def __init__(self, replacement, gate):
        super().__init__(replacement, gate)
        self.observed_cancel = False
        self.finished = threading.Event()

    def build(self, ensemble, history, index, generation=None,
              trigger_index=None, mode="inline", cancel=None):
        try:
            result = super().build(ensemble, history, index,
                                   generation=generation,
                                   trigger_index=trigger_index, mode=mode)
            if cancel is not None and cancel.is_set():
                self.observed_cancel = True
                raise TrainingCancelled(0)
            return result
        finally:
            self.finished.set()


class FireAt:
    """Drift stub emitting a confirmed drift at fixed stream positions."""

    def __init__(self, *indices):
        self.pending = set(indices)
        self.resets = 0

    def update(self, score, index):
        if index in self.pending:
            self.pending.discard(index)
            return DriftEvent(index=index, detector="stub", kind="drift",
                              statistic=1.0, threshold=0.0)
        return None

    def reset(self):
        self.resets += 1


def make_async_detector(stream_ensemble, gate, fire_at=(30,),
                        refresh_refire="queue", constant=1234.5):
    replacement = ConstantEnsemble(constant, stream_ensemble.cae_config)
    refresher = SlowRefresher(replacement, gate)
    detector = StreamingDetector(stream_ensemble,
                                 drift_detector=FireAt(*fire_at),
                                 refresher=refresher, history=64,
                                 refresh_mode="async",
                                 refresh_refire=refresh_refire)
    detector.warm_up(sine_regime(7, start=353))
    return detector, refresher, replacement


def wait_build_started(refresher, n=1):
    """Builds are launched synchronously inside update(); the *call* into
    build happens on the worker thread, so give it a moment."""
    deadline = threading.Event()
    for _ in range(3000):
        if len(refresher.build_calls) >= n:
            return True
        deadline.wait(0.01)
    return False


class TestScoringNeverBlocks:
    def test_updates_flow_while_build_is_held_open(self, stream_ensemble):
        gate = threading.Event()
        detector, refresher, replacement = make_async_detector(
            stream_ensemble, gate)
        try:
            stream = sine_regime(120, start=360)
            updates = detector.update_batch(stream[:40])
            assert wait_build_started(refresher)
            handle = detector.pending_refresh
            assert handle is not None and handle.in_flight

            # The build is blocked on the gate; scoring keeps going and
            # keeps coming from the OLD ensemble.
            more = detector.update_batch(stream[40:80])
            scalars = [detector.update(x) for x in stream[80:90]]
            assert all(u.score is not None for u in more + scalars)
            assert all(u.score != replacement.constant
                       for u in more + scalars)
            assert not any(u.refreshed for u in updates + more + scalars)
            assert detector.ensemble is stream_ensemble
            assert detector.n_refreshes == 0
            assert detector.pending_refresh is handle      # still building
        finally:
            gate.set()

    def test_worker_hooks_fire_on_the_worker_thread(self, stream_ensemble):
        gate = threading.Event()
        gate.set()                                     # build is instant
        detector, refresher, _ = make_async_detector(stream_ensemble, gate)
        # Pre-create the private coordinator's client so the event hooks
        # are attached before the first build is submitted.
        coordinator = RefreshCoordinator()
        detector._worker = coordinator.client(refresher, on_refire="queue")
        events = []
        main_thread = threading.current_thread().name
        coordinator.on_build_start = lambda build: events.append(
            ("start", build.payload.trigger_index,
             threading.current_thread().name))
        coordinator.on_build_done = lambda build: events.append(
            ("done", build.status, threading.current_thread().name))
        detector.update_batch(sine_regime(31, start=360))
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert [e[:2] for e in events] == [("start", 30), ("done", "ready")]
        assert all(thread != main_thread for *_, thread in events)


class TestAtomicSwap:
    def test_swap_happens_exactly_once_at_a_boundary(self, stream_ensemble):
        gate = threading.Event()
        detector, refresher, replacement = make_async_detector(
            stream_ensemble, gate)
        stream = sine_regime(200, start=360)
        detector.update_batch(stream[:40])
        assert wait_build_started(refresher)
        handle = detector.pending_refresh

        gate.set()
        assert handle.wait(GATE_TIMEOUT)
        assert handle.ready
        # The build being ready does NOT swap mid-stream state: the swap
        # waits for the next update boundary.
        assert detector.ensemble is stream_ensemble
        assert detector.n_refreshes == 0

        updates = detector.update_batch(stream[40:80])
        assert detector.ensemble is replacement
        assert handle.status == "swapped"
        assert detector.n_refreshes == 1
        assert len(refresher.reports) == 1                 # one commit
        # The first arrival after the swap is marked, and its score (and
        # all of the batch's) comes from the replacement.
        assert updates[0].refreshed
        assert sum(u.refreshed for u in updates) == 1
        assert all(u.score == replacement.constant for u in updates)
        # Swap index was stamped at the boundary, after 40 arrivals.
        report = refresher.reports[0]
        assert report.index == 40
        assert report.trigger_index == 30
        assert report.mode == "async"

        # No second swap ever happens for the same build.
        later = detector.update_batch(stream[80:120])
        assert not any(u.refreshed for u in later)
        assert detector.n_refreshes == 1

    def test_poll_refresh_is_an_explicit_boundary(self, stream_ensemble):
        gate = threading.Event()
        detector, refresher, replacement = make_async_detector(
            stream_ensemble, gate)
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        assert not detector.poll_refresh()             # build still held
        gate.set()
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        assert detector.poll_refresh()                 # idle-stream swap
        assert not detector.poll_refresh()             # exactly once
        assert detector.ensemble is replacement
        # The swap resets drift state and announces on the next update.
        update = detector.update(sine_regime(1, start=400)[0])
        assert update.refreshed

    def test_wait_for_refresh_blocks_until_the_swap(self, stream_ensemble):
        gate = threading.Event()
        detector, refresher, replacement = make_async_detector(
            stream_ensemble, gate)
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        assert not detector.wait_for_refresh(timeout=0.05)  # gate closed
        gate.set()
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert detector.ensemble is replacement
        assert not detector.wait_for_refresh(timeout=0.05)  # nothing left

    def test_failed_build_raises_at_the_boundary(self, stream_ensemble):
        gate = threading.Event()
        detector, refresher, _ = make_async_detector(stream_ensemble, gate)
        refresher.fail_with = ValueError("synthetic training failure")
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        gate.set()
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        with pytest.raises(RuntimeError, match="async ensemble refresh"):
            detector.update(sine_regime(1, start=400)[0])
        # The failure is consumed but the drift's request survives (the
        # same resolution a checkpoint of the failed build gets), so a
        # recovered refresher can still answer it; serving continues on
        # the old ensemble meanwhile.
        refresher.fail_with = None             # trainer recovers
        update = detector.update(sine_regime(1, start=401)[0])
        assert update.score is not None
        assert detector.ensemble is stream_ensemble
        assert wait_build_started(refresher, n=2)   # retry launched
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert detector.n_refreshes == 1


class TestRefirePolicy:
    def test_drop_discards_triggers_that_fire_mid_build(
            self, stream_ensemble):
        gate = threading.Event()
        detector, refresher, replacement = make_async_detector(
            stream_ensemble, gate, fire_at=(30, 50),
            refresh_refire="drop")
        stream = sine_regime(200, start=360)
        detector.update_batch(stream[:40])
        assert wait_build_started(refresher)
        # Second drift at 50 fires while the build is held open: dropped.
        detector.update_batch(stream[40:60])
        gate.set()
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        detector.update_batch(stream[60:100])              # swap boundary
        assert detector.n_refreshes == 1
        # Plenty more traffic: no second build ever starts.
        detector.update_batch(stream[100:160])
        assert len(refresher.build_calls) == 1
        assert detector.n_refreshes == 1

    def test_queue_runs_a_follow_up_build_after_the_swap(
            self, stream_ensemble):
        gate = threading.Event()
        detector, refresher, replacement = make_async_detector(
            stream_ensemble, gate, fire_at=(30, 50),
            refresh_refire="queue")
        stream = sine_regime(200, start=360)
        detector.update_batch(stream[:40])
        assert wait_build_started(refresher)
        # Second drift at 50 fires mid-build: queued, not dropped — and
        # no second build starts while the first is in flight.
        detector.update_batch(stream[40:60])
        assert len(refresher.build_calls) == 1
        gate.set()                    # also lets the follow-up build run
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        detector.update_batch(stream[60:100])   # swap #1 + queued submit
        assert detector.n_refreshes == 1
        assert wait_build_started(refresher, n=2)
        assert detector.pending_refresh is not None
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        detector.update_batch(stream[100:140])             # swap #2
        assert detector.n_refreshes == 2
        assert len(refresher.build_calls) == 2
        # The follow-up build's corpus is post-swap history: it was
        # snapshotted after the first swap's arrivals.
        assert refresher.reports[1].trigger_index == 50

    def test_drop_policy_still_registers_triggers_after_a_failed_build(
            self, stream_ensemble):
        """Drop only makes sense while the in-flight build can still
        deliver; once it has FAILED, a new drift trigger must register
        rather than vanish with nothing to answer the regime change."""
        gate = threading.Event()
        detector, refresher, _ = make_async_detector(
            stream_ensemble, gate, refresh_refire="drop")
        refresher.fail_with = ValueError("synthetic training failure")
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        # While genuinely building, drop applies.
        detector._request_refresh(41)
        assert not detector._pending_refresh
        gate.set()
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        assert detector.pending_refresh.status == "failed"
        # After the failure, a re-fire is kept.
        detector._request_refresh(45)
        assert detector._pending_refresh
        assert detector._pending_trigger_index == 45

    def test_invalid_refire_policy_rejected(self, stream_ensemble):
        with pytest.raises(ValueError):
            RefreshCoordinator().client(object(), on_refire="retry")
        with pytest.raises(ValueError):
            StreamingDetector(stream_ensemble, history=64,
                              refresh_mode="sometimes")
        with pytest.raises(ValueError):
            StreamingDetector(stream_ensemble, history=64,
                              refresh_refire="retry")

    def test_undersized_history_buffer_rejected(self, stream_ensemble):
        """The adopt-a-buffer path must enforce the same minimum capacity
        as direct construction — a corpus that can never fill a training
        window would leave refresh requests pending forever."""
        from repro.streaming import HistoryBuffer
        window = stream_ensemble.cae_config.window
        with pytest.raises(ValueError, match="at least one window"):
            StreamingDetector(stream_ensemble,
                              history_buffer=HistoryBuffer(window - 1, 2))
        with pytest.raises(ValueError, match="dims"):
            StreamingDetector(stream_ensemble,
                              history_buffer=HistoryBuffer(64, 3))

    def test_raising_start_hook_fails_the_build_instead_of_wedging(
            self, stream_ensemble):
        """A broken telemetry hook must resolve the handle (failed, done
        set) so the pipeline can retry — never leave it building forever."""
        gate = threading.Event()
        gate.set()
        detector, refresher, _ = make_async_detector(stream_ensemble, gate)
        coordinator = RefreshCoordinator()
        detector._worker = coordinator.client(refresher, on_refire="queue")

        def broken_hook(build):
            raise RuntimeError("telemetry exploded")

        coordinator.on_build_start = broken_hook
        detector.update_batch(sine_regime(40, start=360))
        handle = detector.pending_refresh
        assert handle is not None
        assert handle.wait(GATE_TIMEOUT)       # resolved, not wedged
        assert handle.status == "failed"
        with pytest.raises(RuntimeError, match="async ensemble refresh"):
            detector.poll_refresh()
        # The request survived the hook failure; a fixed hook retries it.
        coordinator.on_build_start = None
        assert detector._pending_refresh
        detector.update_batch(sine_regime(10, start=400))
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert detector.n_refreshes == 1


class TestResumeSemantics:
    @staticmethod
    def make_checkpointable_detector(stream_ensemble, gate, constant=42.0):
        """Async detector with no drift stub (stubs cannot checkpoint);
        refreshes are triggered by setting the pending flag directly."""
        replacement = ConstantEnsemble(constant,
                                       stream_ensemble.cae_config)
        refresher = SlowRefresher(replacement, gate)
        detector = StreamingDetector(stream_ensemble, refresher=refresher,
                                     history=64, refresh_mode="async")
        detector.warm_up(sine_regime(7, start=353))
        return detector, refresher, replacement

    def test_resumed_detector_builds_with_committed_generation(
            self, stream_ensemble):
        """Regression: the build's seed generation must come from the
        detector's committed refresh count, which survives checkpointing
        — not from the refresher's own report list, which starts empty
        again when a fresh policy object is attached on resume."""
        gate = threading.Event()
        gate.set()
        detector, refresher, replacement = \
            self.make_checkpointable_detector(stream_ensemble, gate)
        detector._pending_refresh = True
        detector.update_batch(sine_regime(40, start=360))
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert detector.n_refreshes == 1
        assert refresher.build_calls[0][2] == 0

        state = detector.state_dict()
        fresh = SlowRefresher(replacement, gate)       # empty report list
        resumed = StreamingDetector.from_state(stream_ensemble, state,
                                               refresher=fresh)
        resumed._pending_refresh = True                # next drift's work
        resumed.update_batch(sine_regime(20, start=400))
        assert wait_build_started(fresh)
        # Generation 1 (one committed refresh), although fresh has none.
        assert fresh.build_calls[0][2] == 1

    def test_announce_flag_survives_a_checkpoint(self, stream_ensemble):
        """Regression: a checkpoint taken between a boundary swap and the
        next update still owes callers the refreshed=True marker."""
        gate = threading.Event()
        gate.set()
        detector, refresher, replacement = \
            self.make_checkpointable_detector(stream_ensemble, gate)
        detector._pending_refresh = True
        detector.update_batch(sine_regime(40, start=360))
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        assert detector.poll_refresh()                 # swap, no update yet
        state = detector.state_dict()
        resumed = StreamingDetector.from_state(stream_ensemble, state)
        update = resumed.update(sine_regime(1, start=400)[0])
        assert update.refreshed
        # Consumed exactly once, like the uninterrupted run.
        again = resumed.update(sine_regime(1, start=401)[0])
        assert not again.refreshed

    def test_replacing_the_refresher_abandons_its_build(
            self, stream_ensemble):
        """Regression: attaching a new refresher mid-build must discard
        the old policy's in-flight build instead of leaving two builds
        racing — but the refresh *request* survives onto the new
        refresher (same contract as checkpointing mid-build)."""
        gate = threading.Event()
        detector, refresher, replacement = make_async_detector(
            stream_ensemble, gate)
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        old_handle = detector.pending_refresh
        assert old_handle.in_flight

        other = SlowRefresher(ConstantEnsemble(
            -1.0, stream_ensemble.cae_config), gate)
        detector.refresher = other
        assert detector.pending_refresh is None
        assert detector._pending_refresh                # request restored
        gate.set()
        assert old_handle.wait(GATE_TIMEOUT)
        assert old_handle.status == "discarded"
        # The abandoned build never swaps or commits ...
        detector.update_batch(sine_regime(20, start=400))
        assert detector.ensemble is stream_ensemble
        assert detector.n_refreshes == 0
        assert refresher.reports == []
        # ... but the restored request runs on the NEW refresher, with
        # the original drift arrival as its trigger.
        assert wait_build_started(other)
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert detector.n_refreshes == 1
        assert detector.refresh_reports[0].trigger_index == 30
        assert detector.ensemble is other.replacement

    def test_replacing_the_refresher_cancels_its_build(
            self, stream_ensemble):
        """Without a fleet coordinator the detector's private coordinator
        forwards ``cancel`` to a refresher that accepts it, so an
        abandoned build stops early instead of training to completion —
        and nothing it produced is ever swapped in."""
        gate = threading.Event()
        replacement = ConstantEnsemble(1234.5, stream_ensemble.cae_config)
        refresher = CancelObservingRefresher(replacement, gate)
        detector = StreamingDetector(stream_ensemble,
                                     drift_detector=FireAt(30),
                                     refresher=refresher, history=64,
                                     refresh_mode="async")
        detector.warm_up(sine_regime(7, start=353))
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        client = detector.refresh_worker

        detector.refresher = None              # discards the held build
        gate.set()
        assert refresher.finished.wait(GATE_TIMEOUT)
        assert refresher.observed_cancel       # stopped, not completed
        # The private coordinator counts the cancellation.
        assert client.coordinator.drain(GATE_TIMEOUT)
        assert client.coordinator.stats().n_cancelled == 1
        detector.update_batch(sine_regime(20, start=400))
        assert detector.ensemble is stream_ensemble
        assert detector.n_refreshes == 0
        assert refresher.reports == []

    def test_detaching_the_refresher_keeps_the_request(
            self, stream_ensemble):
        """Regression: ``detector.refresher = None`` mid-build abandons
        the build but must keep the refresh request on the detector, so
        a refresher attached later still answers the drift."""
        gate = threading.Event()
        detector, refresher, replacement = make_async_detector(
            stream_ensemble, gate)
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        detector.refresher = None              # pause refreshes
        assert detector.pending_refresh is None
        assert detector._pending_refresh
        gate.set()
        detector.update_batch(sine_regime(10, start=400))
        assert detector.n_refreshes == 0       # detached: nothing runs
        other = SlowRefresher(ConstantEnsemble(
            -2.0, stream_ensemble.cae_config), gate)
        detector.refresher = other             # resume refreshes
        detector.update_batch(sine_regime(10, start=410))
        assert wait_build_started(other)
        assert detector.wait_for_refresh(GATE_TIMEOUT)
        assert detector.n_refreshes == 1
        assert detector.refresh_reports[0].trigger_index == 30

    def test_failed_build_checkpoints_as_a_pending_request(
            self, stream_ensemble):
        """A build that failed before its error reached a boundary cannot
        persist the exception; the checkpoint records the request as
        pending so the resumed detector retries it."""
        gate = threading.Event()
        detector, refresher, replacement = \
            self.make_checkpointable_detector(stream_ensemble, gate)
        refresher.fail_with = ValueError("synthetic training failure")
        detector._pending_refresh = True
        detector.update_batch(sine_regime(40, start=360))
        assert wait_build_started(refresher)
        gate.set()
        assert detector.pending_refresh.wait(GATE_TIMEOUT)
        assert detector.pending_refresh.status == "failed"

        state = detector.state_dict()
        assert state["pending_refresh"]
        retry = SlowRefresher(replacement, gate)       # healthy this time
        resumed = StreamingDetector.from_state(stream_ensemble, state,
                                               refresher=retry)
        resumed.update_batch(sine_regime(20, start=400))
        assert wait_build_started(retry)
        assert resumed.wait_for_refresh(GATE_TIMEOUT)
        assert resumed.n_refreshes == 1

"""Deterministic cross-process battery for the ``repro.runtime`` stack.

Same methodology as ``test_streaming_worker`` / ``test_streaming_
coordinator``, one process boundary further out: the slow-trainer stub
blocks on a ``multiprocessing.Event`` and reports over a
``multiprocessing.Queue``, both fork-inherited into the build workers
through the pool's ``worker_context`` (mp primitives cannot ride inside
a pickled job).  Every interleaving is controlled from the test process
— a build *cannot* finish before the test releases its gate, and the
test *knows* the build started because the worker said so over the
queue.  No sleeps, no timing assumptions; every wait is on an event or
queue with a generous timeout that only fires on genuine deadlock.

The shared-memory pack tests are property-style: random-initialised
ensembles of several geometries must round-trip publish → attach
bit-identically, serve zero-copy (views into the segment, never a
materialised copy), and leave the ``resource_tracker`` books balanced —
a leaked registration is how segments outlive their fleet.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core import TrainingCancelled
from repro.faults import FaultPlan, use_plan
from repro.runtime import (BuildBroker, PackServedEnsemble,
                           ProcessBuildPool, RetryPolicy, TornPackError,
                           attach_pack, list_segments, publish_pack,
                           unlink_pack)
from repro.runtime import shm as shm_mod
from repro.streaming import (CoordinatorStats, RefreshCoordinator,
                             sharded_fleet)
from repro.streaming.refresh import RefreshReport
from tests.conftest import fabricate_ensemble, sine_regime
from tests.test_streaming_worker import ConstantEnsemble

GATE_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Stubs (fixtures `shm_namespace` / `mp_handshake` live in conftest.py,
# shared with test_failure_injection's process-fault battery)
# ----------------------------------------------------------------------
class ProcessGatedRefresher:
    """Slow-trainer stub for build *processes*.

    Instances are pickled through the worker's pipe, so they carry no mp
    primitives — inside the worker, ``build`` looks the gate and the
    handshake queue up from the fork-inherited ``worker_context`` by
    name.  The replacement ensemble also comes from the context (fork
    inheritance again), so no training happens anywhere.
    """

    def __init__(self, tag="build", gate_key="gate", started_key="started"):
        self.tag = tag
        self.gate_key = gate_key
        self.started_key = started_key
        self.n_refreshes = 0

    def ready(self, history_length, index):
        return True

    def build(self, ensemble, history, index, generation=None,
              trigger_index=None, mode="inline", cancel=None):
        from repro.runtime.pool import worker_context
        context = worker_context()
        context[self.started_key].put((os.getpid(), self.tag))
        gate = context[self.gate_key]
        deadline = time.monotonic() + GATE_TIMEOUT
        while not gate.wait(0.01):
            if cancel is not None and cancel.is_set():
                raise TrainingCancelled(0)
            if time.monotonic() > deadline:
                raise RuntimeError("test gate never opened")
        if context.get("fail"):
            raise RuntimeError("injected build failure")
        return self.finish(index, history, trigger_index, mode)

    @staticmethod
    def finish(index, history, trigger_index, mode):
        """The context's replacement with a zero-cost report."""
        from repro.runtime.pool import worker_context
        report = RefreshReport(index=int(index),
                               history_length=int(len(history)),
                               train_seconds=0.0, warm_start_fraction=0.0,
                               copied_fraction=0.0,
                               trigger_index=trigger_index, mode=mode)
        return worker_context()["replacement"], report

    def commit(self, report):
        self.n_refreshes += 1


def wait_started(context, timeout=GATE_TIMEOUT, key="started"):
    return context[key].get(timeout=timeout)


# ----------------------------------------------------------------------
# Shared-memory pack round trips
# ----------------------------------------------------------------------
class TestPackRoundTrip:
    @pytest.mark.parametrize("n_models,n_layers", [(1, 1), (2, 1), (3, 2)])
    def test_publish_attach_bit_identical(self, shm_namespace, n_models,
                                          n_layers):
        """Every exported array — embeddings, folded convs, GLU gates,
        recon head — survives the segment round trip bit-for-bit in
        float64."""
        ensemble = fabricate_ensemble(n_models=n_models, n_layers=n_layers)
        scorer = ensemble.fused_scorer(dtype=np.float64)
        _, arrays = scorer.export_pack()
        manifest = publish_pack(ensemble, generation=7, dtype=np.float64)
        attached = attach_pack(manifest)
        try:
            assert attached.generation == 7
            _, mapped = attached.scorer.export_pack()
            assert sorted(mapped) == sorted(arrays)
            for key in arrays:
                assert mapped[key].dtype == np.float64, key
                assert np.array_equal(mapped[key], arrays[key]), (
                    f"{key} not bit-identical across the segment")
        finally:
            attached.close()
            unlink_pack(manifest)
        assert list_segments(shm_namespace) == []

    def test_attached_views_are_zero_copy_and_read_only(self,
                                                        shm_namespace):
        ensemble = fabricate_ensemble()
        manifest = publish_pack(ensemble, dtype=np.float64)
        attached = attach_pack(manifest)
        try:
            base = np.frombuffer(attached._segment.buf, dtype=np.uint8)
            _, mapped = attached.scorer.export_pack()
            for key, view in mapped.items():
                assert np.shares_memory(view, base), (
                    f"{key} was copied out of the segment")
                assert not view.flags.writeable
            with pytest.raises(ValueError):
                next(iter(mapped.values()))[...] = 0.0
        finally:
            # Views into the buffer pin the mmap — release them before
            # close() or CPython raises "exported pointers exist".
            del base, mapped, view
            attached.close()
            unlink_pack(manifest)

    def test_pack_served_scores_match_ensemble(self, shm_namespace):
        """A process holding only the manifest scores exactly like the
        process holding the full ensemble."""
        ensemble = fabricate_ensemble()
        windows = sine_regime(80, seed=3).reshape(-1, 8, 2)[:8]
        # Mirror the facade's scaling exactly, then score on the local
        # float64 scorer — the pack must reproduce it bit-for-bit.
        scaled = (windows - ensemble.scaler.mean_) / ensemble.scaler.std_
        expected = ensemble.fused_scorer(
            dtype=np.float64).score_windows_last(scaled)
        manifest = publish_pack(ensemble, dtype=np.float64)
        served = PackServedEnsemble(attach_pack(manifest))
        try:
            assert np.array_equal(served.score_windows_last(windows),
                                  expected)
        finally:
            served.close()
            unlink_pack(manifest)

    def test_pack_served_float32_scores_match_ensemble(self, shm_namespace):
        """The float32 twin: a float32 pack takes the causal-suffix fast
        path exactly like the local float32 scorer, and stays within the
        float32 contract of full-width scoring."""
        ensemble = fabricate_ensemble()
        windows = sine_regime(80, seed=3).reshape(-1, 8, 2)[:8]
        scaled = (windows - ensemble.scaler.mean_) / ensemble.scaler.std_
        local = ensemble.fused_scorer(dtype=np.float32)
        expected = local.score_windows_last(scaled)
        manifest = publish_pack(ensemble, dtype=np.float32)
        served = PackServedEnsemble(attach_pack(manifest))
        try:
            assert not served.attached.scorer._exact
            assert np.array_equal(served.score_windows_last(windows),
                                  expected)
            np.testing.assert_allclose(
                expected, local.window_scores(scaled)[:, -1], rtol=1e-5)
        finally:
            served.close()
            unlink_pack(manifest)

    def test_fingerprint_rejects_torn_publish(self, shm_namespace):
        ensemble = fabricate_ensemble()
        manifest = publish_pack(ensemble, dtype=np.float64)
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(name=manifest["segment"])
        shm_mod._unregister(segment.name)
        try:
            offset = manifest["arrays"][-1]["offset"]
            segment.buf[offset] = (segment.buf[offset] + 1) % 256
            with pytest.raises(TornPackError):
                attach_pack(manifest)
        finally:
            segment.close()
            unlink_pack(manifest)
        assert list_segments(shm_namespace) == []

    def test_resource_tracker_books_stay_balanced(self, shm_namespace,
                                                  monkeypatch):
        """CPython registers shm on create *and* attach; an unbalanced
        book means either a tracker KeyError at exit or a segment kept
        alive past its fleet.  Count both sides across a full publish →
        attach → close → unlink lifecycle."""
        from multiprocessing import resource_tracker
        counts = {"register": 0, "unregister": 0}
        real_register = resource_tracker.register
        real_unregister = resource_tracker.unregister

        def counting_register(name, rtype):
            if rtype == "shared_memory":
                counts["register"] += 1
            return real_register(name, rtype)

        def counting_unregister(name, rtype):
            if rtype == "shared_memory":
                counts["unregister"] += 1
            return real_unregister(name, rtype)

        monkeypatch.setattr(resource_tracker, "register",
                            counting_register)
        monkeypatch.setattr(resource_tracker, "unregister",
                            counting_unregister)

        ensemble = fabricate_ensemble()
        manifest = publish_pack(ensemble, dtype=np.float64)
        attached = attach_pack(manifest)
        attached.close()
        assert unlink_pack(manifest)
        assert counts["register"] > 0
        assert counts["register"] == counts["unregister"], counts
        assert list_segments(shm_namespace) == []


# ----------------------------------------------------------------------
# The process build pool behind the coordinator seam
# ----------------------------------------------------------------------
class TestProcessBuildPool:
    def test_build_runs_in_worker_and_attaches_pack(self, shm_namespace,
                                                    mp_handshake):
        ensemble = fabricate_ensemble()
        pool = ProcessBuildPool(n_workers=1, worker_context=mp_handshake)
        coordinator = RefreshCoordinator(max_concurrent_builds=1,
                                         build_runner=pool.build_runner)
        try:
            client = coordinator.client(ProcessGatedRefresher())
            handle = client.submit(ensemble, sine_regime(32, seed=1),
                                   trigger_index=30)
            worker_pid, _ = wait_started(mp_handshake)
            assert worker_pid != os.getpid()
            assert worker_pid in pool.worker_pids()
            assert handle.in_flight          # gate still held
            mp_handshake["gate"].set()
            assert handle.wait(GATE_TIMEOUT)
            taken = client.take()
            assert taken is handle and handle.ready
            assert handle.report.mode == "process"
            scorer = handle.replacement._fused_scorer
            assert scorer is not None
            assert scorer._attached_pack is not None, (
                "replacement should serve the published segment, not a "
                "local re-pack")
            # The attach adopted the replacement's model identity, so the
            # ensemble's own cache check accepts the shared pack.
            assert scorer.matches(handle.replacement.models)
        finally:
            coordinator.shutdown()
            pool.shutdown()
        assert list_segments(shm_namespace) == []

    def test_cancel_mid_build_crosses_the_process_boundary(
            self, shm_namespace, mp_handshake):
        """A coordinator-style cancel (threading.Event in this process)
        must land in the worker as a cooperative TrainingCancelled —
        without the gate ever opening."""
        pool = ProcessBuildPool(n_workers=1, worker_context=mp_handshake)
        cancel = threading.Event()
        outcome = {}

        def run():
            try:
                pool.build_runner(ProcessGatedRefresher(),
                                  fabricate_ensemble(),
                                  sine_regime(32, seed=1), 30,
                                  {"trigger_index": 30}, cancel)
            except TrainingCancelled:
                outcome["cancelled"] = True
            except Exception as error:       # pragma: no cover - diagnostic
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
            wait_started(mp_handshake)
            cancel.set()
            thread.join(GATE_TIMEOUT)
            assert not thread.is_alive()
            assert outcome == {"cancelled": True}
        finally:
            pool.shutdown()
        assert list_segments(shm_namespace) == []

    def test_worker_failure_propagates_original_exception(
            self, shm_namespace, mp_handshake):
        mp_handshake["fail"] = True
        pool = ProcessBuildPool(n_workers=1, worker_context=mp_handshake)
        try:
            mp_handshake["gate"].set()
            with pytest.raises(RuntimeError, match="injected build"):
                pool.build_runner(ProcessGatedRefresher(),
                                  fabricate_ensemble(),
                                  sine_regime(32, seed=1), 30,
                                  {"trigger_index": 30})
        finally:
            pool.shutdown()
        assert list_segments(shm_namespace) == []


# ----------------------------------------------------------------------
# The cross-process broker
# ----------------------------------------------------------------------
class TestBuildBroker:
    def test_dedup_fans_one_build_out_to_both_servers(self, shm_namespace,
                                                      mp_handshake):
        """Two clients on different ports share an ensemble key: one
        build trains, one pack publishes, both handles resolve ready
        with their own trigger indices."""
        broker = BuildBroker(n_ports=2, n_workers=1,
                             worker_context=mp_handshake)
        try:
            ensemble = fabricate_ensemble()
            ensemble._broker_key = "shared-ensemble"
            clients = [broker.coordinator(port).client(
                ProcessGatedRefresher(tag=f"c{port}"))
                for port in (0, 1)]
            handles = [
                clients[0].submit(ensemble, sine_regime(32, seed=1), 150),
                clients[1].submit(ensemble, sine_regime(32, seed=1), 151),
            ]
            wait_started(mp_handshake)
            mp_handshake["gate"].set()
            for client, handle in zip(clients, handles):
                assert client.join(GATE_TIMEOUT)
                assert client.take() is handle and handle.ready
            assert [h.report.trigger_index for h in handles] == [150, 151]
            # Exactly one handshake: the second submit joined the first
            # build instead of training again.
            assert mp_handshake["started"].empty()
            stats = broker.coordinator(0).stats()
            assert stats.n_requests == 2
            assert stats.n_deduped == 1
            assert stats.n_completed == 1
        finally:
            broker.shutdown()
        assert list_segments(shm_namespace) == []

    def test_priority_policy_admits_urgent_builds_first(self,
                                                        shm_namespace,
                                                        mp_handshake):
        """With the queue held open by a running build, later submits are
        admitted by priority, not arrival order."""
        broker = BuildBroker(n_ports=1, n_workers=1,
                             max_concurrent_builds=1, policy="priority",
                             worker_context=mp_handshake)
        try:
            coordinator = broker.coordinator(0)
            history = sine_regime(32, seed=1)

            def submit(tag, priority):
                ensemble = ConstantEnsemble(
                    1.0, fabricate_ensemble().cae_config)
                ensemble._broker_key = tag
                client = coordinator.client(
                    ProcessGatedRefresher(tag=tag), priority=priority)
                handle = client.submit(ensemble, history, 10)
                return client, handle

            first = submit("first", 0)
            _, started_tag = wait_started(mp_handshake)
            assert started_tag == "first"
            low = submit("low", 1)
            high = submit("high", 5)
            mp_handshake["gate"].set()
            order = [started_tag]
            for client, handle in (first, high, low):
                assert client.join(GATE_TIMEOUT)
                assert client.take() is handle and handle.ready
            while not mp_handshake["started"].empty():
                order.append(wait_started(mp_handshake)[1])
            assert order == ["first", "high", "low"]
        finally:
            broker.shutdown()
        assert list_segments(shm_namespace) == []


class TestHostParity:
    """One scripted sequence, hosted two ways: an in-process
    ``RefreshCoordinator`` over a ``ProcessBuildPool``, and a
    ``BuildBroker``'s two ports.  The broker hosts the same coordinator,
    so every request must resolve alike and the ledgers must match."""

    @staticmethod
    def fail_third_job():
        """Fail the first attempt of the worker's third build job (hits
        count per worker: the dedup build, the cancelled one, then the
        retried one)."""
        return FaultPlan().at("pool.build", hit=3, action="error")

    @staticmethod
    def run_script(coordinators, context):
        """A dedup across two subscribers, a cancel of the last
        subscriber, one failed build retried.  Returns each request's
        ``(status, report trigger)`` and the host's final ledger."""
        gate, history = context["gate"], sine_regime(32, seed=1)
        shared = fabricate_ensemble()
        shared._broker_key = "shared"
        other = fabricate_ensemble(seed=3)
        other._broker_key = "other"
        first, second = (coordinator.client(ProcessGatedRefresher())
                         for coordinator in coordinators)
        ledger = coordinators[0].stats
        handles = []

        def resolve(client, handle):
            assert client.join(GATE_TIMEOUT)
            assert client.take() is handle
            handles.append(handle)

        # Dedup: the second subscriber joins the first's running build
        # (the stats round trip queues behind its submit on a broker).
        gate.clear()
        leader = first.submit(shared, history, 10)
        wait_started(context)
        joiner = second.submit(shared, history, 11)
        assert ledger().n_deduped == 1
        gate.set()
        resolve(first, leader)
        resolve(second, joiner)
        # Cancel: the build's only subscriber leaves mid-build.
        gate.clear()
        doomed = first.submit(other, history, 20)
        wait_started(context)
        assert first.discard() is doomed
        handles.append(doomed)
        deadline = time.monotonic() + GATE_TIMEOUT
        while ledger().n_cancelled == 0:
            assert time.monotonic() < deadline, "the cancel never landed"
            time.sleep(0.01)
        # Retry: the armed fault fails the first attempt; the backoff
        # retry builds and resolves the same handle.
        gate.set()
        resolve(second, second.submit(shared, history, 30))
        wait_started(context)          # only the successful attempt
        return ([(handle.status, getattr(handle.report, "trigger_index",
                                         None)) for handle in handles],
                ledger())

    def test_coordinator_and_broker_hosts_resolve_alike(self,
                                                        shm_namespace,
                                                        mp_handshake):
        retry = RetryPolicy(max_retries=1, base_delay=0.001)
        with use_plan(self.fail_third_job()):
            pool = ProcessBuildPool(n_workers=1,
                                    worker_context=mp_handshake)
            coordinator = RefreshCoordinator(
                retry=retry, build_runner=pool.build_runner)
            try:
                in_process = self.run_script([coordinator, coordinator],
                                             mp_handshake)
            finally:
                coordinator.shutdown()
                assert coordinator.drain(GATE_TIMEOUT)
                pool.shutdown()
        assert list_segments(shm_namespace) == []
        with use_plan(self.fail_third_job()):
            broker = BuildBroker(n_ports=2, n_workers=1,
                                 worker_context=mp_handshake, retry=retry)
            try:
                brokered = self.run_script(
                    [broker.coordinator(0), broker.coordinator(1)],
                    mp_handshake)
            finally:
                broker.shutdown()
        assert list_segments(shm_namespace) == []
        assert brokered == in_process
        assert in_process == (
            [("ready", 10), ("ready", 11), ("discarded", None),
             ("ready", 30)],
            CoordinatorStats(n_requests=4, n_deduped=1, n_admitted=3,
                             n_completed=2, n_failed=0, n_cancelled=1,
                             n_queued=0, n_running=0, max_concurrent=1,
                             n_retried=1))


# ----------------------------------------------------------------------
# The sharded fleet facade
# ----------------------------------------------------------------------
class TestShardedFleet:
    def test_routing_is_stable_and_scatter_gather_merges(
            self, shm_namespace, stream_ensemble):
        from repro.runtime import shard_for
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=64)
        try:
            names = [f"server-{i}" for i in range(6)]
            batches = {name: sine_regime(10, start=360) for name in names}
            merged = fleet.update_many(batches)
            assert sorted(merged) == names
            assert all(len(updates) == 10 for updates in merged.values())
            assert fleet.total_observations == 60
            assert fleet.names == names
            # every stream landed on the shard the hash says it must
            for name in names:
                assert fleet.shard_of(name) == shard_for(name, 2)
            telemetry = fleet.telemetry()
            assert telemetry["totals"]["n_streams"] == 6
            assert len(telemetry["shards"]) == 2
            assert sum(s["totals"]["n_streams"]
                       for s in telemetry["shards"]) == 6
            assert [row["name"] for row in telemetry["streams"]] == names
        finally:
            fleet.shutdown()
        assert list_segments(shm_namespace) == []

    def test_checkpoint_restore_round_trip(self, shm_namespace,
                                           stream_ensemble, tmp_path):
        from repro.core import load_sharded_fleet, save_sharded_fleet
        directory = str(tmp_path / "fleet")
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=64)
        try:
            fleet.update_batch("server-1", sine_regime(40, start=360))
            fleet.update_batch("server-2", sine_regime(20, start=360))
            save_sharded_fleet(fleet, directory)
            before = fleet.total_observations
        finally:
            fleet.shutdown()
        resumed = load_sharded_fleet(directory)
        try:
            assert resumed.n_shards == 2
            assert resumed.names == ["server-1", "server-2"]
            assert resumed.total_observations == before
            resumed.update_batch("server-1", sine_regime(5, start=400))
            assert resumed.total_observations == before + 5
        finally:
            resumed.shutdown()
        assert list_segments(shm_namespace) == []

    def test_shard_stats_and_merged_metrics(self, shm_namespace,
                                            stream_ensemble):
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=64)
        try:
            fleet.update_batch("a", sine_regime(30, start=360))
            fleet.update_batch("b", sine_regime(12, start=360))
            stats = fleet.stats()
            assert [s.name for s in stats] == ["a", "b"]
            assert [s.n_observations for s in stats] == [30, 12]
            metrics = fleet.telemetry()["metrics"]
            assert set(metrics) == {"counters", "gauges", "histograms"}
        finally:
            fleet.shutdown()

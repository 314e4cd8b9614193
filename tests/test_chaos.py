"""Chaos battery: seeded fault schedules drive every recovery path.

The methodology extends ``test_failure_injection``'s process-fault
tests from hand-placed ``kill -9`` calls to *scheduled* faults: a
:class:`repro.faults.FaultPlan` arms crashes/errors at named injection
points and exact hit counts, so the same seed reproduces the same
failure at the same instruction, in whichever process reaches it.  The
recovery side — :mod:`repro.runtime.supervisor` policies, shard
respawn, broker failover, in-broker build retry, coordinator
retry/breaker, serving deadlines — is then asserted deterministically:
every wait is event-gated or bounded by a virtual clock, and the
headline test proves post-recovery scores **bit-identical** to a
fault-free run resumed from the same checkpoints.

``REPRO_FAULT_SEED`` (set by the CI chaos lane) seeds the plan; any
failure message carries the seed + plan so the run reproduces exactly.
"""

import asyncio
import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro import faults, obs
from repro.core import load_sharded_fleet
from repro.faults import FaultInjected, FaultPlan, use_plan
from repro.runtime import (BreakerOpen, BuildBroker, CircuitBreaker,
                           RestartPolicy, RetryPolicy, ShardCrashed,
                           attach_pack, list_segments, publish_pack,
                           shard_for, unlink_pack)
from repro.runtime import shm as shm_mod
from repro.serving import DetectionServer, ServingClient, ServingTimeout
from repro.serving.protocol import (read_frame, render_update,
                                    write_frame)
from repro.streaming import RefreshCoordinator, sharded_fleet
from repro.streaming.refresh import RefreshReport
from tests.conftest import fabricate_ensemble, sine_regime
from tests.test_runtime_processes import (GATE_TIMEOUT,
                                          ProcessGatedRefresher,
                                          wait_started)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "1337"))


# ----------------------------------------------------------------------
# Stubs
# ----------------------------------------------------------------------
class CountingRefresher:
    """In-process refresher that fails its first ``fail_first`` builds."""

    def __init__(self, fail_first=0, replacement=None):
        self.fail_first = int(fail_first)
        self.replacement = replacement
        self.calls = 0
        self.n_refreshes = 0

    def ready(self, history_length, index):
        return True

    def build(self, ensemble, history, index, generation=None,
              trigger_index=None, mode="inline", cancel=None):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise RuntimeError(f"transient build failure {self.calls}")
        report = RefreshReport(index=int(index),
                               history_length=int(len(history)),
                               train_seconds=0.0, warm_start_fraction=0.0,
                               copied_fraction=0.0,
                               trigger_index=trigger_index, mode=mode)
        return self.replacement, report

    def commit(self, report):
        self.n_refreshes += 1


class FakeUpdate:
    """Duck-typed StreamUpdate for serving tests over a stub fleet."""

    def __init__(self, index, score):
        self.index = int(index)
        self.score = float(score)
        self.threshold = 1.0
        self.alert = False
        self.drift = None
        self.refreshed = False


class BlockingFleet:
    """Stub fleet whose first flush blocks until :attr:`release` is set
    — the deterministic stand-in for a shard wedged under respawn."""

    def __init__(self):
        self.release = threading.Event()
        self.block_next = True
        self.count = 0

    def update_coalesced(self, batches):
        if self.block_next:
            self.block_next = False
            assert self.release.wait(GATE_TIMEOUT), "never released"
        out = {}
        for name, rows in batches.items():
            n = int(np.asarray(rows).shape[0])
            out[name] = [FakeUpdate(self.count + i, float(i))
                         for i in range(n)]
            self.count += n
        return out

    update_many = update_coalesced

    def warm_up(self, name, series):
        pass

    def telemetry(self):
        return {}


# ----------------------------------------------------------------------
# The fault-injection framework itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_at_fires_at_exact_hit_only(self):
        plan = FaultPlan(shared=False).at("demo.hit", hit=2)
        with use_plan(plan):
            assert faults.point("demo.hit") is None          # hit 1
            with pytest.raises(FaultInjected) as excinfo:
                faults.point("demo.hit")                     # hit 2
            assert excinfo.value.point_name == "demo.hit"
            assert excinfo.value.hit == 2
            assert faults.point("demo.hit") is None          # hit 3
        assert not faults.enabled
        assert faults.point("demo.hit") is None     # disabled: free pass

    def test_schedule_is_seed_deterministic(self):
        points = ["p", "q", "r"]
        a = FaultPlan(seed=FAULT_SEED, shared=False).schedule(
            points, n_faults=5, actions=("error", "crash"))
        b = FaultPlan(seed=FAULT_SEED, shared=False).schedule(
            points, n_faults=5, actions=("error", "crash"))
        assert a.describe() == b.describe()
        assert len(a.describe()["arms"]) == 5
        assert all(arm["point"] in points
                   for arm in a.describe()["arms"])

    def test_site_interpreted_action_is_returned(self):
        plan = FaultPlan(shared=False).at("demo.torn", action="torn")
        with use_plan(plan):
            assert faults.point("demo.torn") == "torn"
            assert plan.fired[0]["action"] == "torn"
            assert plan.hits("demo.torn") == 1

    def test_delay_action_returns_none_after_sleeping(self):
        plan = FaultPlan(shared=False).at("demo.slow", action="delay",
                                          delay=0.0)
        with use_plan(plan):
            assert faults.point("demo.slow") is None

    def test_use_plan_nesting_restores_previous_plan(self):
        outer = FaultPlan(shared=False).at("demo.outer", hit=1)
        inner = FaultPlan(shared=False).at("demo.inner", hit=1)
        with use_plan(outer):
            with use_plan(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
            assert faults.enabled
        assert faults.active_plan() is None
        assert not faults.enabled

    def test_invalid_arm_parameters_rejected(self):
        with pytest.raises(ValueError, match="hit"):
            FaultPlan(shared=False).at("p", hit=0)
        with pytest.raises(ValueError, match="times"):
            FaultPlan(shared=False).at("p", times=0)

    def test_fork_shared_budget_fires_once_tree_wide(self):
        """A child consumes the arm's budget; the parent's own first
        visit must then pass clean — this is what stops a respawned
        process (hit counters reset) from re-firing in a crash loop."""
        ctx = mp.get_context("fork")
        plan = FaultPlan(shared=True).at("demo.shared", hit=1, times=1)
        outcome = ctx.Queue()

        def child():
            outcome.put(plan.visit("demo.shared"))

        process = ctx.Process(target=child)
        process.start()
        process.join(GATE_TIMEOUT)
        assert process.exitcode == 0
        assert outcome.get(timeout=GATE_TIMEOUT) == "error"
        assert plan.visit("demo.shared") is None    # budget spent

    def test_local_budget_plan_fires_per_plan_not_per_tree(self):
        plan = FaultPlan(shared=False).at("demo.local", hit=1, times=2)
        assert plan.visit("demo.local") == "error"
        # Same hit in a "new process" (simulated by a second plan built
        # the same way) has its own budget.
        again = FaultPlan(shared=False).at("demo.local", hit=1, times=2)
        assert again.visit("demo.local") == "error"


# ----------------------------------------------------------------------
# Supervision policies (virtual clocks; the doctests cover the basics)
# ----------------------------------------------------------------------
class TestSupervisorPolicies:
    def test_retry_policy_exponential_without_jitter(self):
        policy = RetryPolicy(max_retries=5, base_delay=0.1, max_delay=0.5,
                             jitter=False)
        assert [policy.delay_for(a) for a in range(5)] == \
            [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_retry_policy_seeded_jitter_deterministic(self):
        a = RetryPolicy(base_delay=1.0, seed=FAULT_SEED)
        b = RetryPolicy(base_delay=1.0, seed=FAULT_SEED)
        draws_a = [a.delay_for(k) for k in range(8)]
        draws_b = [b.delay_for(k) for k in range(8)]
        assert draws_a == draws_b
        assert all(0.0 <= d <= 2.0 for d in draws_a)

    def test_breaker_failed_probe_reopens_and_recools(self):
        clock = [0.0]
        transitions = []
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                                 clock=lambda: clock[0],
                                 on_transition=transitions.append)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        clock[0] = 11.0
        assert breaker.allow()                  # claims the probe
        assert breaker.state == "half_open"
        breaker.record_failure()                # probe failed
        assert breaker.state == "open"
        clock[0] = 20.0                         # cooldown restarted at 11
        assert not breaker.allow()
        clock[0] = 21.5
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert transitions == ["open", "half_open", "open", "half_open",
                               "closed"]

    def test_restart_policy_recent_and_clone_are_independent(self):
        clock = [0.0]
        policy = RestartPolicy(max_restarts=2, window=60.0,
                               clock=lambda: clock[0])
        assert policy.allow() and policy.allow()
        assert policy.recent() == 2
        sibling = policy.clone()
        assert sibling.recent() == 0            # fresh budget
        assert sibling.allow()
        clock[0] = 120.0
        assert policy.recent() == 0             # window slid past


# ----------------------------------------------------------------------
# Coordinator retry + circuit breaker (in-process, thread builds only)
# ----------------------------------------------------------------------
class TestCoordinatorRetry:
    def run_build(self, coordinator, refresher, ensemble=None):
        ensemble = fabricate_ensemble() if ensemble is None else ensemble
        client = coordinator.client(refresher)
        handle = client.submit(ensemble, sine_regime(32, seed=1), 10)
        assert client.join(GATE_TIMEOUT)
        assert client.take() is handle
        return handle

    def test_transient_failure_retried_to_success(self):
        registry = obs.MetricsRegistry()
        obs.set_default_registry(registry)
        coordinator = RefreshCoordinator(
            retry=RetryPolicy(max_retries=2, base_delay=0.0, jitter=False))
        try:
            refresher = CountingRefresher(
                fail_first=2, replacement=fabricate_ensemble(seed=5))
            handle = self.run_build(coordinator, refresher)
            assert handle.ready
            assert refresher.calls == 3         # 1 attempt + 2 retries
            stats = coordinator.stats()
            assert stats.n_retried == 2
            assert stats.n_failed == 0
            assert registry.counter(
                "repro_coordinator_retried_total").value == 2
        finally:
            coordinator.shutdown()

    def test_retry_budget_exhausted_fails_with_original_error(self):
        coordinator = RefreshCoordinator(
            retry=RetryPolicy(max_retries=1, base_delay=0.0, jitter=False))
        try:
            refresher = CountingRefresher(fail_first=10)
            handle = self.run_build(coordinator, refresher)
            assert handle.status == "failed"
            assert "transient build failure" in str(handle.error)
            assert refresher.calls == 2         # 1 attempt + 1 retry
            assert coordinator.stats().n_retried == 1
        finally:
            coordinator.shutdown()

    def test_no_retry_policy_keeps_fail_fast_behaviour(self):
        coordinator = RefreshCoordinator()
        try:
            refresher = CountingRefresher(fail_first=1)
            handle = self.run_build(coordinator, refresher)
            assert handle.status == "failed"
            assert refresher.calls == 1
            assert coordinator.stats().n_retried == 0
        finally:
            coordinator.shutdown()

    def test_injected_build_fault_is_retried(self):
        """The ``coordinator.build`` hook composes with the retry loop:
        a scheduled one-shot fault costs one retry, not the build."""
        plan = FaultPlan(shared=False).at("coordinator.build", hit=1)
        coordinator = RefreshCoordinator(
            retry=RetryPolicy(max_retries=1, base_delay=0.0, jitter=False))
        try:
            with use_plan(plan):
                refresher = CountingRefresher(
                    replacement=fabricate_ensemble(seed=5))
                handle = self.run_build(coordinator, refresher)
            assert handle.ready
            assert refresher.calls == 1         # fault fired before build
            assert coordinator.stats().n_retried == 1
        finally:
            coordinator.shutdown()

    def test_n_retried_survives_state_round_trip(self):
        coordinator = RefreshCoordinator(
            retry=RetryPolicy(max_retries=1, base_delay=0.0, jitter=False))
        try:
            self.run_build(coordinator, CountingRefresher(
                fail_first=1, replacement=fabricate_ensemble(seed=5)))
            state = coordinator.state_dict()
        finally:
            coordinator.shutdown()
        resumed = RefreshCoordinator.from_state(state)
        try:
            assert resumed.stats().n_retried == 1
        finally:
            resumed.shutdown()


class TestCoordinatorBreaker:
    def make(self, clock, threshold=2, cooldown=30.0):
        registry = obs.MetricsRegistry()
        obs.set_default_registry(registry)
        coordinator = RefreshCoordinator(
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=threshold, cooldown=cooldown,
                clock=lambda: clock[0]))
        return coordinator, registry

    def test_breaker_opens_and_rejects_without_building(self):
        clock = [0.0]
        coordinator, registry = self.make(clock)
        ensemble = fabricate_ensemble()
        runner = TestCoordinatorRetry()
        try:
            for _ in range(2):
                handle = runner.run_build(
                    coordinator, CountingRefresher(fail_first=1), ensemble)
                assert handle.status == "failed"
            rejected = CountingRefresher(
                replacement=fabricate_ensemble(seed=5))
            handle = runner.run_build(coordinator, rejected, ensemble)
            assert handle.status == "failed"
            assert isinstance(handle.error, BreakerOpen)
            assert rejected.calls == 0          # refused before building
            assert registry.gauge("repro_breaker_state").value == 1  # open
            assert registry.counter(
                "repro_coordinator_breaker_rejected_total").value == 1
        finally:
            coordinator.shutdown()

    def test_half_open_probe_closes_breaker_on_success(self):
        clock = [0.0]
        coordinator, registry = self.make(clock)
        ensemble = fabricate_ensemble()
        runner = TestCoordinatorRetry()
        try:
            for _ in range(2):
                runner.run_build(coordinator,
                                 CountingRefresher(fail_first=1), ensemble)
            clock[0] = 31.0                     # cooldown elapsed: probe
            probe = CountingRefresher(replacement=fabricate_ensemble(seed=5))
            handle = runner.run_build(coordinator, probe, ensemble)
            assert handle.ready and probe.calls == 1
            assert registry.gauge("repro_breaker_state").value == 0
            # Fully closed again: the next build is admitted normally.
            again = CountingRefresher(replacement=fabricate_ensemble(seed=6))
            assert runner.run_build(coordinator, again, ensemble).ready
        finally:
            coordinator.shutdown()

    def test_breakers_are_per_ensemble(self):
        clock = [0.0]
        coordinator, _ = self.make(clock)
        runner = TestCoordinatorRetry()
        sick = fabricate_ensemble(seed=1)
        healthy = fabricate_ensemble(seed=2)
        try:
            for _ in range(2):
                runner.run_build(coordinator,
                                 CountingRefresher(fail_first=1), sick)
            blocked = runner.run_build(
                coordinator, CountingRefresher(
                    replacement=fabricate_ensemble(seed=5)), sick)
            assert isinstance(blocked.error, BreakerOpen)
            fine = runner.run_build(
                coordinator, CountingRefresher(
                    replacement=fabricate_ensemble(seed=6)), healthy)
            assert fine.ready                   # other ensemble unaffected
        finally:
            coordinator.shutdown()


# ----------------------------------------------------------------------
# Shard supervision: respawn, checkpoint recovery, quarantine
# ----------------------------------------------------------------------
def stream_on_shard(shard, n_shards, tag="s"):
    index = 0
    while True:
        name = f"{tag}{index}"
        if shard_for(name, n_shards) == shard:
            return name
        index += 1


class TestShardSupervision:
    def test_unsupervised_crash_still_raises(self, shm_namespace,
                                             stream_ensemble):
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=64)
        try:
            name = stream_on_shard(0, 2)
            fleet.update_batch(name, sine_regime(8, start=360))
            os.kill(fleet.worker_pids()[0], 9)
            with pytest.raises(ShardCrashed):
                fleet.update_batch(name, sine_regime(8, start=368))
        finally:
            fleet.shutdown()

    def test_respawn_recovers_from_last_checkpoint(self, shm_namespace,
                                                   stream_ensemble,
                                                   tmp_path):
        """Crash-consistent recovery: updates since the checkpoint are
        lost, the retried request applies on the restored state, and the
        recovery is visible in health()/telemetry()."""
        registry = obs.MetricsRegistry()
        obs.set_default_registry(registry)
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=64,
                              restart=RestartPolicy(max_restarts=2,
                                                    window=300.0))
        try:
            name = stream_on_shard(0, 2)
            fleet.update_batch(name, sine_regime(10, start=360))
            fleet.checkpoint(str(tmp_path / "ckpt"))
            fleet.update_batch(name, sine_regime(5, start=370))  # lost
            victim = fleet.worker_pids()[0]
            os.kill(victim, 9)
            updates = fleet.update_batch(name, sine_regime(3, start=375))
            assert len(updates) == 3            # retried transparently
            assert fleet.worker_pids()[0] != victim
            stat = next(s for s in fleet.stats() if s.name == name)
            assert stat.n_observations == 13    # 10 checkpointed + 3
            health = fleet.health()
            assert health["state"] == "degraded"
            assert health["restarts"] == {0: 1}
            assert health["recent_restarts"] == 1
            assert health["shards"][0]["status"] == "up"
            assert fleet.telemetry()["supervision"]["restarts"] == {0: 1}
            assert registry.counter("repro_restarts_total",
                                    component="shard").value == 1
        finally:
            fleet.shutdown()

    def test_respawn_without_checkpoint_rebuilds_from_factory(
            self, shm_namespace, stream_ensemble):
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=64,
                              restart=RestartPolicy(max_restarts=2,
                                                    window=300.0))
        try:
            name = stream_on_shard(1, 2)
            fleet.update_batch(name, sine_regime(10, start=360))
            os.kill(fleet.worker_pids()[1], 9)
            updates = fleet.update_batch(name, sine_regime(4, start=370))
            assert len(updates) == 4
            stat = next(s for s in fleet.stats() if s.name == name)
            assert stat.n_observations == 4     # fresh factory: no state
        finally:
            fleet.shutdown()

    def test_quarantine_after_exhausted_budget(self, shm_namespace,
                                               stream_ensemble):
        """A shard over its restart budget is fenced off; the rest of
        the fleet keeps serving and telemetry keeps answering."""
        registry = obs.MetricsRegistry()
        obs.set_default_registry(registry)
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=64,
                              restart=RestartPolicy(max_restarts=0,
                                                    window=300.0))
        try:
            sick = stream_on_shard(0, 2, tag="sick")
            fine = stream_on_shard(1, 2, tag="fine")
            os.kill(fleet.worker_pids()[0], 9)
            with pytest.raises(ShardCrashed, match="quarantined"):
                fleet.update_batch(sick, sine_regime(3, start=360))
            with pytest.raises(ShardCrashed, match="quarantined"):
                fleet.update_batch(sick, sine_regime(3, start=363))
            assert len(fleet.update_batch(
                fine, sine_regime(3, start=360))) == 3
            health = fleet.health()
            assert health["state"] == "degraded"
            assert health["quarantined"] == [0]
            assert health["shards"][0]["status"] == "quarantined"
            telemetry = fleet.telemetry()   # skips the quarantined shard
            assert [s["index"] for s in telemetry["shards"]] == [1]
            assert registry.counter(
                "repro_shard_quarantined_total").value == 1
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# Sharded checkpoint validation: fail loudly, name the shard, pre-fork
# ----------------------------------------------------------------------
class TestShardedCheckpointValidation:
    @pytest.fixture
    def sharded_ckpt(self, shm_namespace, stream_ensemble, tmp_path):
        fleet = sharded_fleet(stream_ensemble, n_shards=2, history=64)
        try:
            fleet.update_batch(stream_on_shard(0, 2),
                               sine_regime(8, start=360))
            fleet.checkpoint(str(tmp_path / "ckpt"))
        finally:
            fleet.shutdown()
        return str(tmp_path / "ckpt")

    def test_intact_checkpoint_validates_and_verifies(self, sharded_ckpt):
        from repro.core import validate_sharded_checkpoint, \
            verify_checkpoint
        manifest = validate_sharded_checkpoint(sharded_ckpt)
        assert len(manifest["shards"]) == 2
        assert verify_checkpoint(sharded_ckpt)

    def test_missing_shard_dir_raises_naming_the_shard(
            self, sharded_ckpt, shm_namespace):
        import shutil
        from repro.core import CheckpointError, verify_checkpoint
        shutil.rmtree(os.path.join(sharded_ckpt, "shard_1"))
        with pytest.raises(CheckpointError, match="shard_1"):
            load_sharded_fleet(sharded_ckpt, namespace=shm_namespace)
        assert not verify_checkpoint(sharded_ckpt)
        # Validation runs before any fork: no shard process was spawned.
        assert list_segments(shm_namespace) == []

    def test_partially_deleted_shard_raises_naming_the_shard(
            self, sharded_ckpt, shm_namespace):
        import json
        from repro.core import CheckpointError, verify_checkpoint
        shard_dir = os.path.join(sharded_ckpt, "shard_0")
        with open(os.path.join(shard_dir, "checkpoint.json")) as handle:
            listed = json.load(handle)["files"]
        os.remove(os.path.join(shard_dir, sorted(listed)[-1]))
        with pytest.raises(CheckpointError, match="shard_0"):
            load_sharded_fleet(sharded_ckpt, namespace=shm_namespace)
        assert not verify_checkpoint(sharded_ckpt)

    def test_missing_sharded_manifest_raises(self, sharded_ckpt,
                                             shm_namespace):
        from repro.core import CheckpointError
        os.remove(os.path.join(sharded_ckpt, "sharded.json"))
        with pytest.raises(CheckpointError, match="sharded.json"):
            load_sharded_fleet(sharded_ckpt, namespace=shm_namespace)


# ----------------------------------------------------------------------
# Broker failover + in-broker build retry
# ----------------------------------------------------------------------
class TestBrokerFailover:
    def test_watchdog_restarts_broker_and_port_reattaches(
            self, shm_namespace, mp_handshake):
        """Crash the broker on its first message (the submit): the
        pending handle resolves ``discarded``, the watchdog respawns
        the broker over the same queues, the port re-attaches via the
        shared pid value, and the next submit builds remotely again —
        no degraded-forever.  The crash rides the ``broker.loop`` fault
        point rather than an arbitrary-moment SIGKILL because the point
        fires with the inbox rlock *released*: a kill landing inside
        ``Queue.get()`` would poison the fork-shared lock for the
        respawned broker (the documented crash-safety contract of the
        point's placement)."""
        registry = obs.MetricsRegistry()
        obs.set_default_registry(registry)
        plan = FaultPlan(seed=FAULT_SEED).at("broker.loop", hit=1,
                                             action="crash")
        with use_plan(plan):
            broker = BuildBroker(n_ports=1, n_workers=1,
                                 worker_context=mp_handshake,
                                 restart=RestartPolicy(max_restarts=2,
                                                       window=300.0),
                                 watchdog_interval=0.01)
        try:
            coordinator = broker.coordinator(0)
            ensemble = fabricate_ensemble()
            history = sine_regime(32, seed=1)
            old_pid = broker.pid
            doomed_client = coordinator.client(ProcessGatedRefresher())
            doomed = doomed_client.submit(ensemble, history, 10)
            assert broker.wait_restarted(GATE_TIMEOUT)
            assert broker.pid != old_pid
            assert doomed_client.join(GATE_TIMEOUT)
            assert doomed_client.take() is doomed
            assert doomed.status == "discarded"
            coordinator.port.pump()
            assert not coordinator.port.degraded
            assert coordinator.port.n_reattached == 1
            # The doomed submit died with the broker (never dispatched),
            # so the gate pair is untouched and serves the rebuild.
            mp_handshake["gate"].set()
            retry_client = coordinator.client(ProcessGatedRefresher())
            rebuilt = retry_client.submit(ensemble, history, 20)
            assert retry_client.join(GATE_TIMEOUT)
            assert retry_client.take() is rebuilt and rebuilt.ready
            wait_started(mp_handshake)
            health = broker.health()
            assert health["alive"] and not health["quarantined"]
            assert health["restarts"] == 1
            assert health["recent_restarts"] == 1
            assert registry.counter("repro_restarts_total",
                                    component="broker").value == 1
            assert registry.counter(
                "repro_broker_reattached_total").value == 1
        finally:
            broker.shutdown()
        assert list_segments(shm_namespace) == []

    def test_quarantined_broker_stays_dead(self, shm_namespace,
                                           mp_handshake):
        broker = BuildBroker(n_ports=1, n_workers=1,
                             worker_context=mp_handshake,
                             restart=RestartPolicy(max_restarts=0,
                                                   window=300.0),
                             watchdog_interval=0.01)
        try:
            broker.kill()
            deadline = time.monotonic() + GATE_TIMEOUT
            while not broker.health()["quarantined"]:
                assert time.monotonic() < deadline, "never quarantined"
                time.sleep(0.01)
            assert not broker.alive()
            assert broker.health()["restarts"] == 0
        finally:
            broker.shutdown(timeout=1.0)
        assert list_segments(shm_namespace) == []

    def test_failed_build_retried_in_broker_after_backoff(
            self, shm_namespace, mp_handshake):
        """A scheduled one-shot fault fails the first build attempt in
        the worker; the broker re-queues it behind a jittered backoff
        gate and the second attempt resolves the same handle ready."""
        plan = FaultPlan(seed=FAULT_SEED).at("pool.build", hit=1,
                                             action="error")
        with use_plan(plan):
            broker = BuildBroker(n_ports=1, n_workers=1,
                                 worker_context=mp_handshake,
                                 retry=RetryPolicy(max_retries=1,
                                                   base_delay=0.001))
            try:
                mp_handshake["gate"].set()
                coordinator = broker.coordinator(0)
                client = coordinator.client(ProcessGatedRefresher())
                handle = client.submit(fabricate_ensemble(),
                                       sine_regime(32, seed=1), 10)
                assert client.join(GATE_TIMEOUT)
                assert client.take() is handle and handle.ready
                wait_started(mp_handshake)      # the successful attempt
                stats = coordinator.stats()
                assert stats.n_retried == 1
                assert stats.n_completed == 1
                assert stats.n_failed == 0
            finally:
                broker.shutdown()
        assert list_segments(shm_namespace) == []


# ----------------------------------------------------------------------
# Serving: request deadlines, degraded healthz, client retry/deadline
# ----------------------------------------------------------------------
class TestServingRobustness:
    def test_request_timeout_answers_timeout_and_drops_late_result(self):
        """A wedged flush must answer ``timeout`` at the deadline, the
        late result must be dropped (never desynchronise the framing),
        and the connection must keep serving afterwards."""
        fleet = BlockingFleet()
        registry = obs.MetricsRegistry()
        obs.set_default_registry(registry)

        async def scenario():
            server = DetectionServer(fleet, request_timeout=0.1,
                                     registry=registry)
            await server.start()
            client = await ServingClient.connect("127.0.0.1", server.port)
            timed_out = await client.update_batch(
                "wedged", sine_regime(2, seed=1))
            fleet.release.set()
            after = await client.update_batch(
                "wedged", sine_regime(2, start=2, seed=1))
            await client.close()
            await server.stop()
            return timed_out, after

        timed_out, after = asyncio.run(scenario())
        assert timed_out == {"status": "timeout", "timeout": 0.1,
                             "id": timed_out["id"]}
        assert after["status"] == "ok"
        assert len(after["results"]) == 2
        assert registry.counter("repro_serving_responses_total",
                                status="timeout").value == 1

    def test_healthz_degrades_on_fleet_health(self):
        class Degraded(BlockingFleet):
            def health(self):
                return {"state": "degraded", "quarantined": [1]}

        degraded = DetectionServer(Degraded())._healthz()
        assert degraded["state"] == "degraded"
        assert degraded["fleet"]["quarantined"] == [1]
        assert DetectionServer(BlockingFleet())._healthz()["state"] == "ok"

        class Wedged(BlockingFleet):
            def health(self):
                raise RuntimeError("health probe wedged")

        wedged = DetectionServer(Wedged())._healthz()
        assert wedged["state"] == "degraded"
        assert "wedged" in wedged["fleet"]["error"]

    @staticmethod
    async def scripted_server(statuses):
        """A protocol-speaking stub: pops one status per request, then
        answers ``ok`` forever.  Returns (server, port, request_log)."""
        log = []

        async def handle(reader, writer):
            while True:
                request = await read_frame(reader)
                if request is None:
                    break
                log.append(request["op"])
                status = statuses.pop(0) if statuses else "ok"
                await write_frame(writer, {"status": status,
                                           "id": request.get("id")})

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        return server, server.sockets[0].getsockname()[1], log

    def test_client_retries_overloaded_with_backoff_budget(self):
        async def scenario():
            server, port, log = await self.scripted_server(
                ["overloaded", "draining"])
            retry = RetryPolicy(max_retries=3, base_delay=0.0,
                                jitter=False)
            async with await ServingClient.connect(
                    "127.0.0.1", port, retry=retry) as client:
                reply = await client.healthz()
            server.close()
            await server.wait_closed()
            return reply, log

        reply, log = asyncio.run(scenario())
        assert reply["status"] == "ok"
        assert log == ["healthz"] * 3           # two retries then success

    def test_client_without_retry_returns_overloaded_verbatim(self):
        async def scenario():
            server, port, log = await self.scripted_server(["overloaded"])
            async with await ServingClient.connect(
                    "127.0.0.1", port) as client:
                reply = await client.healthz()
            server.close()
            await server.wait_closed()
            return reply, log

        reply, log = asyncio.run(scenario())
        assert reply["status"] == "overloaded"
        assert log == ["healthz"]

    def test_client_retry_budget_exhausted_returns_last_response(self):
        async def scenario():
            server, port, log = await self.scripted_server(
                ["overloaded"] * 10)
            retry = RetryPolicy(max_retries=2, base_delay=0.0,
                                jitter=False)
            async with await ServingClient.connect(
                    "127.0.0.1", port, retry=retry) as client:
                reply = await client.healthz()
            server.close()
            await server.wait_closed()
            return reply, log

        reply, log = asyncio.run(scenario())
        assert reply["status"] == "overloaded"
        assert log == ["healthz"] * 3           # 1 attempt + 2 retries

    def test_client_deadline_raises_and_closes_connection(self):
        async def scenario():
            never = asyncio.Event()

            async def handle(reader, writer):
                await read_frame(reader)
                await never.wait()              # read, never reply

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServingClient.connect("127.0.0.1", port,
                                                 deadline=0.1)
            with pytest.raises(ServingTimeout, match="healthz"):
                await client.healthz()
            closed = client._writer.is_closing()
            never.set()
            server.close()
            await server.wait_closed()
            return closed

        assert asyncio.run(scenario())


# ----------------------------------------------------------------------
# Shared-memory orphan sweep under a concurrent two-process race
# ----------------------------------------------------------------------
class TestOrphanSweepRace:
    def test_concurrent_sweeps_remove_orphan_and_spare_live_segment(
            self, shm_namespace):
        """Two processes sweep the same namespace at the same instant:
        the dead-owner orphan goes (in exactly one of them — the loser's
        unlink tolerates the FileNotFoundError), the live segment stays
        mapped and bit-intact, and neither sweeper crashes."""
        from multiprocessing import shared_memory
        ctx = mp.get_context("fork")
        manifest = publish_pack(fabricate_ensemble(), dtype=np.float64)

        marker = ctx.Process(target=int)
        marker.start()
        marker.join()
        orphan = shared_memory.SharedMemory(
            create=True, size=64,
            name=f"repro-{shm_namespace}-{marker.pid}-feedface")
        orphan.close()
        shm_mod._unregister(orphan.name)
        assert sorted(list_segments(shm_namespace)) == sorted(
            [orphan.name, manifest["segment"]])

        barrier = ctx.Barrier(3)

        def sweeper():
            barrier.wait(GATE_TIMEOUT)
            shm_mod.sweep_orphans(shm_namespace)

        sweepers = [ctx.Process(target=sweeper) for _ in range(2)]
        for process in sweepers:
            process.start()
        barrier.wait(GATE_TIMEOUT)              # all release together
        for process in sweepers:
            process.join(GATE_TIMEOUT)
        assert [p.exitcode for p in sweepers] == [0, 0]

        survivors = list_segments(shm_namespace)
        assert orphan.name not in survivors
        assert survivors == [manifest["segment"]]
        attached = attach_pack(manifest)        # still valid, not torn
        attached.close()
        assert unlink_pack(manifest)
        assert list_segments(shm_namespace) == []


# ----------------------------------------------------------------------
# Guard overhead: disabled fault hooks must be near-free
# ----------------------------------------------------------------------
def test_faults_disabled_guard_cost_negligible():
    """Same analytic method as ``benchmarks/test_obs_overhead``: the
    disabled path's entire cost is ``if faults.enabled:`` guards, so
    bound guard-count x measured per-guard cost against a measured
    serving micro-batch instead of differencing noisy timings."""
    from repro.streaming import StreamingDetector
    assert not faults.enabled
    iterations = 200_000
    tick = time.perf_counter()
    hits = 0
    for _ in range(iterations):
        if faults.enabled:
            hits += 1                           # pragma: no cover
    guard_seconds = (time.perf_counter() - tick) / iterations
    assert hits == 0

    ensemble = fabricate_ensemble()
    detector = StreamingDetector(ensemble, history=64)
    detector.warm_up(sine_regime(7, seed=3))
    batch = sine_regime(64, start=7, seed=3)
    batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        detector.update_batch(batch)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    # Guards a sharded serving micro-batch crosses: shard op + update
    # split (2), one dispatch flush, publish/attach/pool/broker paths
    # are off the scoring path — bound generously at 8 per batch.
    fraction = guard_seconds * 8 / batch_seconds
    assert fraction < 0.02, (
        f"disabled fault guards cost {fraction:.2%} of a scoring "
        f"micro-batch (budget 2%)")


# ----------------------------------------------------------------------
# The headline chaos battery: one seeded run, three kinds of death
# ----------------------------------------------------------------------
class TestChaosBattery:
    N_SHARDS = 2
    PHASE_B_OPS = 3                      # update ops per shard before ckpt2

    def serve_phase(self, fleet, names, rows, registry):
        """Serve one batch per stream through a DetectionServer while a
        scheduled shard crash fires under it; return the replies plus a
        healthz snapshot."""

        async def scenario():
            server = DetectionServer(fleet, request_timeout=30.0,
                                     registry=registry)
            await server.start()
            retry = RetryPolicy(max_retries=2, base_delay=0.0,
                                jitter=False, seed=FAULT_SEED)
            clients = [await ServingClient.connect(
                "127.0.0.1", server.port, retry=retry) for _ in names]
            tasks = [asyncio.create_task(client.update_batch(name, rows))
                     for name, client in zip(names, clients)]
            replies = await asyncio.gather(*tasks)
            health = await clients[0].healthz()
            for client in clients:
                await client.close()
            await server.stop()
            return dict(zip(names, replies)), health

        return asyncio.run(scenario())

    def test_single_seeded_run_survives_three_deaths_bit_identically(
            self, shm_namespace, mp_handshake, stream_ensemble, tmp_path):
        """One seeded FaultPlan SIGKILLs a fleet shard (first update op
        after a checkpoint), SIGKILLs a serving-phase shard (first op
        after the second checkpoint), SIGKILLs the broker on its first
        message, and fails one in-flight build in its worker.  The run
        must recover all four — and its post-recovery scores must be
        bit-identical to a fault-free run resumed from the same
        checkpoints."""
        seed = FAULT_SEED
        registry = obs.MetricsRegistry()
        obs.set_default_registry(registry)
        # Both crash arms sit on the first update op after a checkpoint,
        # so crash-consistent respawn loses nothing and bit-identity is
        # provable; the seed still drives every backoff jitter draw.
        plan = (FaultPlan(seed=seed)
                .at("fleet.shard.update", hit=1, action="crash")
                .at("fleet.shard.update", hit=self.PHASE_B_OPS + 1,
                    action="crash")
                .at("broker.loop", hit=1, action="crash")
                .at("pool.build", hit=1, action="error"))
        note = f"chaos seed {seed}: {plan.describe()}"
        names = [stream_on_shard(shard, self.N_SHARDS, tag=f"c{shard}-")
                 for shard in range(self.N_SHARDS)]
        ckpt = str(tmp_path / "ckpt")
        serve_rows = sine_regime(4, start=76, seed=7)
        probe_rows = sine_regime(4, start=80, seed=7)

        with use_plan(plan):
            fleet = sharded_fleet(
                stream_ensemble, n_shards=self.N_SHARDS, history=64,
                restart=RestartPolicy(max_restarts=3, window=300.0),
                namespace=shm_namespace)
            try:
                # Phase A: warm through the non-update op, checkpoint.
                for name in names:
                    fleet.warm_up(name, sine_regime(64, seed=7))
                fleet.checkpoint(ckpt)
                # Phase B: the first update op SIGKILLs one shard; the
                # scatter revives it from the checkpoint and retries, so
                # no observation is lost.
                for k in range(self.PHASE_B_OPS):
                    rows = sine_regime(4, start=64 + 4 * k, seed=7)
                    fleet.update_many({name: rows for name in names})
                assert sum(fleet.health()["restarts"].values()) == 1, note
                # Phase C: checkpoint again, then serve while the second
                # crash arm kills whichever shard scores first.
                fleet.checkpoint(ckpt)
                replies, healthz = self.serve_phase(fleet, names,
                                                    serve_rows, registry)
                statuses = {name: reply["status"]
                            for name, reply in replies.items()}
                assert set(statuses.values()) <= {"ok", "overloaded",
                                                  "timeout"}, note
                assert all(status == "ok"
                           for status in statuses.values()), note
                assert healthz["status"] == "ok", note
                assert healthz["state"] == "degraded", note
                assert healthz["fleet"]["recent_restarts"] >= 1, note
                assert sum(fleet.health()["restarts"].values()) == 2, note
                # Phase D: broker dies on its first message, the
                # watchdog respawns it, the port re-attaches, and the
                # re-submitted build survives a failed first attempt.
                broker = BuildBroker(
                    n_ports=1, n_workers=1, worker_context=mp_handshake,
                    retry=RetryPolicy(max_retries=1, base_delay=0.001),
                    restart=RestartPolicy(max_restarts=2, window=300.0),
                    watchdog_interval=0.01, namespace=shm_namespace)
                try:
                    mp_handshake["gate"].set()
                    mp_handshake["gate2"].set()
                    coordinator = broker.coordinator(0)
                    ensemble = fabricate_ensemble()
                    history = sine_regime(32, seed=1)
                    doomed_client = coordinator.client(
                        ProcessGatedRefresher())
                    doomed = doomed_client.submit(ensemble, history, 10)
                    assert broker.wait_restarted(GATE_TIMEOUT), note
                    assert doomed_client.join(GATE_TIMEOUT), note
                    assert doomed_client.take() is doomed
                    assert doomed.status == "discarded", note
                    coordinator.port.pump()
                    assert not coordinator.port.degraded, note
                    assert coordinator.port.n_reattached == 1, note
                    retry_client = coordinator.client(
                        ProcessGatedRefresher(tag="retry",
                                              gate_key="gate2",
                                              started_key="started2"))
                    rebuilt = retry_client.submit(ensemble, history, 20)
                    assert retry_client.join(GATE_TIMEOUT), note
                    assert retry_client.take() is rebuilt, note
                    assert rebuilt.ready, note
                    wait_started(mp_handshake, key="started2")
                    stats = coordinator.stats()
                    assert stats.n_retried == 1, note
                    assert broker.health()["restarts"] == 1, note
                finally:
                    broker.shutdown()
                # Phase E: post-recovery probe on the healed fleet.
                chaos_final = fleet.update_many(
                    {name: probe_rows for name in names})
            finally:
                fleet.shutdown()

        # Fault-free control resumed from the same second checkpoint.
        control = load_sharded_fleet(ckpt,
                                     namespace=shm_namespace + "ctl")
        try:
            control_serve = control.update_many(
                {name: serve_rows for name in names})
            control_final = control.update_many(
                {name: probe_rows for name in names})
        finally:
            control.shutdown()

        for name in names:
            rendered = [render_update(update)
                        for update in control_serve[name]]
            assert replies[name]["results"] == rendered, note
            got = [(u.index, u.score, u.threshold, bool(u.alert))
                   for u in chaos_final[name]]
            want = [(u.index, u.score, u.threshold, bool(u.alert))
                    for u in control_final[name]]
            assert got == want, note

        # Every recovery left a telemetry trace in the parent registry.
        assert registry.counter("repro_restarts_total",
                                component="shard").value == 2, note
        assert registry.counter("repro_restarts_total",
                                component="broker").value == 1, note
        assert registry.counter(
            "repro_broker_reattached_total").value == 1, note
        assert list_segments(shm_namespace) == []

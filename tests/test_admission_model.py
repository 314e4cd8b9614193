"""Model-based test of the pure admission core.

Seeded random sequences of submit / unsubscribe / done / failed /
cancelled / tick / shutdown events drive
:class:`repro.streaming.admission.Admission` and a small, deliberately
naive reference model side by side.  After every event the actions and
the ledger must agree, and the core's invariants must hold: the cap,
exactly-once resolution, no unwanted build running uncancelled, queue
pick order and a balanced ledger.
"""

import random

import pytest

from repro.runtime.supervisor import RetryPolicy
from repro.streaming.admission import (Admission, AdmissionClosed,
                                       CancelWorker, Dispatch, Resolve,
                                       RetryAt)

KEYS = ("a", "b", "c", "d")
N_SEQUENCES = 300
N_STEPS = 60


class ReferenceModel:
    """Admission as plain lists and dicts, one rule per branch."""

    def __init__(self, cap, policy, max_retries, delay):
        self.cap, self.policy = cap, policy
        self.max_retries, self.delay = max_retries, delay
        self.builds = {}          # id -> build dict
        self.closed = False
        self.next_id = 0
        self.next_seq = 0         # dispatch order of running builds
        self.counters = dict.fromkeys(
            ("n_requests", "n_deduped", "n_admitted", "n_completed",
             "n_failed", "n_cancelled", "n_retried", "max_concurrent"), 0)

    def live(self, state):
        return [b for b in self.builds.values() if b["state"] == state]

    def submit(self, key, subscriber, priority):
        self.counters["n_requests"] += 1
        for build in self.builds.values():
            if build["key"] == key and build["state"] in ("queued",
                                                          "running") \
                    and not build["cancel"]:
                build["subs"].append(subscriber)
                self.counters["n_deduped"] += 1
                return []
        self.builds[self.next_id] = dict(
            id=self.next_id, key=key, priority=priority, subs=[subscriber],
            state="queued", cancel=False, attempts=0, retry_at=None)
        self.next_id += 1
        return self.pump()

    def pump(self):
        actions = []
        while not self.closed and self.live("queued") \
                and len(self.live("running")) < self.cap:
            queued = self.live("queued")
            if self.policy == "priority":
                pick = min(queued, key=lambda b: (-b["priority"], b["id"]))
            else:
                pick = min(queued, key=lambda b: b["id"])
            pick["state"], pick["seq"] = "running", self.next_seq
            self.next_seq += 1
            self.counters["n_admitted"] += 1
            self.counters["max_concurrent"] = max(
                self.counters["max_concurrent"], len(self.live("running")))
            actions.append(("dispatch", pick["id"]))
        return actions

    def finish(self, build, state, fan):
        subs, build["subs"] = build["subs"], []
        build["state"], build["retry_at"] = state, None
        self.counters[{"ready": "n_completed", "failed": "n_failed",
                       "cancelled": "n_cancelled"}[state]] += 1
        return [("resolve", build["id"], fan, tuple(subs))] + self.pump()

    def cancel(self, build):
        build["cancel"] = True
        if build["state"] == "queued":
            return self.finish(build, "cancelled", "discarded")
        if build["retry_at"] is not None:
            return [("cancel", build["id"])] + \
                self.finish(build, "cancelled", "discarded")
        return [("cancel", build["id"])]

    def unsubscribe(self, subscriber):
        for build in self.builds.values():
            if subscriber in build["subs"]:
                build["subs"].remove(subscriber)
                return [] if build["subs"] else self.cancel(build)
        return []

    def done(self, build_id):
        build = self.builds[build_id]
        if build["cancel"]:
            return self.finish(build, "cancelled", "discarded")
        return self.finish(build, "ready", "ready")

    def failed(self, build_id, now):
        build = self.builds[build_id]
        if build["cancel"]:
            return self.finish(build, "cancelled", "discarded")
        if build["attempts"] < self.max_retries:
            build["retry_at"] = now + self.delay(build["attempts"])
            build["attempts"] += 1
            self.counters["n_retried"] += 1
            return [("retry", build_id, build["retry_at"])]
        return self.finish(build, "failed", "failed")

    def cancelled(self, build_id):
        return self.finish(self.builds[build_id], "cancelled", "discarded")

    def tick(self, now):
        actions = []
        for build in sorted(self.live("running"), key=lambda b: b["seq"]):
            if build["retry_at"] is not None and build["retry_at"] <= now:
                build["retry_at"] = None
                actions.append(("dispatch", build["id"]))
        return actions

    def shutdown(self):
        self.closed = True
        actions = []
        queued = sorted(self.live("queued"), key=lambda b: b["id"])
        running = sorted(self.live("running"), key=lambda b: b["seq"])
        for build in queued + running:
            subs, build["subs"] = build["subs"], []
            if subs:
                actions.append(("resolve", build["id"], "discarded",
                                tuple(subs)))
            actions.extend(self.cancel(build))
        return actions


def normalise(actions):
    out = []
    for action in actions:
        if isinstance(action, Dispatch):
            out.append(("dispatch", action.build.id))
        elif isinstance(action, Resolve):
            out.append(("resolve", action.build.id, action.status,
                        tuple(action.subscribers)))
        elif isinstance(action, CancelWorker):
            out.append(("cancel", action.build.id))
        else:
            assert isinstance(action, RetryAt)
            out.append(("retry", action.build.id, action.at))
    return out


def running_attempts(core):
    """Running builds with an attempt in flight (not in backoff) — the
    only ones a transport can report an outcome for."""
    return [build for build in core.running if build.retry_at is None]


def run_sequence(seed, cap, policy, max_retries):
    rng = random.Random(seed)
    delay = (lambda attempt: 0.5 * 2 ** attempt)
    retry = RetryPolicy(max_retries=max_retries, base_delay=0.5,
                        max_delay=100.0, jitter=False) \
        if max_retries else None
    core = Admission(cap, policy, retry)
    model = ReferenceModel(cap, policy, max_retries, delay)
    now = 0.0
    next_subscriber = 0
    resolved = {}             # subscriber -> times resolved
    created = 0

    def check(actions, expected):
        assert normalise(actions) == expected
        for action in actions:
            if isinstance(action, Resolve):
                for subscriber in action.subscribers:
                    resolved[subscriber] += 1
            if isinstance(action, Dispatch):
                # Nobody dispatches a build that nobody waits on.
                assert action.build.subscribers
                assert not action.build.cancel_requested
        stats = core.stats()
        assert stats == type(stats)(n_queued=len(model.live("queued")),
                                    n_running=len(model.live("running")),
                                    **model.counters)
        assert stats.n_running <= cap
        assert all(count <= 1 for count in resolved.values())
        for build in core.running:
            assert build.subscribers or build.cancel_requested
        # Ledger: every request deduped or created a build, and every
        # created build is live or ended exactly one way.
        assert stats.n_requests == stats.n_deduped + created
        assert created == (stats.n_completed + stats.n_failed
                           + stats.n_cancelled + stats.n_queued
                           + stats.n_running)

    for _ in range(N_STEPS):
        now += rng.choice((0.0, 0.1, 0.4, 1.0))
        op = rng.choices(("submit", "unsubscribe", "done", "failed",
                          "cancelled", "tick", "shutdown"),
                         weights=(8, 3, 3, 3, 1, 3, 0.3))[0]
        attempts = running_attempts(core)
        if op == "submit":
            subscriber = f"s{next_subscriber}"
            next_subscriber += 1
            key, priority = rng.choice(KEYS), rng.randrange(4)
            if core.closed:
                with pytest.raises(AdmissionClosed):
                    core.submit(key, subscriber, priority)
                continue
            resolved[subscriber] = 0
            if core.joinable(key) is None:
                created += 1
            build, actions = core.submit(key, subscriber, priority)
            assert subscriber in build.subscribers
            expected = model.submit(key, subscriber, priority)
        elif op == "unsubscribe" and resolved:
            subscriber = rng.choice(sorted(resolved))
            if any(subscriber in build["subs"]
                   for build in model.builds.values()):
                # The caller resolves its own live subscription.
                resolved[subscriber] += 1
            actions = core.unsubscribe(subscriber)
            expected = model.unsubscribe(subscriber)
        elif op in ("done", "failed", "cancelled") and attempts:
            build_id = rng.choice(attempts).id
            if op == "failed":
                actions = core.failed(build_id, RuntimeError("boom"), now)
                expected = model.failed(build_id, now)
            else:
                actions = getattr(core, op)(build_id)
                expected = getattr(model, op)(build_id)
        elif op == "tick":
            actions, expected = core.tick(now), model.tick(now)
        elif op == "shutdown":
            actions, expected = core.shutdown(), model.shutdown()
        else:
            continue
        check(actions, expected)

    # Wind down: shut down, then every running build's worker reports.
    check(core.shutdown(), model.shutdown())
    for build in list(core.running):
        check(core.cancelled(build.id), model.cancelled(build.id))
    assert core.n_queued == core.n_running == 0
    assert all(count == 1 for count in resolved.values()), resolved


@pytest.mark.parametrize("policy", ["fifo", "priority"])
@pytest.mark.parametrize("max_retries", [0, 2])
def test_admission_matches_reference_model(policy, max_retries):
    for seed in range(N_SEQUENCES // 4):
        cap = 1 + seed % 3
        run_sequence(seed, cap, policy, max_retries)


def test_thread_transport_keeps_invariants_under_churn():
    """Eight threads submit and discard against one RefreshCoordinator
    while the interpreter switches threads as often as it can: the cap
    holds, every handle resolves, and the ledger balances."""
    import itertools
    import sys
    import threading

    import numpy as np

    from repro.streaming import RefreshCoordinator

    calls = itertools.count()
    active, peak = [0], [0]
    track = threading.Lock()

    class FlakyRefresher:
        n_refreshes = 0

        def build(self, ensemble, history, index, **kwargs):
            with track:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                if next(calls) % 3 == 0:
                    raise RuntimeError("transient")
                return "replacement", "report"
            finally:
                with track:
                    active[0] -= 1

    ensembles = [object() for _ in range(3)]
    handles = []

    def churn(seed):
        rng = random.Random(seed)
        for _ in range(40):
            client = coordinator.client(FlakyRefresher(),
                                        priority=rng.randrange(3))
            handles.append(client.submit(rng.choice(ensembles),
                                         np.zeros((4, 1)), trigger_index=1))
            if rng.random() < 0.3:
                client.discard()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    coordinator = RefreshCoordinator(
        max_concurrent_builds=2, policy="priority",
        retry=RetryPolicy(max_retries=1, base_delay=0.0, jitter=False))
    try:
        threads = [threading.Thread(target=churn, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        assert all(handle.wait(30.0) for handle in handles)
        assert coordinator.drain(30.0)
    finally:
        sys.setswitchinterval(interval)
        coordinator.shutdown()
    stats = coordinator.stats()
    assert peak[0] <= 2 and stats.max_concurrent <= 2
    assert stats.n_requests == len(handles) == 320
    assert stats.n_queued == stats.n_running == 0
    assert stats.n_requests - stats.n_deduped == \
        stats.n_completed + stats.n_failed + stats.n_cancelled
    assert {handle.status for handle in handles} <= {"ready", "failed",
                                                     "discarded"}

"""Refresh admission as a pure state machine: the :class:`Admission` core.

Training is the most expensive thing a fleet does (Table 7), so refresh
builds are *admitted*, not run freely.  Every admission decision lives
here, once, with no threads, locks, clocks, queues or pickling:

* **Queue pick** — queued builds start in submission order
  (``policy="fifo"``) or highest priority first, submission order among
  equals (``policy="priority"``).
* **Key dedup** — a submission whose ``key`` matches a live build that is
  not being cancelled joins it as one more subscriber instead of
  creating a build; the finished result fans out to every subscriber.
* **Concurrency cap** — at most ``max_concurrent`` builds run at once.
* **Cancel on last unsubscribe** — a build that loses its last
  subscriber is dequeued if waiting, or told to stop if running.
* **Retry gating** — with a
  :class:`~repro.runtime.supervisor.RetryPolicy`, a failed attempt keeps
  its slot and is retried at a ``retry_at`` deadline (counted as
  admitted once).
* **The counter ledger** — :meth:`Admission.stats` and the checkpoint
  :meth:`~Admission.state_dict` (fleet format v2 shape).

Transports feed events in and carry out the actions that come back:
:class:`Dispatch` (start or re-run a build), :class:`Resolve` (fan a
status out to subscribers), :class:`CancelWorker` (stop a running build)
and :class:`RetryAt` (wait out a backoff, then :meth:`~Admission.tick`).
:class:`~repro.streaming.coordinator.RefreshCoordinator` drives the core
with build threads, in a server process or hosted by the process broker
(:mod:`repro.runtime.broker`).  The caller passes ``now`` wherever
time matters, so the core is deterministic under any clock.

>>> admission = Admission(max_concurrent=1)
>>> first, actions = admission.submit("ensemble-a", "stream-1")
>>> actions
[Dispatch(build=Build(0, 'ensemble-a', 'building'))]
>>> admission.submit("ensemble-a", "stream-2")[0] is first   # deduped
True
>>> second, actions = admission.submit("ensemble-b", "stream-3")
>>> actions, second.status                                   # capped
([], 'queued')
>>> resolve, dispatch = admission.done(first.id, result="replacement")
>>> resolve.status, resolve.subscribers                      # fan-out
('ready', ['stream-1', 'stream-2'])
>>> dispatch                                                 # slot freed
Dispatch(build=Build(1, 'ensemble-b', 'building'))
>>> admission.unsubscribe("stream-3")            # last subscriber leaves
[CancelWorker(build=Build(1, 'ensemble-b', 'building'))]
>>> admission.cancelled(second.id)[0].status
'discarded'
>>> stats = admission.stats()
>>> stats.n_requests, stats.n_deduped, stats.n_completed, stats.n_cancelled
(3, 1, 1, 1)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

ADMISSION_POLICIES = ("fifo", "priority")

# Ledger order is the checkpoint order (fleet format v2 "counters").
_COUNTERS = ("n_requests", "n_deduped", "n_admitted", "n_completed",
             "n_failed", "n_cancelled", "n_retried", "max_concurrent")


class AdmissionClosed(RuntimeError):
    """Raised by ``submit`` once admission is shut down.

    The engine catches this and parks the refresh request as pending
    (shutdown can interleave between its ``accepting`` check and the
    submit), so a serving thread never fails on a closing fleet; direct
    callers see the error.
    """


@dataclasses.dataclass(frozen=True)
class CoordinatorStats:
    """Cumulative admission counters.

    ``n_requests`` counts stream-level submissions; ``n_deduped`` of them
    joined an existing build instead of spawning one, so
    ``n_requests - n_deduped`` distinct builds were enqueued.  A build
    ends in exactly one of ``n_completed`` / ``n_failed`` /
    ``n_cancelled``.  ``max_concurrent`` is the peak number of builds
    that ever ran at once — bounded by the cap by construction.
    ``n_retried`` counts backoff retries of failed build attempts (a
    build that fails twice then succeeds contributes two retries and one
    completion).  Derived views (dedup ratio, builds saved, cap
    adherence) live on :func:`repro.metrics.events.fleet_refresh_report`.
    """
    n_requests: int
    n_deduped: int
    n_admitted: int
    n_completed: int
    n_failed: int
    n_cancelled: int
    n_queued: int
    n_running: int
    max_concurrent: int
    n_retried: int = 0


class Build:
    """One distinct build and its subscribers.

    ``status`` moves ``queued -> building -> ready | failed | cancelled``
    (a queued build may also go straight to ``cancelled``).  ``payload``
    is the transport's opaque job description; ``retry_at`` is set while
    a failed attempt waits out its backoff.
    """

    __slots__ = ("id", "key", "priority", "payload", "subscribers",
                 "status", "cancel_requested", "attempts", "retry_at")

    def __init__(self, build_id: int, key, priority: int, payload):
        self.id = build_id
        self.key = key
        self.priority = priority
        self.payload = payload
        self.subscribers: List[Hashable] = []
        self.status = "queued"
        self.cancel_requested = False
        self.attempts = 0
        self.retry_at: Optional[float] = None

    def __repr__(self) -> str:
        return f"Build({self.id}, {self.key!r}, {self.status!r})"


class Dispatch(NamedTuple):
    """Start ``build`` — or, after a backoff, run its next attempt."""
    build: Build


class Resolve(NamedTuple):
    """Fan ``status`` (``ready`` / ``failed`` / ``discarded``) out to
    ``subscribers``; ``result`` is the build's result or error."""
    build: Build
    status: str
    subscribers: List[Hashable]
    result: object = None


class CancelWorker(NamedTuple):
    """Tell the worker running ``build`` to stop."""
    build: Build


class RetryAt(NamedTuple):
    """``build``'s failed attempt is retried once ``at`` has passed; the
    transport waits it out (a cancel interrupts) and calls ``tick``."""
    build: Build
    at: float


_FAN_OUT = {"ready": "ready", "failed": "failed", "cancelled": "discarded"}


class Admission:
    """The admission state machine (see the module docstring).

    Subscribers are opaque hashable tokens, unique per live submission.
    Every event returns the list of actions the transport must perform,
    in order.
    """

    def __init__(self, max_concurrent: int = 1, policy: str = "fifo",
                 retry=None):
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent_builds must be >= 1, "
                             f"got {max_concurrent}")
        if policy not in ADMISSION_POLICIES:
            raise ValueError(f"policy must be one of {ADMISSION_POLICIES}, "
                             f"got {policy!r}")
        self.max_concurrent = int(max_concurrent)
        self.policy = policy
        self.retry = retry
        self.closed = False
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self._queue: List[Build] = []
        self._running: List[Build] = []
        self._builds: Dict[int, Build] = {}
        self._joinable: Dict[object, Build] = {}
        self._subscribed: Dict[Hashable, Build] = {}
        self._next_id = 0

    # -- queries -------------------------------------------------------
    @property
    def n_queued(self) -> int:
        return len(self._queue)

    @property
    def n_running(self) -> int:
        return len(self._running)

    @property
    def running(self) -> Tuple[Build, ...]:
        return tuple(self._running)

    def joinable(self, key) -> Optional[Build]:
        """The live build a submission for ``key`` would join, if any."""
        return self._joinable.get(key)

    def stats(self) -> CoordinatorStats:
        return CoordinatorStats(n_queued=len(self._queue),
                                n_running=len(self._running),
                                **self.counters)

    # -- events --------------------------------------------------------
    def submit(self, key, subscriber: Hashable, priority: int = 0,
               payload=None) -> Tuple[Build, list]:
        """Join the live build for ``key`` or queue a new one.

        Returns the build the subscriber now waits on and the actions.
        ``payload`` is kept only when a new build is created.
        """
        if self.closed:
            raise AdmissionClosed("admission is shut down; no further "
                                  "refresh builds are admitted")
        self.counters["n_requests"] += 1
        build = self._joinable.get(key)
        if build is None:
            build = Build(self._next_id, key, int(priority), payload)
            self._next_id += 1
            self._builds[build.id] = build
            self._joinable[key] = build
            self._queue.append(build)
        else:
            self.counters["n_deduped"] += 1
        build.subscribers.append(subscriber)
        self._subscribed[subscriber] = build
        return build, self._pump()

    def unsubscribe(self, subscriber: Hashable) -> list:
        """Drop one subscription; cancel the build if it was the last."""
        build = self._subscribed.pop(subscriber, None)
        if build is None:
            return []
        build.subscribers.remove(subscriber)
        if build.subscribers:
            return []
        return self._cancel(build)

    def done(self, build_id: int, result=None) -> list:
        build = self._builds.get(build_id)
        if build is None:
            return []
        # A result nobody wants any more is a cancellation.
        return self._finish(build, "cancelled" if build.cancel_requested
                            else "ready", result)

    def failed(self, build_id: int, error=None, now: float = 0.0) -> list:
        """An attempt failed: retry it at a deadline while the policy has
        budget, else fail every subscriber with ``error``."""
        build = self._builds.get(build_id)
        if build is None:
            return []
        if build.cancel_requested:
            return self._finish(build, "cancelled")
        retry = self.retry
        if retry is not None and build.attempts < retry.max_retries:
            delay = retry.delay_for(build.attempts)
            build.attempts += 1
            build.retry_at = now + delay
            self.counters["n_retried"] += 1
            return [RetryAt(build, build.retry_at)]
        return self._finish(build, "failed", error)

    def cancelled(self, build_id: int) -> list:
        build = self._builds.get(build_id)
        if build is None:
            return []
        return self._finish(build, "cancelled")

    def tick(self, now: float) -> list:
        """Re-dispatch every build whose retry deadline has passed."""
        actions = []
        for build in self._running:
            if build.retry_at is not None and build.retry_at <= now:
                build.retry_at = None
                actions.append(Dispatch(build))
        return actions

    def shutdown(self) -> list:
        """Refuse new submissions, discard every subscriber, cancel every
        build.  Idempotent."""
        self.closed = True
        actions = []
        for build in self._queue + self._running:
            subscribers, build.subscribers = build.subscribers, []
            for subscriber in subscribers:
                del self._subscribed[subscriber]
            if subscribers:
                actions.append(Resolve(build, "discarded", subscribers))
            actions.extend(self._cancel(build))
        return actions

    # -- checkpointing -------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Configuration and ledger (fleet format v2 ``coordinator``).

        Live builds are deliberately not persisted: each subscribing
        stream saves its own request as pending and re-submits on resume.
        """
        return {"max_concurrent_builds": self.max_concurrent,
                "policy": self.policy, "counters": dict(self.counters)}

    @classmethod
    def from_state(cls, state: Dict[str, object],
                   retry=None) -> "Admission":
        admission = cls(int(state["max_concurrent_builds"]),
                        str(state.get("policy", "fifo")), retry)
        counters = state.get("counters", {})
        for name in _COUNTERS:
            admission.counters[name] = int(counters.get(name, 0))
        return admission

    # -- internals -----------------------------------------------------
    def _pump(self) -> list:
        """Start queued builds while the cap has room."""
        actions = []
        while self._queue and len(self._running) < self.max_concurrent \
                and not self.closed:
            if self.policy == "priority":
                build = min(self._queue, key=lambda b: (-b.priority, b.id))
                self._queue.remove(build)
            else:
                build = self._queue.pop(0)
            build.status = "building"
            self._running.append(build)
            self.counters["n_admitted"] += 1
            self.counters["max_concurrent"] = max(
                self.counters["max_concurrent"], len(self._running))
            actions.append(Dispatch(build))
        return actions

    def _cancel(self, build: Build) -> list:
        """Cancel a build nobody waits on: a queued one (or one waiting
        out a backoff, with no worker running) ends now; a running one
        keeps its slot until its worker reports back."""
        build.cancel_requested = True
        if self._joinable.get(build.key) is build:
            del self._joinable[build.key]
        if build.status == "queued":
            self._queue.remove(build)
            return self._finish(build, "cancelled")
        if build.retry_at is not None:
            return [CancelWorker(build)] + self._finish(build, "cancelled")
        return [CancelWorker(build)]

    def _finish(self, build: Build, status: str, result=None) -> list:
        del self._builds[build.id]
        if self._joinable.get(build.key) is build:
            del self._joinable[build.key]
        if build in self._running:
            self._running.remove(build)
        build.status = status
        build.retry_at = None
        self.counters[{"ready": "n_completed", "failed": "n_failed",
                       "cancelled": "n_cancelled"}[status]] += 1
        subscribers, build.subscribers = build.subscribers, []
        for subscriber in subscribers:
            del self._subscribed[subscriber]
        return [Resolve(build, _FAN_OUT[status], subscribers, result)] \
            + self._pump()

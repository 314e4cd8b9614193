"""Refresh admission control: the :class:`RefreshCoordinator`.

The coordinator is the one executor of background refresh builds: the
engine's ``refresh_mode="async"`` hands every build to one, so training
runs off the serving path while the old ensemble keeps serving.  Used
*shared*, one coordinator admits a whole fleet's builds: when N streams
drift together — the common case, since co-located streams see the same
regime change — their builds queue behind one concurrency cap and
streams scoring against the *same* shared ensemble join one build
instead of each training an identical replacement.  Training is the
expensive part of the whole system (Table 7), so fleet refresh cost must
be **admitted**, not just deferred.  Used *private* (a detector without
a fleet coordinator gets ``RefreshCoordinator().client(...)``), the same
machinery runs one stream's builds one at a time.

The coordinator is the thread transport of the pure
:class:`~repro.streaming.admission.Admission` core, which makes every
decision:

* **Bounded pool** — at most ``max_concurrent_builds`` builds run at
  once; further admissions queue.  Total refresh CPU is capped no matter
  how many streams drift in the same window.
* **Admission queue** — queued builds start in submission order
  (``policy="fifo"``) or highest-priority-first with FIFO tie-break
  (``policy="priority"``; a stream's priority is set where its client is
  created, e.g. paging-critical streams first).
* **Build dedup** — a submission whose ensemble is *identical* (``is``,
  the same notion :func:`~repro.core.persistence.save_fleet` dedups
  weights by) to a queued or in-flight build's joins that build as a
  subscriber instead of spawning its own.  K co-drifting streams sharing
  one ensemble cost one build; the finished replacement is fanned out to
  every subscriber's :class:`RefreshHandle` and each stream swaps it in
  at its own next batch boundary.
* **Cooperative cancellation** — every build carries a cancel flag that
  :meth:`~repro.core.ensemble.CAEEnsemble.fit` polls between basic-model
  fits.  A build that loses its last subscriber (refresher swapped,
  detector discarded the request, fleet shut down) is cancelled: dequeued
  if still waiting, or stopped before its next basic model if running —
  CPU is released immediately instead of finishing a result nobody will
  serve.
* **Retry & circuit breaking** (optional) — with a ``retry`` policy
  (:class:`repro.runtime.supervisor.RetryPolicy`), a failed build is
  retried on its own build thread after an exponential-backoff wait
  (interruptible: cancellation during the backoff aborts the retry).
  With a ``breaker_factory``, each distinct ensemble gets a
  :class:`~repro.runtime.supervisor.CircuitBreaker`: after repeated
  build failures new submissions for that ensemble fail **fast** with
  :class:`~repro.runtime.supervisor.BreakerOpen` — no training CPU is
  burned on a refresher that fails deterministically — until a cooldown
  elapses and the next drift trigger is admitted as a half-open probe.

Streams talk to the coordinator through :meth:`RefreshCoordinator.client`,
which returns a :class:`CoordinatedRefreshClient` — the engine's one
per-stream build port (``submit`` / ``poll`` / ``take`` / ``discard`` /
``handle``).  Pass ``coordinator=`` to the detector (or to
:func:`~repro.streaming.multi.shared_fleet`) together with
``refresh_mode="async"`` to share one; without it the detector creates a
private one per client.  The same client also serves the process
broker's :class:`~repro.runtime.broker.ProcessCoordinator`.

Each submission returns a :class:`RefreshHandle` whose status moves
``building -> ready | failed`` on the build thread (guarded by a lock)
and ``ready -> swapped`` / ``* -> discarded`` on the engine thread, so
every request resolves to exactly one terminal state.  When drift
re-fires while a request is in flight the engine applies the client's
``on_refire`` policy: ``"drop"`` discards the new trigger (the in-flight
build already answers the regime change), ``"queue"`` keeps it pending
so a follow-up build starts — on post-swap history — once the current
one has swapped.

Every admission decision is counted (:meth:`RefreshCoordinator.stats`);
:func:`repro.metrics.events.fleet_refresh_report` renders the counters
as a report next to the accuracy metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import os
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .. import faults
from ..core.ensemble import TrainingCancelled
from ..obs import default_registry, default_tracer
# AdmissionClosed is re-exported: the engine and callers import it here.
from .admission import (Admission, AdmissionClosed, CancelWorker,
                        CoordinatorStats, Dispatch, Resolve, RetryAt)

# repro.runtime.supervisor (BreakerOpen, BREAKER_STATES) is imported
# lazily inside the methods that need it: repro.runtime.broker imports
# this module at load time, so a top-level import here would be circular.

_POLL_SECONDS = 0.05

REFIRE_POLICIES = ("drop", "queue")


class RefreshHandle:
    """One submitted background build and its lifecycle.

    Attributes
    ----------
    trigger_index: drift arrival that requested the build.
    generation:    refresher generation captured at submit time (pins the
                   replacement's seed regardless of completion order).
    status:        ``"building"`` / ``"ready"`` / ``"failed"`` /
                   ``"swapped"`` / ``"discarded"``.
    replacement:   the built ensemble (once ready).
    report:        the build's :class:`RefreshReport` (once ready).
    error:         the exception that failed the build (if any).
    """

    def __init__(self, trigger_index: int, generation: int):
        self.trigger_index = int(trigger_index)
        self.generation = int(generation)
        self.status = "building"
        self.replacement = None
        self.report = None
        self.error: Optional[BaseException] = None
        self.done = threading.Event()
        self._lock = threading.Lock()

    @property
    def ready(self) -> bool:
        return self.status == "ready"

    @property
    def in_flight(self) -> bool:
        return self.status == "building"

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the build finishes (True) or ``timeout`` elapses.

        Only waits for the *build*; the swap still happens on the engine
        thread at the next update boundary (or ``poll_refresh()``).
        """
        return self.done.wait(timeout)

    def _finish(self, status: str, replacement=None, report=None,
                error: Optional[BaseException] = None) -> None:
        """Build-side terminal transition; loses to a prior discard.

        Does not signal ``done`` — the transport does, after the
        done-hook has run, so observers woken by ``wait()`` see hooks
        completed.
        """
        with self._lock:
            if self.status == "building":
                self.status = status
                self.replacement = replacement
                self.report = report
                self.error = error

    def _resolve(self, status: str) -> bool:
        """Engine-side transition out of ``ready`` (swap) or any live
        state (discard); returns False if already terminal."""
        with self._lock:
            if status == "swapped" and self.status != "ready":
                return False
            if self.status in ("swapped", "discarded"):
                return False
            self.status = status
            if status == "discarded":
                # Free the half/fully built ensemble promptly.
                self.replacement = None
        return True


class _CoordinatorTelemetry:
    """Registry mirrors of the admission counters plus live gauges.

    The admission core's ledger stays authoritative (it is per-instance
    and survives checkpoints); these process-wide instruments aggregate
    *runtime* admission activity across every coordinator in the process
    and always start at zero.
    """

    __slots__ = ("ledger", "rejected", "breaker_state", "retry_delay",
                 "queue_depth", "builds_running")

    def __init__(self, registry):
        # ledger counter -> its registry mirror
        self.ledger = {
            name: registry.counter(f"repro_coordinator_{metric}_total")
            for name, metric in (("n_requests", "requests"),
                                 ("n_deduped", "deduped"),
                                 ("n_admitted", "admitted"),
                                 ("n_completed", "completed"),
                                 ("n_failed", "failed"),
                                 ("n_cancelled", "cancelled"),
                                 ("n_retried", "retried"))}
        self.rejected = registry.counter(
            "repro_coordinator_breaker_rejected_total")
        self.breaker_state = registry.gauge("repro_breaker_state")
        self.retry_delay = registry.histogram(
            "repro_coordinator_retry_delay_seconds")
        self.queue_depth = registry.gauge("repro_coordinator_queue_depth")
        self.builds_running = registry.gauge(
            "repro_coordinator_builds_running")


class _BuildJob(NamedTuple):
    """A coordinator build's payload: the leader's request, the build's
    cancel flag and its ensemble's circuit breaker (if any)."""
    refresher: object
    ensemble: object
    history: np.ndarray
    trigger_index: int
    generation: int
    trace: object
    cancel: threading.Event
    breaker: object


def _accepts_cancel(build) -> bool:
    """Whether a refresher's ``build`` takes the ``cancel`` flag
    (duck-typed stand-ins may not)."""
    try:
        parameters = inspect.signature(build).parameters
    except (TypeError, ValueError):        # builtins, exotic callables
        return False
    return "cancel" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())


def _report_for(report, trigger_index: int):
    """A fanned-out build report carrying the subscriber's own drift
    trigger; duck-typed refreshers' non-dataclass reports pass as-is."""
    try:
        return dataclasses.replace(report, trigger_index=trigger_index)
    except TypeError:
        return report


class CoordinatedRefreshClient:
    """One stream's port into a :class:`RefreshCoordinator` (shared or
    private) or a broker's
    :class:`~repro.runtime.broker.ProcessCoordinator`.

    The engine's only per-stream build surface: ``submit`` / ``poll`` /
    ``take`` / ``discard`` / ``handle`` / ``busy`` / ``refresher`` /
    ``on_refire``.  A request goes through admission — it may queue
    behind the concurrency cap, or join (dedup) an existing build for
    the same shared ensemble.  The coordinator supplies ``_submit`` /
    ``_unsubscribe`` / ``_pump``.

    The lifecycle on a private coordinator, with an instant duck-typed
    refresher:

    >>> import numpy as np
    >>> class InstantRefresher:
    ...     n_refreshes = 0
    ...     def build(self, ensemble, history, index, **kwargs):
    ...         return "replacement", "report"
    >>> client = RefreshCoordinator().client(InstantRefresher())
    >>> handle = client.submit("serving", np.zeros((4, 1)),
    ...                        trigger_index=7)
    >>> handle.wait(30.0)                  # build finished ...
    True
    >>> handle.ready, handle.replacement
    (True, 'replacement')
    >>> client.take() is handle            # ... engine adopts it at a
    True
    >>> client.busy                        #     boundary; client is free
    False
    """

    def __init__(self, coordinator, refresher, on_refire: str = "queue",
                 priority: int = 0):
        if on_refire not in REFIRE_POLICIES:
            raise ValueError(f"on_refire must be one of {REFIRE_POLICIES}, "
                             f"got {on_refire!r}")
        self.coordinator = coordinator
        self.refresher = refresher
        self.on_refire = on_refire
        self.priority = int(priority)
        self._handle: Optional[RefreshHandle] = None

    @property
    def accepting(self) -> bool:
        """Whether admission is open.  False once the coordinator is
        shut down: the engine then leaves refresh requests pending (for
        a later checkpoint/restart) instead of submitting."""
        return not self.coordinator._shutdown

    @property
    def handle(self) -> Optional[RefreshHandle]:
        """The active (in-flight or finished-unconsumed) handle, if any."""
        handle = self._handle
        if handle is not None and handle.status in ("building", "ready",
                                                    "failed"):
            return handle
        return None

    @property
    def attached_handle(self) -> Optional[RefreshHandle]:
        """The handle regardless of status — includes one another actor
        resolved to ``discarded`` (coordinator shutdown) that this
        client has not observed yet.  Any attached handle means the
        stream's refresh request is still unanswered; the engine's
        ``state_dict`` persists it as pending."""
        return self._handle

    @property
    def busy(self) -> bool:
        """Whether a build is in flight or awaiting its boundary swap."""
        return self.handle is not None

    def submit(self, ensemble, history: np.ndarray, trigger_index: int,
               generation: Optional[int] = None,
               trace=None) -> RefreshHandle:
        """Request a replacement build for ``ensemble`` through admission.

        ``history`` must be a snapshot the caller will not mutate (the
        engine passes the corpus buffer's ``to_array()`` copy), and at
        most one request per client may be active.  ``generation`` pins
        the build's seed offset (the engine passes its committed-refresh
        count, which survives checkpoint resume).  ``trace`` is the
        stream's optional ``(root_span, admission_span)`` pair (the
        admission span ends at build start, or immediately — marked
        ``deduped`` — when this request joins an existing build).  The returned handle reports
        ``building`` from submission on (even while queued: from the
        stream's point of view the request is in flight either way) and
        resolves exactly once.
        """
        if self.busy:
            raise RuntimeError("a refresh build is already in flight; "
                               "poll or discard it before submitting")
        if generation is None:
            generation = self.refresher.n_refreshes
        handle = self.coordinator._submit(
            self, ensemble, np.asarray(history, dtype=np.float64),
            int(trigger_index), int(generation), trace=trace)
        self._handle = handle
        return handle

    def poll(self) -> Optional[RefreshHandle]:
        """The attached handle once its build has resolved, else None.

        Non-blocking; the handle stays attached until :meth:`take` or
        :meth:`discard` consumes it.  A handle resolved *by someone
        else* (discarded by a coordinator shutdown) is still returned,
        so the engine can observe the abandonment at its next boundary.
        Pumps the coordinator first: for the process broker that pulls
        replies off the port's reply queue, the only place a remote
        build's terminal state can land in this process.
        """
        self.coordinator._pump()
        handle = self._handle
        if handle is not None and handle.done.is_set():
            return handle
        return None

    def take(self) -> Optional[RefreshHandle]:
        """Detach and return the resolved handle, if any — the engine's
        boundary-swap entry point."""
        handle = self.poll()
        if handle is not None:
            self._handle = None
        return handle

    def discard(self) -> Optional[RefreshHandle]:
        """Abandon this stream's subscription; its result never serves.

        If the underlying build has other live subscribers it keeps
        running for them; if this was the last one, the coordinator
        cancels the build (dequeue, or cooperative stop between basic
        models) to release the CPU.  Returns the abandoned handle.
        """
        handle = self._handle
        self._handle = None
        if handle is not None:
            self.coordinator._unsubscribe(handle)
        return handle

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the active build to finish (True if it has or if
        nothing is in flight)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            handle = self._handle
            if handle is None:
                return True
            self.coordinator._pump()   # a broker reply may resolve it
            wait = _POLL_SECONDS if deadline is None \
                else min(_POLL_SECONDS, deadline - time.monotonic())
            if handle.done.wait(max(0.0, wait)):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False


class RefreshCoordinator:
    """Admission control and build threads for refresh builds.

    Parameters
    ----------
    max_concurrent_builds: hard cap on builds running at once; further
                           admitted builds wait in the queue.
    policy:                ``"fifo"`` (submission order) or
                           ``"priority"`` (highest client priority first,
                           FIFO among equals).
    retry:                 optional
                           :class:`~repro.runtime.supervisor.RetryPolicy`;
                           a failed build attempt is retried on its own
                           build thread after the policy's backoff
                           (``None`` — the default — fails immediately,
                           the pre-existing behaviour).
    breaker_factory:       optional zero-argument callable returning a
                           fresh
                           :class:`~repro.runtime.supervisor.CircuitBreaker`
                           per distinct ensemble; open breakers fail new
                           submissions for that ensemble fast with
                           :class:`~repro.runtime.supervisor.BreakerOpen`
                           (the handle resolves ``failed``, the stream
                           keeps serving, and no request is counted), and
                           the next drift trigger after the cooldown runs
                           as the half-open probe.

    Like ``build_runner``, ``retry`` and ``breaker_factory`` are runtime
    wiring, not state: checkpoints persist the ``n_retried`` counter but
    neither policy object (re-attach them after ``from_state``).

    ``on_build_start`` / ``on_build_done`` are optional callbacks invoked
    *on the build thread* with the internal
    :class:`~repro.streaming.admission.Build` record — event hooks for
    deterministic concurrency tests and production telemetry
    (``build.payload.trigger_index`` is the leader's drift trigger).  A
    raising start hook fails the build (never wedges it).

    Configuration and counters are cheap to inspect and round-trip
    through fleet checkpoints:

    >>> coordinator = RefreshCoordinator(max_concurrent_builds=2,
    ...                                  policy="priority")
    >>> coordinator.stats().n_requests
    0
    >>> state = coordinator.state_dict()
    >>> state["max_concurrent_builds"]
    2
    >>> RefreshCoordinator.from_state(state).policy
    'priority'
    """

    def __init__(self, max_concurrent_builds: int = 1,
                 policy: str = "fifo", build_runner=None,
                 retry=None, breaker_factory=None):
        self._admission = Admission(max_concurrent_builds, policy, retry)
        # Pluggable build execution: None trains on this build thread;
        # a runner ``(refresher, ensemble, history, index, kwargs,
        # cancel) -> (replacement, report)`` may ship the job elsewhere
        # — repro.runtime.ProcessBuildPool.build_runner moves it to a
        # worker process so training never contends for this process's
        # GIL.  Admission, dedup and fan-out are unaffected.  Runners
        # are runtime wiring, not state: checkpoints neither persist nor
        # restore them (re-attach one after from_state).
        self.build_runner = build_runner
        self.breaker_factory = breaker_factory
        # Per-ensemble breakers, keyed by ensemble identity — the same
        # notion the dedup uses.  Entries live as long as the
        # coordinator; fleets hold their ensembles for their lifetime.
        self._breakers: Dict[int, object] = {}
        self.on_build_start: Optional[Callable] = None
        self.on_build_done: Optional[Callable] = None
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._obs = _CoordinatorTelemetry(default_registry())
        self._mirrored = dict(self._admission.counters)

    @property
    def max_concurrent_builds(self) -> int:
        return self._admission.max_concurrent

    @property
    def policy(self) -> str:
        return self._admission.policy

    @property
    def retry(self):
        return self._admission.retry

    @retry.setter
    def retry(self, policy) -> None:
        self._admission.retry = policy

    @property
    def _shutdown(self) -> bool:
        return self._admission.closed

    # ------------------------------------------------------------------
    # Stream-facing API
    # ------------------------------------------------------------------
    def client(self, refresher, on_refire: str = "queue",
               priority: int = 0) -> CoordinatedRefreshClient:
        """A per-stream port into this coordinator; the engine creates
        one lazily per attached refresher."""
        return CoordinatedRefreshClient(self, refresher,
                                        on_refire=on_refire,
                                        priority=priority)

    def stats(self) -> CoordinatorStats:
        """A consistent snapshot of the admission counters."""
        with self._lock:
            return self._admission.stats()

    def shutdown(self) -> None:
        """Cancel every queued and running build and refuse new submits.

        Queued builds are dequeued; running builds get their cancel flag
        set and stop cooperatively before their next basic-model fit.
        Every live subscriber handle resolves to ``discarded``; each
        subscribed engine observes that at its next update boundary and
        restores its refresh request as pending (so the drift stays
        answerable across a checkpoint/restart) —
        :meth:`StreamFleet.shutdown <repro.streaming.multi.StreamFleet.shutdown>`
        restores them eagerly instead.  Idempotent.  Call :meth:`drain`
        afterwards to wait for the build threads to exit.
        """
        with self._lock:
            release = self._perform_locked(self._admission.shutdown())
        _release(release)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for all build threads to exit (True if they all have).

        ``timeout`` bounds the whole call, not each join.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._lock:
            threads = list(self._threads)
        drained = True
        for thread in threads:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
            drained = drained and not thread.is_alive()
        return drained

    # ------------------------------------------------------------------
    # Checkpointing (see repro.core.persistence.save_fleet, fleet v2)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Configuration + cumulative counters, JSON-serialisable.

        Queue contents are deliberately *not* persisted: an in-flight or
        queued build resolves at save time the same way a single
        detector's does — the build is discarded, each subscribing
        stream's refresh *request* is persisted as pending in its own
        detector state, and the resumed fleet deterministically
        re-submits (and re-dedups) from restored corpora when the gates
        next allow.
        """
        with self._lock:
            return self._admission.state_dict()

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "RefreshCoordinator":
        """Rebuild a coordinator (config + counters) from
        :meth:`state_dict`; the queue starts empty by design."""
        admission = Admission.from_state(state)
        coordinator = cls(admission.max_concurrent, admission.policy)
        coordinator._admission = admission
        coordinator._mirrored = dict(admission.counters)
        return coordinator

    # ------------------------------------------------------------------
    # The thread transport
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Client hook: thread builds resolve their handles themselves."""

    def _submit(self, client: CoordinatedRefreshClient, ensemble,
                history: np.ndarray, trigger_index: int,
                generation: int, trace=None) -> RefreshHandle:
        handle = RefreshHandle(trigger_index, generation)
        # Identity dedup, the save_fleet notion of sharing: only streams
        # scoring against the very same ensemble object would train the
        # same replacement.  A live build holds its ensemble, so the id
        # cannot be reused while the build can still be joined.
        key = id(ensemble)
        with self._lock:
            breaker = None
            if not self._admission.closed \
                    and self._admission.joinable(key) is None:
                breaker = self._breaker_for_locked(key)
                if breaker is not None and not breaker.allow():
                    self._reject_locked(breaker, handle, trace)
                    return handle
            job = _BuildJob(client.refresher, ensemble, history,
                            trigger_index, generation, trace,
                            threading.Event(), breaker)
            build, actions = self._admission.submit(key, handle,
                                                    client.priority, job)
            if build.payload is not job and trace is not None:
                # The joiner's admission resolves here: its drift is
                # answered by the leader's build.
                trace[1].set_attribute("deduped", True)
                trace[1].end()
            release = self._perform_locked(actions)
        _release(release)
        return handle

    def _unsubscribe(self, handle: RefreshHandle) -> None:
        """Drop one subscription; cancel the build if it was the last."""
        with self._lock:
            handle._resolve("discarded")
            release = self._perform_locked(
                self._admission.unsubscribe(handle)) + [handle]
        _release(release)

    def _reject_locked(self, breaker, handle: RefreshHandle, trace) -> None:
        """Fail fast: this ensemble's refresher has failed repeatedly and
        its cooldown has not elapsed.  The handle resolves failed (the
        stream observes a failed refresh at its next boundary and keeps
        serving); no training CPU is spent.  ``allow()`` itself admits
        the half-open probe once the cooldown passes."""
        from ..runtime.supervisor import BreakerOpen
        self._obs.rejected.inc()
        self._set_breaker_gauge(breaker)
        handle._finish("failed", error=BreakerOpen(
            "refresh build rejected: this ensemble's circuit breaker is "
            "open after repeated build failures; the next trigger after "
            "the cooldown runs as a probe"))
        handle.done.set()
        if trace is not None:
            trace[1].set_attribute("breaker_rejected", True)
            trace[1].end()

    def _breaker_for_locked(self, key: int):
        """This ensemble's circuit breaker (created on first submission),
        or None when breaking is not configured.  Caller holds the lock."""
        if self.breaker_factory is None:
            return None
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self.breaker_factory()
            self._breakers[key] = breaker
        return breaker

    def _set_breaker_gauge(self, breaker) -> None:
        """Mirror a breaker's state onto the ``repro_breaker_state``
        gauge (0 closed / 1 open / 2 half_open, most recent change
        wins)."""
        from ..runtime.supervisor import BREAKER_STATES
        self._obs.breaker_state.set(BREAKER_STATES.get(breaker.state, -1))

    def _perform_locked(self, actions: list) -> List[RefreshHandle]:
        """Carry out the core's actions.  Caller holds the lock; returns
        the handles to release once it is dropped (and any hook ran)."""
        release: List[RefreshHandle] = []
        for action in actions:
            build = action.build
            if isinstance(action, Dispatch):
                # A retry's Dispatch resumes the build's own thread,
                # which is waiting out the backoff.
                if build.attempts == 0:
                    self._threads = [thread for thread in self._threads
                                     if thread.is_alive()]
                    thread = threading.Thread(
                        target=self._run, args=(build,),
                        name=f"refresh-coord-{build.id}", daemon=True)
                    self._threads.append(thread)
                    thread.start()
            elif isinstance(action, CancelWorker):
                build.payload.cancel.set()
            elif isinstance(action, Resolve):
                for handle in action.subscribers:
                    if action.status == "ready":
                        replacement, report = action.result
                        handle._finish(
                            "ready", replacement=replacement,
                            report=_report_for(report,
                                               handle.trigger_index))
                    elif action.status == "failed":
                        handle._finish("failed", error=action.result)
                    else:
                        handle._resolve("discarded")
                release.extend(action.subscribers)
        # Mirror the ledger's movement into the process-wide registry.
        counters = self._admission.counters
        for name, counter in self._obs.ledger.items():
            if counters[name] != self._mirrored[name]:
                counter.inc(counters[name] - self._mirrored[name])
        self._mirrored = dict(counters)
        self._obs.queue_depth.set(self._admission.n_queued)
        self._obs.builds_running.set(self._admission.n_running)
        return release

    def _run(self, build) -> None:
        """A build thread: run attempts until the core stops retrying."""
        if self.build_runner is None:
            _yield_cores_to_serving()   # this thread trains
        job: _BuildJob = build.payload
        root, admission = job.trace if job.trace is not None \
            else (None, None)
        if admission is not None:
            admission.end()      # build starts: queue wait is over
        tracer = default_tracer()
        span = tracer.start_span("refresh.build", parent=root, mode="async",
                                 n_subscribers=len(build.subscribers)) \
            if root is not None else None
        while True:
            try:
                if job.cancel.is_set():
                    raise TrainingCancelled(0)
                if build.attempts == 0 and self.on_build_start is not None:
                    # Inside the guard: a raising telemetry hook fails
                    # the build instead of wedging every subscriber.
                    self.on_build_start(build)
                with tracer.use(span) if span is not None \
                        else contextlib.nullcontext():
                    replacement, report = self._call_build(job)
                # Pack the fused inference weights on this build thread
                # so no subscriber's serving thread pays the packing cost
                # at its boundary swap (no-op for the canonical
                # refresher, which prepares inside build()).
                prepare = getattr(replacement, "prepare_fused", None)
                if prepare is not None:
                    prepare()
                outcome, value = "done", (replacement, report)
            except TrainingCancelled:
                outcome, value = "cancelled", None
            except Exception as exc:
                outcome, value = "failed", exc
            now = time.monotonic()
            with self._lock:
                if outcome == "done":
                    actions = self._admission.done(build.id, value)
                elif outcome == "failed":
                    actions = self._admission.failed(build.id, value, now)
                else:
                    actions = self._admission.cancelled(build.id)
                release = self._perform_locked(actions)
            retry_at = next((action.at for action in actions
                             if isinstance(action, RetryAt)), None)
            if retry_at is None:
                break
            self._obs.retry_delay.observe(retry_at - now)
            if span is not None:
                span.set_attribute("retries", build.attempts)
            # Interruptible backoff: a cancel during the wait ends the
            # build (the core already resolved it) instead of sleeping.
            while not job.cancel.is_set() \
                    and time.monotonic() < retry_at:
                job.cancel.wait(retry_at - time.monotonic())
            with self._lock:
                self._perform_locked(self._admission.tick(time.monotonic()))
        if job.breaker is not None and build.status in ("ready", "failed"):
            # Only terminal build outcomes move the breaker; cancellations
            # say nothing about the refresher's health.  A half-open probe
            # resolves here: success closes the breaker, failure re-opens
            # it with a fresh cooldown.
            if build.status == "ready":
                job.breaker.record_success()
            else:
                job.breaker.record_failure()
            self._set_breaker_gauge(job.breaker)
        if span is not None:
            span.set_attribute("status", build.status)
            span.end()
        try:
            if self.on_build_done is not None:
                self.on_build_done(build)
        finally:
            _release(release)      # even if the done-hook raises

    def _call_build(self, job: _BuildJob):
        """Invoke the leader's ``build`` (or the build runner),
        forwarding the cancel flag when the refresher supports it."""
        if faults.enabled:
            faults.point("coordinator.build")
        if self.build_runner is not None:
            kwargs = dict(generation=job.generation,
                          trigger_index=job.trigger_index, mode="process")
            return self.build_runner(job.refresher, job.ensemble,
                                     job.history, job.trigger_index,
                                     kwargs, job.cancel)
        kwargs = dict(generation=job.generation,
                      trigger_index=job.trigger_index, mode="async")
        if _accepts_cancel(job.refresher.build):
            kwargs["cancel"] = job.cancel
        return job.refresher.build(job.ensemble, job.history,
                                   job.trigger_index, **kwargs)


def _yield_cores_to_serving() -> None:
    """Drop the calling build thread to the lowest CPU priority.

    An in-process build and its BLAS helpers can outnumber the host's
    cores; at equal priority the scheduler then preempts the serving
    thread for a whole slice (~4-5 ms), which sets an async refresh's p99
    update latency.  At nice 19 a runnable serving thread takes the core
    at once and the build trains on what serving leaves idle.  Linux
    only: there ``setpriority`` on a thread id acts on that thread alone,
    and raising one's own niceness needs no privilege.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
    except OSError:
        pass


def _release(handles: List[RefreshHandle]) -> None:
    for handle in handles:
        handle.done.set()

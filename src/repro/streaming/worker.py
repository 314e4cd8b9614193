"""Background refresh builds: training off the serving path.

Inline refresh retrains on the ingesting thread, so scoring latency
spikes by the full training time exactly when drift makes fresh scores
matter most.  :class:`RefreshWorker` resolves that serving-vs-adaptation
tension the way DDD-style drift ensembles do — train the replacement
learner in the background while the old model keeps serving:

* the engine snapshots the retraining corpus and :meth:`submit`\\ s a
  build; a daemon thread runs :meth:`EnsembleRefresher.build` (pure — no
  refresher state moves until commit);
* scoring continues against the old ensemble and **never** joins the
  thread; the engine polls the returned :class:`RefreshHandle` at
  ``update()``/``update_batch()`` boundaries and swaps atomically once
  the build is ready;
* at most one build is in flight per worker.  When drift re-fires
  mid-build the engine applies the worker's ``on_refire`` policy:
  ``"drop"`` discards the new trigger (the in-flight build already
  answers the regime change), ``"queue"`` keeps it pending so a follow-up
  build starts — on post-swap history — once the current one has swapped.

The handle's status moves ``building -> ready | failed`` on the worker
thread (guarded by a lock) and ``ready -> swapped`` / ``* -> discarded``
on the engine thread, so every build resolves to exactly one terminal
state.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

import numpy as np

from ..obs import default_tracer

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
        """Worker-side terminal transition; loses to a prior discard.

        Does not signal ``done`` — the worker does, after the done-hook
        has run, so observers woken by ``wait()`` see hooks completed.
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


class _BuildConsumer:
    """Shared per-stream handle lifecycle of the engine's build
    executors (:class:`RefreshWorker` and the coordinator's
    :class:`~repro.streaming.coordinator.CoordinatedRefreshClient`).

    The engine duck-types against this exact surface, so it lives in
    one place: ``handle``/``busy`` expose the active request,
    ``poll``/``take`` hand over the handle once its build resolved —
    including a handle another actor discarded (e.g. a coordinator
    shutdown), which the engine turns back into a pending request.
    """

    _handle: Optional[RefreshHandle] = None

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
        consumer has not observed yet.  Any attached handle means the
        stream's refresh request is still unanswered; the engine's
        ``state_dict`` persists it as pending."""
        return self._handle

    @property
    def busy(self) -> bool:
        """Whether a build is in flight or awaiting its boundary swap."""
        return self.handle is not None

    def _drain(self) -> None:
        """Transport hook run before the handle is inspected.

        Thread-backed consumers resolve handles from their own build
        thread, so the default is a no-op.  Coordinator clients
        override it to pump their coordinator — for the process broker
        that pulls replies off the port's reply queue, the only place a
        remote build's terminal state can land in this process.
        """

    def poll(self) -> Optional[RefreshHandle]:
        """The attached handle once its build has resolved, else None.

        Non-blocking; the handle stays attached until :meth:`take` or
        :meth:`discard` consumes it.  A handle resolved *by someone
        else* (discarded by a coordinator shutdown) is still returned,
        so the engine can observe the abandonment at its next boundary.
        """
        self._drain()
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


class RefreshWorker(_BuildConsumer):
    """Runs refresh builds on a background thread, one at a time.

    Parameters
    ----------
    refresher: the policy object whose ``build`` runs off-thread — an
               :class:`~repro.streaming.refresh.EnsembleRefresher` or any
               duck-typed stand-in (tests use slow-trainer stubs).
    on_refire: what the engine does when drift fires while a build is in
               flight: ``"drop"`` or ``"queue"`` (see module docstring).

    ``on_build_start`` / ``on_build_done`` are optional callbacks invoked
    *on the worker thread* with the handle — event hooks for deterministic
    concurrency tests and production telemetry.

    The lifecycle, with an instant duck-typed refresher:

    >>> import numpy as np
    >>> class InstantRefresher:
    ...     n_refreshes = 0
    ...     def build(self, ensemble, history, index, **kwargs):
    ...         return "replacement", "report"
    >>> worker = RefreshWorker(InstantRefresher())
    >>> handle = worker.submit("serving", np.zeros((4, 1)),
    ...                        trigger_index=7)
    >>> handle.wait(30.0)                  # build finished ...
    True
    >>> handle.ready, handle.replacement
    (True, 'replacement')
    >>> worker.take() is handle            # ... engine adopts it at a
    True
    >>> worker.busy                        #     boundary; worker is free
    False
    """

    def __init__(self, refresher, on_refire: str = "queue"):
        if on_refire not in REFIRE_POLICIES:
            raise ValueError(f"on_refire must be one of {REFIRE_POLICIES}, "
                             f"got {on_refire!r}")
        self.refresher = refresher
        self.on_refire = on_refire
        # Mirrors the coordinator client's admission gate: a shutting-
        # down fleet sets it False and the engine then parks refresh
        # requests instead of submitting new private builds.
        self.accepting = True
        self.on_build_start: Optional[Callable] = None
        self.on_build_done: Optional[Callable] = None
        self._handle: Optional[RefreshHandle] = None
        self._thread: Optional[threading.Thread] = None

    def submit(self, ensemble, history: np.ndarray, trigger_index: int,
               generation: Optional[int] = None,
               trace=None) -> RefreshHandle:
        """Start a background build of a replacement for ``ensemble``.

        ``history`` must be a snapshot the caller will not mutate (the
        engine passes the corpus buffer's ``to_array()`` copy); the
        ensemble is only read.  ``generation`` pins the build's seed
        offset (the engine passes its committed-refresh count, which —
        unlike the refresher's own — survives checkpoint resume).
        ``trace`` is an optional ``(root_span, admission_span)`` pair
        from the submitting stream's refresh trace: the admission span is
        ended when the build starts and the build span is parented to the
        root, so the cross-thread lifecycle reads as one trace.
        Raises if a build is already in flight.
        """
        if self.busy:
            raise RuntimeError("a refresh build is already in flight; "
                               "poll or discard it before submitting")
        handle = RefreshHandle(trigger_index,
                               generation=self.refresher.n_refreshes
                               if generation is None else generation)
        history = np.asarray(history, dtype=np.float64)
        self._handle = handle
        self._thread = threading.Thread(
            target=self._run, args=(handle, ensemble, history, trace),
            name=f"refresh-build-{trigger_index}", daemon=True)
        self._thread.start()
        return handle

    def _run(self, handle: RefreshHandle, ensemble,
             history: np.ndarray, trace=None) -> None:
        root, admission = trace if trace is not None else (None, None)
        if admission is not None:
            admission.end()      # build starts: queueing/admission over
        tracer = default_tracer()
        build_span = tracer.start_span("refresh.build", parent=root,
                                       mode="async") \
            if root is not None else None
        try:
            # The start-hook runs inside the guard: a raising telemetry
            # hook fails the build (surfaced at the next boundary)
            # instead of wedging the handle in 'building' forever.
            if self.on_build_start is not None:
                self.on_build_start(handle)
            if build_span is not None:
                # Current-span adoption, so refresh.pack (inside the
                # canonical refresher's build) nests under the build.
                with tracer.use(build_span):
                    replacement, report = self.refresher.build(
                        ensemble, history, handle.trigger_index,
                        generation=handle.generation,
                        trigger_index=handle.trigger_index, mode="async")
            else:
                replacement, report = self.refresher.build(
                    ensemble, history, handle.trigger_index,
                    generation=handle.generation,
                    trigger_index=handle.trigger_index, mode="async")
        except Exception as error:
            handle._finish("failed", error=error)
            if build_span is not None:
                build_span.set_attribute("status", "failed")
                build_span.end()
        else:
            # Duck-typed refreshers may build real ensembles without the
            # canonical EnsembleRefresher.build: make sure the fused
            # inference weights are packed off the serving thread too
            # (no-op when the build already prepared them).
            prepare = getattr(replacement, "prepare_fused", None)
            if prepare is not None:
                prepare()
            handle._finish("ready", replacement=replacement, report=report)
            if build_span is not None:
                build_span.set_attribute("status", handle.status)
                build_span.end()
        try:
            if self.on_build_done is not None:
                self.on_build_done(handle)
        finally:
            handle.done.set()          # even if the done-hook raises

    def discard(self) -> Optional[RefreshHandle]:
        """Abandon the active build, if any; its result will never serve.

        The build thread, if still running, finishes into the discarded
        state and its replacement is dropped.  Returns the abandoned
        handle.
        """
        handle = self.handle
        self._handle = None
        if handle is not None:
            handle._resolve("discarded")
        return handle

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the build thread to exit (True if it has)."""
        thread = self._thread
        if thread is None or not thread.is_alive():
            return True
        thread.join(timeout)
        return not thread.is_alive()

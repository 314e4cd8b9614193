"""The online detection engine: a long-running, drift-aware detector.

:class:`StreamingDetector` turns a fitted :class:`~repro.core.CAEEnsemble`
into a stream processor.  Each arriving observation is scored by one
forward pass over the window ending at it (the Table 8 online path); the
score stream feeds an online threshold calibrator
(:mod:`repro.streaming.calibration`) and optional concept-drift detectors
(:mod:`repro.streaming.drift`).  When drift is confirmed and a refresher
is attached (:mod:`repro.streaming.refresh`), the ensemble is retrained on
a recent-history corpus, warm-started from the old models' parameters.

Hot path
--------
``update(x)`` scores one observation; ``update_batch(X)`` scores a
micro-batch of arrivals with **one** forward pass per basic model,
amortising the per-call overhead (Python dispatch, embedding setup, conv
im2col) over the whole batch.  Both paths produce identical scores —
micro-batching is purely a throughput optimisation (see
``benchmarks/test_streaming_throughput.py``).

Refresh modes
-------------
``refresh_mode="inline"`` retrains on the ingesting thread: the arrival
that passes the refresher's gates pays the full training time before its
``StreamUpdate`` returns.  ``refresh_mode="async"`` hands the build to a
:class:`~repro.streaming.coordinator.RefreshCoordinator` — the fleet's
shared one when ``coordinator=`` is given, else a private one per
attached refresher: the old ensemble keeps serving (scoring never blocks
on the build) and the replacement is swapped in **atomically at the next
``update()``/``update_batch()`` boundary** after the build finishes —
the whole batch is scored by one ensemble, never a mixture.
``pending_refresh`` exposes the in-flight build's
:class:`~repro.streaming.coordinator.RefreshHandle`; drift re-firing
mid-build follows the ``refresh_refire`` drop/queue policy (see
:mod:`repro.streaming.coordinator`).  ``poll_refresh()`` is an explicit
boundary for idle streams, and ``wait_for_refresh()`` blocks until the
build lands (for tests and draining).
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import Dict, List, Optional

import numpy as np

from ..core.ensemble import CAEEnsemble
from ..datasets.windows import sliding_windows
from ..obs import default_registry, default_tracer
from .buffer import (HistoryBuffer, SlidingWindow, history_buffer_from_state,
                     require_finite)
from .calibration import calibrator_from_state
from .coordinator import (REFIRE_POLICIES, AdmissionClosed,
                          CoordinatedRefreshClient, RefreshCoordinator)
from .drift import DriftEvent, drift_detector_from_state
from .refresh import RefreshReport

REFRESH_MODES = ("inline", "async")


class _StreamTelemetry:
    """One detector's cached instruments (see ``docs/observability.md``).

    Bound at construction (and re-bound on checkpoint resume — telemetry
    is runtime state, never serialized).  Per-stream *counters* carry a
    ``stream`` label when the detector is named; latency *histograms*
    are process-global so fleet cardinality stays bounded.  With a
    :class:`~repro.obs.NullRegistry` every instrument is a shared no-op
    and ``enabled`` lets the hot path skip its clock reads entirely.
    """

    __slots__ = ("enabled", "updates", "update_seconds", "batch_seconds",
                 "alerts", "drift_events", "refreshes", "history_rows",
                 "swap_lag", "build_seconds")

    def __init__(self, registry, name: Optional[str]):
        self.enabled = registry.enabled
        labels = {"stream": name} if name else {}
        self.updates = registry.counter("repro_stream_updates_total",
                                        **labels)
        self.alerts = registry.counter("repro_stream_alerts_total",
                                       **labels)
        self.drift_events = registry.counter(
            "repro_stream_drift_events_total", **labels)
        self.refreshes = registry.counter("repro_stream_refreshes_total",
                                          **labels)
        self.history_rows = registry.gauge("repro_stream_history_rows",
                                           **labels)
        self.update_seconds = registry.histogram(
            "repro_stream_update_seconds")
        self.batch_seconds = registry.histogram(
            "repro_stream_update_batch_seconds")
        self.build_seconds = registry.histogram(
            "repro_refresh_build_seconds")
        self.swap_lag = registry.histogram(
            "repro_refresh_swap_lag_arrivals", low=1.0, high=1e6,
            buckets_per_decade=3)


@dataclasses.dataclass
class PreparedBatch:
    """A micro-batch readied for scoring but not yet scored.

    The two-phase split behind cross-stream micro-batch coalescing
    (:meth:`StreamingDetector.prepare_update` /
    :meth:`StreamingDetector.apply_update`): a coalescer prepares one
    batch per stream, stacks every prepared ``windows`` array that
    shares an ensemble into **one** fused scoring call, then applies
    each stream's slice of the scores.  ``windows`` is ``None`` while
    the stream's very first window is still filling (nothing scoreable
    this batch).  The plain :meth:`StreamingDetector.update_batch` is
    exactly ``apply_update(prepare_update(x), ensemble.score(...))`` —
    one code path, so coalesced and serial results are bit-identical.
    """
    n: int
    first_scoreable: int
    windows: Optional[np.ndarray]
    ensemble: CAEEnsemble
    tick: float = 0.0


@dataclasses.dataclass(frozen=True)
class StreamUpdate:
    """Outcome of ingesting one observation.

    ``score`` is None while the very first window is still filling.
    ``threshold`` is the alert level the score was compared against (None
    before calibration finished).  ``refreshed`` marks the arrival at
    which a model refresh landed: in inline mode the arrival whose update
    completed the retrain (scores from the *next* arrival on come from
    the refreshed ensemble); in async mode the first arrival after the
    boundary swap (whose own score already comes from the refreshed
    ensemble).
    """
    index: int
    score: Optional[float]
    threshold: Optional[float]
    alert: bool
    drift: Optional[DriftEvent] = None
    refreshed: bool = False


class StreamingDetector:
    """Online outlier detection with drift-aware model refresh.

    A minimal end-to-end run (tiny ensemble, tiny budget):

    >>> import numpy as np
    >>> from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
    >>> series = np.sin(np.arange(200.0) / 9.0)[:, None]
    >>> ensemble = CAEEnsemble(
    ...     CAEConfig(input_dim=1, embed_dim=4, window=8, n_layers=1),
    ...     EnsembleConfig(n_models=1, epochs_per_model=1, seed=0,
    ...                    max_training_windows=32)).fit(series)
    >>> from repro.streaming import BurnInMAD
    >>> detector = StreamingDetector(ensemble,
    ...                              calibrator=BurnInMAD(16, 8.0),
    ...                              history=64)
    >>> detector.warm_up(series[-7:])      # window-1 rows of context
    >>> updates = detector.update_batch(series[:20])
    >>> detector.n_observations
    20
    >>> all(update.score is not None for update in updates)
    True
    >>> detector.threshold is not None     # calibrated after burn-in
    True

    Parameters
    ----------
    ensemble:        a *fitted* CAE-Ensemble (scored read-only, so many
                     detectors may share one instance — see
                     :mod:`repro.streaming.multi`).
    calibrator:      online threshold calibrator; without one, scores are
                     produced but no alerts are raised.
    drift_detector:  drift detector over the score stream; without one, no
                     :class:`DriftEvent` is ever emitted.
    refresher:       drift-triggered refresh policy; only consulted when a
                     ``"drift"``-kind event fires.  Its corpus settings
                     pick the history buffer implementation.
    history:         capacity (rows) of the recent-history corpus used for
                     refresh retraining.
    refresh_mode:    ``"inline"`` (retrain on the ingesting thread) or
                     ``"async"`` (background build, boundary swap).
    refresh_refire:  ``"drop"`` or ``"queue"`` — what a confirmed drift
                     does while an async build is already in flight.
    history_buffer:  a pre-built refresh-corpus buffer to adopt instead
                     of constructing one from ``history`` and the
                     refresher's corpus settings (checkpoint resume
                     passes the deserialized buffer here; ``history`` is
                     then ignored).
    registry:        metrics registry for the serve-path and refresh
                     instruments; None binds the process default
                     (:func:`repro.obs.default_registry`).  Pass a
                     :class:`~repro.obs.NullRegistry` to disable this
                     detector's telemetry at near-zero cost.  Never
                     serialized: a resumed detector re-binds to the
                     process default.
    name:            stream name used as the ``stream`` label on this
                     detector's per-stream counters (fleets pass the
                     stream's name); anonymous detectors share the
                     unlabeled series.
    coordinator:     a fleet-shared
                     :class:`~repro.streaming.coordinator.RefreshCoordinator`
                     through which async builds are admitted (bounded
                     concurrency, dedup across streams sharing this
                     ensemble) instead of each detector admitting its
                     builds through a private coordinator.  Requires
                     ``refresh_mode="async"``.
    refresh_priority: admission priority of this stream's builds under a
                     coordinator's ``"priority"`` policy (higher runs
                     first; ignored without a coordinator).
    """

    def __init__(self, ensemble: CAEEnsemble, calibrator=None,
                 drift_detector=None, refresher=None, history: int = 2048,
                 refresh_mode: str = "inline",
                 refresh_refire: str = "queue", history_buffer=None,
                 registry=None, name: Optional[str] = None,
                 coordinator=None, refresh_priority: int = 0):
        if not ensemble.models:
            raise ValueError("StreamingDetector needs a fitted ensemble")
        if refresh_mode not in REFRESH_MODES:
            raise ValueError(f"refresh_mode must be one of {REFRESH_MODES}, "
                             f"got {refresh_mode!r}")
        if refresh_refire not in REFIRE_POLICIES:
            raise ValueError(f"refresh_refire must be one of "
                             f"{REFIRE_POLICIES}, got {refresh_refire!r}")
        if coordinator is not None and refresh_mode != "async":
            raise ValueError("a RefreshCoordinator admits background "
                             "builds; it requires refresh_mode='async'")
        self.coordinator = coordinator
        self.refresh_priority = int(refresh_priority)
        self.name = name
        self._bind_telemetry(registry)
        # The open refresh-lifecycle trace root (runtime state, never
        # persisted): created at the drift trigger, closed at the swap.
        self._refresh_trace = None
        self.ensemble = ensemble
        self.calibrator = calibrator
        self.drift_detector = drift_detector
        self.refresh_mode = refresh_mode
        self.refresh_refire = refresh_refire
        self._last_refresh_index: Optional[int] = None
        self.refresher = refresher          # property: syncs cooldown clock
        window = ensemble.cae_config.window
        dims = ensemble.cae_config.input_dim
        self._window = SlidingWindow(window, dims)
        if history_buffer is not None:
            if history_buffer.dims != dims:
                raise ValueError(f"history buffer carries "
                                 f"{history_buffer.dims} dims, ensemble "
                                 f"expects {dims}")
            if history_buffer.capacity < window:
                raise ValueError(f"history buffer capacity "
                                 f"({history_buffer.capacity}) must hold "
                                 f"at least one window ({window})")
            self._history = history_buffer
            self._warn_corpus_mismatch()
        else:
            if history < window:
                raise ValueError(f"history ({history}) must hold at least "
                                 f"one window ({window})")
            make_corpus = getattr(refresher, "make_history_buffer", None)
            self._history = make_corpus(history, dims, window) \
                if make_corpus is not None else HistoryBuffer(history, dims)
        self._index = 0
        self._pending_refresh = False
        self._pending_trigger_index: Optional[int] = None
        self._worker: Optional[CoordinatedRefreshClient] = None
        self._announce_refresh = False
        self.alerts: List[int] = []
        self.drift_events: List[DriftEvent] = []
        self.refresh_reports: List[RefreshReport] = []

    # ------------------------------------------------------------------
    def _bind_telemetry(self, registry=None) -> None:
        """Cache this detector's instruments (construction and resume).

        Telemetry is runtime state: it is never serialized into
        checkpoints, and a resumed detector binds to the process default
        registry unless handed another one.
        """
        self._registry = registry if registry is not None \
            else default_registry()
        self._obs = _StreamTelemetry(self._registry, self.name)

    @property
    def registry(self):
        """The metrics registry this detector records into."""
        return self._registry

    @property
    def refresher(self):
        return self._refresher

    @refresher.setter
    def refresher(self, refresher) -> None:
        """Attach a refresh policy; the detector's persisted cooldown
        clock is pushed into it so a refresher attached after a resume
        (or after ``load_streaming_detector(..., refresher=None)``) cannot
        refresh sooner than the uninterrupted detector would have.
        A build the *old* refresher has in flight is abandoned — its
        policy object is obsolete — so at most one *adoptable* build
        exists at a time.  The abandoned build is cancelled: a refresher
        whose ``build`` takes ``cancel`` (the canonical one does) stops
        before its next basic model; a duck-typed one without it trains
        to completion on its own thread, briefly overlapping a successor
        build's CPU, and its result is dropped.  The abandoned build's
        *request* is restored as pending (same contract as checkpointing
        mid-build), so the new refresher re-runs it once its gates allow
        — even when detaching with ``refresher=None``, where the request
        waits on the detector for a refresher attached later."""
        self._refresher = refresher
        worker = getattr(self, "_worker", None)
        if worker is not None and worker.refresher is not refresher:
            abandoned = worker.discard()
            if abandoned is not None:
                self._restore_request(abandoned.trigger_index)
        self._sync_refresher_clock()
        self._warn_corpus_mismatch()

    def _restore_request(self, trigger_index: int) -> None:
        """Re-register a refresh request whose build will never deliver
        (abandoned, failed, or never started); the earliest unresolved
        trigger is kept."""
        self._pending_refresh = True
        if self._pending_trigger_index is None:
            self._pending_trigger_index = trigger_index
        # One trace root per refresh lifecycle: opened here (the trigger
        # or a restore after failure/abandonment when no root is open),
        # closed by the eventual swap.  An instant refresh.trigger child
        # marks the requesting arrival.
        if self._refresh_trace is None:
            tracer = default_tracer()
            if tracer.enabled:
                root = tracer.start_span("refresh",
                                         stream=self.name or "",
                                         trigger_index=trigger_index)
                tracer.start_span("refresh.trigger", parent=root,
                                  index=trigger_index).end()
                self._refresh_trace = root

    def _sync_refresher_clock(self) -> None:
        """Two-way sync to the later cooldown clock: the detector
        persists it (a refresher attached already mid-cooldown must
        survive checkpoints) and the refresher gates on it."""
        refresher = self._refresher
        if refresher is None:
            return
        clock = getattr(refresher, "last_refresh_index", None)
        mine = self._last_refresh_index
        if mine is not None and (clock is None or clock < mine):
            refresher.last_refresh_index = mine
        elif clock is not None and (mine is None or mine < clock):
            self._last_refresh_index = clock

    def _warn_corpus_mismatch(self) -> None:
        """The corpus buffer is stream state: once the detector owns one,
        a refresher's *explicit* corpus setting cannot change it — warn
        so the mismatch is not silent (applies to checkpoint resume and
        to mid-run refresher swaps alike)."""
        refresher = self._refresher
        history = getattr(self, "_history", None)
        wanted = getattr(refresher, "corpus", None) \
            if refresher is not None else None
        if wanted is not None and history is not None \
                and wanted != history.kind:
            warnings.warn(
                f"detector already carries a {history.kind!r} refresh "
                f"corpus; the attached refresher's corpus={wanted!r} is "
                f"ignored (the corpus is stream state) — build a fresh "
                f"detector to change corpus kinds", stacklevel=3)

    @property
    def n_observations(self) -> int:
        """Stream arrivals ingested via update/update_batch."""
        return self._index

    @property
    def n_alerts(self) -> int:
        return len(self.alerts)

    @property
    def n_refreshes(self) -> int:
        return len(self.refresh_reports)

    @property
    def threshold(self) -> Optional[float]:
        return self.calibrator.threshold if self.calibrator else None

    @property
    def history_length(self) -> int:
        return len(self._history)

    @property
    def refresh_worker(self):
        """The async build port (created on first async submit): a
        :class:`~repro.streaming.coordinator.CoordinatedRefreshClient`
        of the fleet coordinator, or of a private one without it."""
        return self._worker

    @property
    def pending_refresh(self):
        """The in-flight async build's handle, if one exists."""
        return self._worker.handle if self._worker is not None else None

    # ------------------------------------------------------------------
    def warm_up(self, series: np.ndarray) -> None:
        """Seed the window/history buffers with context observations.

        Typically the tail of the training series, so the very first
        stream arrival already completes a full window.  Warm-up rows are
        context only: they are not scored and do not advance the stream
        index.
        """
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError(f"expected (L, D) series, got {series.shape}")
        self._window.push_many(series)
        self._history.push_many(series)

    def update(self, observation: np.ndarray) -> StreamUpdate:
        """Ingest and score a single observation ``(D,)``."""
        observation = np.asarray(observation, dtype=np.float64)
        if observation.ndim != 1:
            raise ValueError(f"expected a (D,) observation, "
                             f"got shape {observation.shape}")
        obs = self._obs
        if not obs.enabled:
            return self.update_batch(observation[None])[0]
        tick = time.perf_counter()
        update = self.update_batch(observation[None])[0]
        obs.update_seconds.observe(time.perf_counter() - tick)
        return update

    def update_batch(self, observations: np.ndarray) -> List[StreamUpdate]:
        """Ingest a micro-batch ``(B, D)`` of consecutive arrivals.

        All B windows are scored with one forward pass per basic model —
        the throughput path.  Calibration, alerting and drift detection
        then run per arrival in order, so results are identical to B
        scalar :meth:`update` calls.  A finished async build is swapped in
        at the top of the call, before any scoring, so the whole batch is
        scored by a single ensemble.  If a mid-batch drift event completes
        an *inline* refresh, the remaining scores of this batch still come
        from the pre-refresh ensemble (it was serving when they were
        computed) and are therefore *excluded* from the freshly reset
        calibration and drift state — they are on the old ensemble's score
        scale; the refreshed ensemble takes over from the next call.
        """
        prepared = self.prepare_update(observations)
        scores = None if prepared.windows is None \
            else self.ensemble.score_windows_last(prepared.windows)
        return self.apply_update(prepared, scores)

    def prepare_update(self, observations: np.ndarray) -> PreparedBatch:
        """Phase one of :meth:`update_batch`: ready a batch for scoring.

        Adopts a finished background build (the batch-boundary swap),
        assembles the scoreable windows over the pre-batch context and
        pushes the arrivals into the window/history buffers.  The
        returned :class:`PreparedBatch` names the ensemble that must
        score ``windows`` — grouping prepared batches by that ensemble
        (identity) is what lets a coalescer stack windows from many
        streams into one fused call.  Every prepared batch must be
        completed with :meth:`apply_update` before this stream is
        touched again.
        """
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim != 2 or \
                observations.shape[1] != self._window.dims:
            raise ValueError(f"expected (B, {self._window.dims}) "
                             f"observations, got {observations.shape}")
        # Validated once, before either buffer is touched.
        require_finite(observations)
        n = observations.shape[0]
        obs = self._obs
        tick = time.perf_counter() if obs.enabled else 0.0
        if n == 0:
            return PreparedBatch(n=0, first_scoreable=0, windows=None,
                                 ensemble=self.ensemble, tick=tick)
        # Boundary: adopt a finished background build before scoring, so
        # every score of this batch comes from one ensemble.
        self.poll_refresh()
        window = self._window.window
        tail = np.asarray(self._window.tail(min(len(self._window),
                                                window - 1)))
        context = np.concatenate([tail, observations]) if tail.size \
            else observations
        # Arrival i sits at context row len(tail)+i; it is scoreable once
        # that row is the end of a full window.
        first_scoreable = max(0, window - 1 - tail.shape[0])
        windows: Optional[np.ndarray] = None
        if context.shape[0] >= window:
            # Zero-copy: the windows stay a strided view over the batch
            # context; scoring scales/casts into reused buffers.
            windows = sliding_windows(context, window)
        self._window.push_validated(observations)
        self._history.push_validated(observations)
        return PreparedBatch(n=n, first_scoreable=first_scoreable,
                             windows=windows, ensemble=self.ensemble,
                             tick=tick)

    def apply_update(self, prepared: PreparedBatch,
                     scores: Optional[np.ndarray]) -> List[StreamUpdate]:
        """Phase two of :meth:`update_batch`: ingest the batch's scores.

        ``scores`` must be the per-window scores of
        ``prepared.windows`` — scored by ``prepared.ensemble``, either
        alone or as this stream's slice of a coalesced stack (the
        per-window results are identical either way).  Calibration,
        alerting, drift detection and refresh run per arrival in order,
        exactly as :meth:`update_batch` does.
        """
        n = prepared.n
        if n == 0:
            return []
        obs = self._obs
        tick = prepared.tick
        first_scoreable = prepared.first_scoreable

        updates: List[StreamUpdate] = []
        feed_state = True
        for i in range(n):
            index = self._index
            self._index += 1
            if scores is None or i < first_scoreable:
                update = StreamUpdate(index=index, score=None,
                                      threshold=self.threshold,
                                      alert=False)
            else:
                update = self._ingest_score(
                    index, float(scores[i - first_scoreable]),
                    feed_state=feed_state)
                if update.refreshed:
                    # The rest of this batch was scored by the replaced
                    # ensemble — keep it out of the fresh calibration
                    # state.
                    feed_state = False
            if self._announce_refresh:
                # A boundary swap landed just before this batch: mark its
                # first arrival so callers see where the refreshed
                # ensemble took over.
                update = dataclasses.replace(update, refreshed=True)
                self._announce_refresh = False
            updates.append(update)
        if obs.enabled:
            obs.batch_seconds.observe(time.perf_counter() - tick)
            obs.updates.inc(n)
            obs.history_rows.set(len(self._history))
        return updates

    def _ingest_score(self, index: int, score: float,
                      feed_state: bool = True) -> StreamUpdate:
        """Calibrate, alert, detect drift and (maybe) refresh for one score.

        ``feed_state=False`` reports the score without folding it into
        calibrator/drift state (post-refresh remainder of a micro-batch).
        """
        threshold = self.threshold
        alert = threshold is not None and score > threshold
        if alert:
            self.alerts.append(index)
            if self._obs.enabled:
                self._obs.alerts.inc()
        if feed_state and self.calibrator is not None:
            self.calibrator.observe(score)
        event: Optional[DriftEvent] = None
        refreshed = False
        if feed_state and self.drift_detector is not None:
            event = self.drift_detector.update(score, index)
        if event is not None:
            self.drift_events.append(event)
            if self._obs.enabled:
                self._obs.drift_events.inc()
            if event.kind == "drift" and self._refresher is not None:
                self._request_refresh(event.index)
        # Beyond the refresher's own gates, retraining needs at least one
        # full training window of history.
        if self._pending_refresh and self._refresher is not None and \
                len(self._history) > self.ensemble.cae_config.window and \
                self._refresher.ready(len(self._history), index):
            refreshed = self._start_refresh(index)
        return StreamUpdate(index=index, score=score, threshold=threshold,
                            alert=alert, drift=event, refreshed=refreshed)

    def _request_refresh(self, trigger_index: int) -> None:
        """Register a confirmed-drift refresh request.

        If the refresher's gates (history / cooldown) are closed right
        now, the request stays pending rather than being dropped.  A
        re-fire while an async build is in flight follows the drop/queue
        policy: ``drop`` ignores it, ``queue`` keeps it pending so a
        follow-up build runs on post-swap history once the current one
        has landed.
        """
        handle = self._worker.handle if self._worker is not None else None
        # Only a build that can still deliver justifies dropping the new
        # trigger; a FAILED build answers nothing, so the request must
        # register even under the drop policy.  (The client owns the
        # refire policy; the engine's refresh_refire only seeds it.)
        in_flight = handle is not None and handle.status in ("building",
                                                             "ready")
        if in_flight and self._worker.on_refire == "drop":
            return
        self._restore_request(trigger_index)

    def _start_refresh(self, index: int) -> bool:
        """Run (inline) or launch (async) the pending refresh.

        The seed generation is the detector's *committed* refresh count —
        not the refresher's, whose report list starts empty again when a
        fresh policy object is attached after a resume; using the
        detector's count keeps a resumed run's replacement weights
        bit-identical to the uninterrupted run's.
        """
        trigger = self._pending_trigger_index
        trigger = index if trigger is None else trigger
        generation = len(self.refresh_reports)
        tracer = default_tracer()
        root = self._refresh_trace
        if self.refresh_mode == "inline":
            if root is not None:
                # Inline builds run on the serving thread: adopt the
                # lifecycle root so the build (and the refresh.pack span
                # inside it) nest under this drift's trace.
                with tracer.use(root), \
                        tracer.span("refresh.build", mode="inline"):
                    replacement, report = self._refresher.build(
                        self.ensemble, self._history.to_array(), index,
                        generation=generation, trigger_index=trigger,
                        mode="inline")
            else:
                replacement, report = self._refresher.build(
                    self.ensemble, self._history.to_array(), index,
                    generation=generation, trigger_index=trigger,
                    mode="inline")
            self._pending_refresh = False
            self._pending_trigger_index = None
            self._commit_refresh(replacement, report)
            return True
        if self._worker is None or self._worker.refresher \
                is not self._refresher:
            # One private coordinator per client, not per detector: a
            # swapped-in refresher never queues behind the build its
            # predecessor's client just cancelled.
            coordinator = self.coordinator if self.coordinator is not None \
                else RefreshCoordinator()
            self._worker = coordinator.client(
                self._refresher, on_refire=self.refresh_refire,
                priority=self.refresh_priority)
        if not self._worker.accepting:
            # Admission is closed (coordinator shut down): the request
            # stays pending — it survives a checkpoint and re-submits
            # after a restart — rather than failing the serving thread.
            return False
        if self._worker.busy:
            # queue policy: the pending trigger waits for the in-flight
            # build to swap before a follow-up build may start.
            return False
        # The admission span covers submit -> build start (queueing and
        # dedup happen inside); the coordinator ends it.  The
        # (root, admission) pair rides along so build-side spans created
        # on the build thread join this stream's trace.
        trace = None
        if root is not None and tracer.enabled:
            trace = (root, tracer.start_span("refresh.admission",
                                             parent=root,
                                             trigger_index=trigger))
        try:
            self._worker.submit(self.ensemble, self._history.to_array(),
                                trigger_index=trigger,
                                generation=generation, trace=trace)
        except AdmissionClosed:
            # Shutdown raced our accepting check: park the request (the
            # flags were never cleared), same as a closed gate.
            if trace is not None:
                trace[1].set_attribute("admission_closed", True)
                trace[1].end()
            return False
        self._pending_refresh = False
        self._pending_trigger_index = None
        return False

    def _commit_refresh(self, replacement: CAEEnsemble,
                        report: RefreshReport) -> None:
        """Atomic swap: the old ensemble served every score up to here."""
        root = self._refresh_trace
        if root is not None:
            # Close this drift's lifecycle trace: an instant swap child,
            # then the root itself (open since the trigger).
            swap = default_tracer().start_span(
                "refresh.swap", parent=root,
                index=getattr(report, "index", None))
            lag = getattr(report, "swap_lag", None)
            if lag is not None:
                swap.set_attribute("swap_lag", lag)
            swap.end()
            root.end()
            self._refresh_trace = None
        if self._obs.enabled:
            self._obs.refreshes.inc()
            seconds = getattr(report, "train_seconds", None)
            if seconds is not None:
                self._obs.build_seconds.observe(seconds)
            lag = getattr(report, "swap_lag", None)
            if lag is not None and lag > 0:
                self._obs.swap_lag.observe(lag)
        self.ensemble = replacement
        # Fused inference weights are normally packed on the build
        # thread; make sure they exist before the next score either way
        # (no-op when already prepared, guarded for duck-typed stand-ins).
        prepare = getattr(replacement, "prepare_fused", None)
        if prepare is not None:
            prepare()
        if self._refresher is not None:
            self._refresher.commit(report)
        self.refresh_reports.append(report)
        self._last_refresh_index = report.index
        # The refreshed ensemble rescales scores (new scaler, new weights):
        # the old threshold and drift statistics are stale.
        if self.calibrator is not None:
            self.calibrator.reset()
        if self.drift_detector is not None:
            self.drift_detector.reset()

    def poll_refresh(self) -> bool:
        """Adopt a finished async build, if one is waiting (an explicit
        update boundary for idle streams).

        Returns True when a replacement was swapped in; the next emitted
        :class:`StreamUpdate` carries ``refreshed=True``.  A failed build
        re-raises its error here, on the serving thread.
        """
        if self._worker is None:
            return False
        handle = self._worker.take()
        if handle is None:
            return False
        if handle.status == "discarded":
            # Someone else abandoned the build (a coordinator shutdown
            # cancels every subscriber): the drift is still unanswered,
            # so the request is restored — the same resolution as an
            # engine-initiated discard — and survives checkpoints.
            self._restore_request(handle.trigger_index)
            return False
        if handle.status == "failed":
            # The drift is still unanswered: restore the request (the
            # same resolution a checkpoint of the failed build gets), so
            # an operator who catches this error keeps a detector that
            # will retry, then surface the failure on the serving thread.
            self._restore_request(handle.trigger_index)
            raise RuntimeError(
                f"async ensemble refresh (triggered at arrival "
                f"{handle.trigger_index}) failed") from handle.error
        if not handle._resolve("swapped"):
            return False
        report = dataclasses.replace(handle.report, index=self._index)
        self._commit_refresh(handle.replacement, report)
        self._announce_refresh = True
        return True

    def wait_for_refresh(self, timeout: Optional[float] = None) -> bool:
        """Block until the in-flight build finishes, then swap it in.

        Returns True if a swap happened.  Scoring callers never need
        this — it exists for drains, shutdowns and deterministic tests.
        """
        handle = self.pending_refresh
        if handle is None:
            return False
        if not handle.wait(timeout):
            return False
        return self.poll_refresh()

    # ------------------------------------------------------------------
    # Checkpointing (see repro.core.persistence)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable runtime state (excluding ensemble weights).

        An in-flight async build cannot be checkpointed (its weights are
        half-trained); it is recorded as a still-pending refresh trigger,
        so a resumed detector deterministically rebuilds it from its own
        (restored) corpus when the gates next allow — the build is
        *discarded*, the *request* survives.  A build that *failed* but
        whose error has not yet been raised at a boundary is treated the
        same way: the resumed detector retries the request (the exception
        object itself cannot be persisted; a live detector would instead
        raise it at its next boundary).
        """
        handle = self._worker.attached_handle \
            if self._worker is not None else None
        # Any unconsumed handle — including one externally discarded by
        # a coordinator shutdown — means the drift is still unanswered.
        in_flight = handle is not None and handle.status != "swapped"
        pending_trigger = self._pending_trigger_index
        if in_flight and pending_trigger is None:
            pending_trigger = handle.trigger_index
        return {
            "index": self._index,
            "pending_refresh": bool(self._pending_refresh or in_flight),
            "pending_trigger_index": pending_trigger,
            "announce_refresh": bool(self._announce_refresh),
            "refresh_mode": self.refresh_mode,
            "refresh_refire": self.refresh_refire,
            "refresh_priority": self.refresh_priority,
            "history_capacity": self._history.capacity,
            "window": self._window.state_dict(),
            "history": self._history.state_dict(),
            "alerts": list(self.alerts),
            "drift_events": [dataclasses.asdict(event)
                             for event in self.drift_events],
            "refresh_reports": [dataclasses.asdict(report)
                                for report in self.refresh_reports],
            "last_refresh_index": self._last_refresh_index,
            "calibrator": self.calibrator.state_dict()
            if self.calibrator is not None else None,
            "drift_detector": self.drift_detector.state_dict()
            if self.drift_detector is not None else None,
        }

    @classmethod
    def from_state(cls, ensemble: CAEEnsemble, state: Dict[str, object],
                   refresher=None, coordinator=None, registry=None,
                   name: Optional[str] = None) -> "StreamingDetector":
        """Rebuild a live detector from :meth:`state_dict`.

        The refresher holds policy, not stream state, so it is passed in
        fresh rather than persisted; the saved cooldown clock is restored
        onto it (and kept on the detector even when ``refresher`` is None,
        so attaching one later still honours the clock).  The refresh
        *corpus*, however, is stream state: the saved buffer (kind and
        contents) always wins over the refresher's ``corpus`` setting —
        a mismatch warns, because silently rebuilding the corpus would
        discard the retained history.  ``coordinator`` (policy, like the
        refresher) re-attaches the resumed detector to a fleet-shared
        admission queue; it only applies to async-mode states.
        Telemetry is runtime state, not stream state: nothing about it
        is persisted, and the resumed detector binds to ``registry`` (or
        the process default) afresh, with ``name`` as its stream label.
        """
        calibrator_state = state.get("calibrator")
        drift_state = state.get("drift_detector")
        refresh_mode = str(state.get("refresh_mode", "inline"))
        detector = cls(
            ensemble,
            calibrator=calibrator_from_state(calibrator_state)
            if calibrator_state is not None else None,
            drift_detector=drift_detector_from_state(drift_state)
            if drift_state is not None else None,
            refresher=refresher,
            refresh_mode=refresh_mode,
            refresh_refire=str(state.get("refresh_refire", "queue")),
            history_buffer=history_buffer_from_state(state["history"]),
            registry=registry, name=name,
            coordinator=coordinator if refresh_mode == "async" else None,
            refresh_priority=int(state.get("refresh_priority", 0)))
        detector._window.load_state_dict(state["window"])
        detector._index = int(state["index"])
        detector._pending_refresh = bool(state.get("pending_refresh",
                                                   False))
        trigger = state.get("pending_trigger_index")
        detector._pending_trigger_index = None if trigger is None \
            else int(trigger)
        # A checkpoint taken between a boundary swap and the next update
        # still owes callers the refreshed=True marker.
        detector._announce_refresh = bool(state.get("announce_refresh",
                                                    False))
        detector.alerts = [int(i) for i in state["alerts"]]
        detector.drift_events = [DriftEvent(**event)
                                 for event in state["drift_events"]]
        detector.refresh_reports = [RefreshReport(**report)
                                    for report in
                                    state.get("refresh_reports", [])]
        last_refresh = state.get("last_refresh_index")
        detector._last_refresh_index = None if last_refresh is None \
            else int(last_refresh)
        # The clock above was not yet known when the constructor attached
        # the refresher; sync it now (corpus mismatch, if any, already
        # warned once during construction).
        detector._sync_refresher_clock()
        return detector

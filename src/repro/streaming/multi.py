"""Serving many streams at once: the :class:`StreamFleet`.

Production monitoring rarely watches one series — an SMD-style deployment
watches hundreds of servers.  The fleet shards named streams over
detectors created by a factory: every stream needs its *own* sliding
window, calibrator and drift state (streams drift independently), but the
expensive part — the fitted ensemble — is read-only during scoring and is
shared across all detectors the factory closes over.

``shared_fleet`` is the common construction: one fitted ensemble, one
detector per stream, per-stream calibration::

    fleet = shared_fleet(ensemble,
                         calibrator_factory=lambda: BurnInMAD(200, 8.0),
                         drift_factory=DDMDrift)
    fleet.update_batch("server-12", batch)          # lazily creates it
    fleet.stats()                                   # per-stream counters
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Mapping, Optional

import numpy as np

from ..core.ensemble import CAEEnsemble
from ..obs import default_registry
from .engine import StreamingDetector, StreamUpdate


@dataclasses.dataclass(frozen=True)
class StreamStats:
    """Per-stream counters surfaced by :meth:`StreamFleet.stats`.

    The refresh-cost fields are fed from the detector's committed
    ``refresh_reports``, which every refresh path populates identically —
    inline, a private coordinator's build and a shared coordinator's
    (possibly deduplicated) build alike — so a shared-ensemble fleet
    reports the training cost behind every stream's swaps, not just
    the builds it ran itself.
    """
    name: str
    n_observations: int
    n_alerts: int
    n_drift_events: int
    n_refreshes: int
    n_async_refreshes: int = 0
    refresh_seconds: float = 0.0
    mean_refresh_lag: Optional[float] = None


class StreamFleet:
    """Named streams sharded over factory-created detectors.

    >>> import numpy as np
    >>> from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
    >>> series = np.sin(np.arange(200.0) / 9.0)[:, None]
    >>> ensemble = CAEEnsemble(
    ...     CAEConfig(input_dim=1, embed_dim=4, window=8, n_layers=1),
    ...     EnsembleConfig(n_models=1, epochs_per_model=1, seed=0,
    ...                    max_training_windows=32)).fit(series)
    >>> fleet = shared_fleet(ensemble, history=64)
    >>> _ = fleet.update_batch("server-1", series[:40])   # lazily created
    >>> _ = fleet.update_batch("server-2", series[:10])
    >>> fleet.names
    ['server-1', 'server-2']
    >>> fleet.total_observations
    50
    >>> [stat.n_observations for stat in fleet.stats()]
    [40, 10]

    Parameters
    ----------
    detector_factory: called with the stream name on first sight of that
                      name; returns the :class:`StreamingDetector` that
                      will own the stream.  Factories typically close over
                      one shared fitted ensemble.
    coordinator:      the fleet's shared
                      :class:`~repro.streaming.coordinator.RefreshCoordinator`,
                      if refresh builds go through admission control.
                      The fleet does not wire it into detectors itself —
                      the factory closes over it (``shared_fleet`` does
                      this) — but owning the reference lets
                      :meth:`stats`-style reporting, :meth:`shutdown` and
                      fleet checkpoints reach it.
    """

    def __init__(self,
                 detector_factory: Callable[[str], StreamingDetector],
                 coordinator=None):
        self._factory = detector_factory
        self._detectors: Dict[str, StreamingDetector] = {}
        self.coordinator = coordinator
        # Bound once, like the scorer's and server's instruments: the
        # process registry current when the fleet is built records it.
        registry = default_registry()
        self._coalesce_size = registry.histogram(
            "repro_fleet_coalesce_size", low=1.0, high=1e4,
            buckets_per_decade=4) if registry.enabled else None

    def __len__(self) -> int:
        return len(self._detectors)

    def __contains__(self, name: str) -> bool:
        return name in self._detectors

    @property
    def names(self) -> List[str]:
        return sorted(self._detectors)

    def detector(self, name: str) -> StreamingDetector:
        """The detector owning ``name`` (created on first access)."""
        if name not in self._detectors:
            self._detectors[name] = self._factory(name)
        return self._detectors[name]

    # ------------------------------------------------------------------
    def update(self, name: str, observation: np.ndarray) -> StreamUpdate:
        """Route one observation to its stream's detector."""
        return self.detector(name).update(observation)

    def update_batch(self, name: str,
                     observations: np.ndarray) -> List[StreamUpdate]:
        """Route a micro-batch to its stream's detector."""
        return self.detector(name).update_batch(observations)

    def update_many(self, batches: Mapping[str, np.ndarray]
                    ) -> Dict[str, List[StreamUpdate]]:
        """Ingest one micro-batch per stream, e.g. a scrape tick that
        collected a few seconds of telemetry from every server."""
        return {name: self.update_batch(name, observations)
                for name, observations in batches.items()}

    def update_coalesced(self, batches: Mapping[str, np.ndarray]
                         ) -> Dict[str, List[StreamUpdate]]:
        """:meth:`update_many`, but streams sharing an ensemble score in
        **one** fused batched call instead of per-stream serial calls.

        Each stream's batch is prepared first
        (:meth:`~repro.streaming.engine.StreamingDetector.prepare_update`
        — boundary swap, window assembly, buffer pushes), then prepared
        batches are grouped by the *identity* of the ensemble that must
        score them; every group's windows are stacked into a single
        ``score_windows_last`` call, and each stream applies its slice
        of the scores.  Per-window scores are independent of what else
        is in the stack, so results are bit-identical to
        :meth:`update_many` — coalescing is purely a throughput lever:
        the fused engine's per-call overhead (Python dispatch, layer
        setup, im2col) is paid once per *group*, not once per stream.

        The fused-group size (streams per scoring call) is observed in
        the ``repro_fleet_coalesce_size`` histogram of the process
        registry that was current when the fleet was built — the serving
        front-end's proof that coalescing actually happens.
        """
        prepared = []                    # (name, detector, PreparedBatch)
        for name, observations in batches.items():
            detector = self.detector(name)
            prepared.append((name, detector,
                             detector.prepare_update(observations)))
        # Group by serving-ensemble identity *after* prepare: the
        # boundary swap inside prepare_update may have changed it.
        groups: Dict[int, List[int]] = {}
        for position, (_, _, batch) in enumerate(prepared):
            groups.setdefault(id(batch.ensemble), []).append(position)
        coalesce_size = self._coalesce_size
        all_scores: List[Optional[np.ndarray]] = [None] * len(prepared)
        for members in groups.values():
            scoreable = [p for p in members
                         if prepared[p][2].windows is not None]
            if not scoreable:
                continue
            ensemble = prepared[scoreable[0]][2].ensemble
            stacked = prepared[scoreable[0]][2].windows \
                if len(scoreable) == 1 else np.concatenate(
                    [prepared[p][2].windows for p in scoreable])
            scores = ensemble.score_windows_last(stacked)
            if coalesce_size is not None:
                coalesce_size.observe(len(scoreable))
            offset = 0
            for p in scoreable:
                count = prepared[p][2].windows.shape[0]
                all_scores[p] = scores[offset:offset + count]
                offset += count
        return {name: detector.apply_update(batch, all_scores[position])
                for position, (name, detector, batch)
                in enumerate(prepared)}

    def warm_up(self, name: str, series: np.ndarray) -> None:
        self.detector(name).warm_up(series)

    def shutdown(self) -> None:
        """Stop the fleet's background refresh activity.

        Each detector's in-flight build request is discarded (the handle
        resolves to ``discarded``; the serving ensemble keeps serving)
        and every coordinator — the shared one, if any, and each
        detector's private one — shuts down, cancelling every queued and
        running build: cancelled builds release their CPU before fitting
        another basic model.  Scoring remains possible; only refresh
        admission stops.
        """
        for detector in self._detectors.values():
            worker = detector.refresh_worker
            if worker is not None:
                abandoned = worker.discard()
                if abandoned is not None:
                    # Keep the drift answerable: the request survives the
                    # abandoned build, exactly as checkpointing mid-build
                    # would record it.
                    detector._restore_request(abandoned.trigger_index)
                if detector.coordinator is None:
                    # A private coordinator is not the fleet's to close
                    # below: shut each one, or the restored request would
                    # just relaunch a build at the next update.
                    worker.coordinator.shutdown()
        if self.coordinator is not None:
            self.coordinator.shutdown()

    # ------------------------------------------------------------------
    # Checkpointing (see repro.core.persistence: save_fleet / load_fleet)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Per-stream runtime state (excluding ensemble weights).

        Ensembles are weights, not stream state — persist them separately
        (:func:`repro.core.persistence.save_fleet` stores each distinct
        ensemble once, however many streams share it).  The shared
        coordinator's configuration and admission counters ride along;
        its queue does not (in-flight builds resolve to per-stream
        pending requests, which live in each detector's state).
        """
        return {"streams": {name: self._detectors[name].state_dict()
                            for name in self.names},
                "coordinator": self.coordinator.state_dict()
                if self.coordinator is not None else None}

    @classmethod
    def from_state(cls, state: Dict[str, object],
                   ensemble_for: Callable[[str], CAEEnsemble],
                   refresher_factory: Optional[Callable[[], object]] = None,
                   detector_factory: Optional[
                       Callable[[str], StreamingDetector]] = None,
                   coordinator=None) -> "StreamFleet":
        """Rebuild a fleet from :meth:`state_dict`.

        Parameters
        ----------
        ensemble_for:      callable mapping a stream name to the fitted
                           ensemble serving it (streams that shared an
                           instance should receive the *same* instance to
                           keep sharing memory).
        refresher_factory: builds one fresh refresher per resumed stream
                           (policy is not persisted, like
                           :meth:`StreamingDetector.from_state`).
        detector_factory:  factory for streams first seen *after* the
                           resume; without one, unknown names raise.
        coordinator:       admission control for the resumed fleet; when
                           None and the state carries a coordinator
                           entry, one is rebuilt from it
                           (configuration + counters, empty queue).
        """
        coordinator_state = state.get("coordinator")
        if coordinator is None and coordinator_state is not None:
            from .coordinator import RefreshCoordinator
            coordinator = RefreshCoordinator.from_state(coordinator_state)
        factory = detector_factory if detector_factory is not None \
            else _reject_new_streams
        if detector_factory is not None and coordinator is not None:
            # The caller's factory predates the rebuilt coordinator and
            # cannot close over it: inject it, so streams first seen
            # after the resume share the fleet's admission queue instead
            # of each building through a private coordinator (no
            # fleet-wide cap, no dedup).
            def factory(name, _inner=detector_factory):
                detector = _inner(name)
                if detector.coordinator is None and \
                        detector.refresh_mode == "async":
                    detector.coordinator = coordinator
                return detector
        fleet = cls(factory, coordinator=coordinator)
        for name, detector_state in state["streams"].items():
            fleet._detectors[name] = StreamingDetector.from_state(
                ensemble_for(name), detector_state,
                refresher=refresher_factory()
                if refresher_factory is not None else None,
                coordinator=coordinator, name=name)
        return fleet

    # ------------------------------------------------------------------
    def stats(self, names: Optional[Iterable[str]] = None
              ) -> List[StreamStats]:
        """Counters per stream, sorted by name."""
        selected = self.names if names is None else sorted(names)
        stats = []
        for name in selected:
            detector = self._detectors[name]
            reports = detector.refresh_reports
            lags = [report.swap_lag for report in reports
                    if report.trigger_index is not None]
            stats.append(StreamStats(
                name=name,
                n_observations=detector.n_observations,
                n_alerts=detector.n_alerts,
                n_drift_events=len(detector.drift_events),
                n_refreshes=detector.n_refreshes,
                n_async_refreshes=sum(1 for report in reports
                                      if report.mode == "async"),
                refresh_seconds=float(sum(report.train_seconds
                                          for report in reports)),
                mean_refresh_lag=float(sum(lags) / len(lags))
                if lags else None))
        return stats

    def telemetry(self, registry=None) -> Dict[str, object]:
        """One JSON-pure dict aggregating the fleet's runtime signals.

        Combines the per-stream counters (:meth:`stats`), the shared
        coordinator's admission counters (if any) and a snapshot of the
        metrics registry — the process default unless one is passed.
        Intended as the fleet's single scrape/inspection surface; see
        ``docs/observability.md``.
        """
        registry = registry if registry is not None else default_registry()
        return {
            "totals": {
                "n_streams": len(self),
                "n_observations": self.total_observations,
                "n_alerts": self.total_alerts,
                "n_refreshes": sum(d.n_refreshes
                                   for d in self._detectors.values()),
            },
            "streams": [dataclasses.asdict(stat) for stat in self.stats()],
            "coordinator": dataclasses.asdict(self.coordinator.stats())
            if self.coordinator is not None else None,
            "metrics": registry.snapshot(),
        }

    @property
    def total_observations(self) -> int:
        return sum(d.n_observations for d in self._detectors.values())

    @property
    def total_alerts(self) -> int:
        return sum(d.n_alerts for d in self._detectors.values())


def _reject_new_streams(name: str) -> StreamingDetector:
    """Default factory of a resumed fleet: only saved streams exist."""
    raise KeyError(f"stream {name!r} is not part of the restored fleet; "
                   f"pass detector_factory to allow new streams")


def shared_fleet(ensemble: CAEEnsemble,
                 calibrator_factory: Optional[Callable[[], object]] = None,
                 drift_factory: Optional[Callable[[], object]] = None,
                 refresher_factory: Optional[Callable[[], object]] = None,
                 history: int = 2048, refresh_mode: str = "inline",
                 refresh_refire: str = "queue", coordinator=None,
                 max_concurrent_builds: Optional[int] = None,
                 priority_for: Optional[Callable[[str], int]] = None
                 ) -> StreamFleet:
    """A fleet whose streams all score against one shared ensemble.

    Each stream still gets its own calibrator / drift detector /
    refresher instance (stream state is never shared).  Note that a
    per-stream refresh replaces only that stream's serving ensemble —
    other streams keep the shared original.  ``refresh_mode="async"``
    keeps every stream's scoring latency flat while its replacement
    trains in the background: each detector admits its builds through
    a private coordinator, *unless* fleet admission is requested — pass a
    ``coordinator`` (or just ``max_concurrent_builds``, which builds a
    FIFO :class:`~repro.streaming.coordinator.RefreshCoordinator`) and
    all streams' builds share one bounded, deduplicating queue, so K
    streams co-drifting on this shared ensemble cost **one** build
    fanned out to all K.  ``priority_for`` maps a stream name to its
    admission priority (used by a ``policy="priority"`` coordinator).
    """
    if max_concurrent_builds is not None:
        if coordinator is not None:
            raise ValueError("pass either coordinator or "
                             "max_concurrent_builds, not both")
        from .coordinator import RefreshCoordinator
        coordinator = RefreshCoordinator(max_concurrent_builds)
    if coordinator is not None and refresh_mode != "async":
        # Fail at the misconfiguration site, not at first stream use.
        raise ValueError("admission control applies to background "
                         "builds; pass refresh_mode='async' alongside "
                         "coordinator/max_concurrent_builds")

    def factory(name: str) -> StreamingDetector:
        return StreamingDetector(
            ensemble,
            calibrator=calibrator_factory() if calibrator_factory else None,
            drift_detector=drift_factory() if drift_factory else None,
            refresher=refresher_factory() if refresher_factory else None,
            history=history, refresh_mode=refresh_mode,
            refresh_refire=refresh_refire, name=name,
            coordinator=coordinator,
            refresh_priority=priority_for(name) if priority_for else 0)
    return StreamFleet(factory, coordinator=coordinator)


def sharded_fleet(ensemble: CAEEnsemble, n_shards: int = 2,
                  n_build_workers: Optional[int] = None,
                  calibrator_factory: Optional[Callable[[], object]] = None,
                  drift_factory: Optional[Callable[[], object]] = None,
                  refresher_factory: Optional[Callable[[], object]] = None,
                  history: int = 2048, refresh_mode: str = "inline",
                  refresh_refire: str = "queue",
                  max_concurrent_builds: int = 1, policy: str = "fifo",
                  priority_for: Optional[Callable[[str], int]] = None,
                  namespace: Optional[str] = None, **fleet_kwargs):
    """:func:`shared_fleet`, spread over N server processes.

    Forks ``n_shards`` servers (POSIX only), each running a private
    :func:`shared_fleet` over the fork-inherited ``ensemble``; streams
    route to shards by a stable hash of the name.  Pass
    ``n_build_workers`` (with ``refresh_mode="async"``) and the sharded
    fleet also owns a :class:`~repro.runtime.broker.BuildBroker` — every
    shard submits drift-triggered builds to the one cross-process
    admission queue, and a single build's shared-memory pack fans out to
    all co-drifting shards.  Returns a
    :class:`~repro.runtime.fleet.ShardedFleet`; extra ``fleet_kwargs``
    pass through to it.
    """
    from ..runtime.fleet import ShardedFleet
    if n_build_workers is not None and refresh_mode != "async":
        # Same misconfiguration guard as shared_fleet, but raised here in
        # the parent instead of as a fatal inside every forked shard.
        raise ValueError("a build broker serves background builds; pass "
                         "refresh_mode='async' alongside n_build_workers")

    def factory(index: int, coordinator):
        return shared_fleet(
            ensemble, calibrator_factory=calibrator_factory,
            drift_factory=drift_factory,
            refresher_factory=refresher_factory, history=history,
            refresh_mode=refresh_mode, refresh_refire=refresh_refire,
            coordinator=coordinator, priority_for=priority_for)

    return ShardedFleet(factory, n_shards=n_shards,
                        n_build_workers=n_build_workers,
                        max_concurrent_builds=max_concurrent_builds,
                        policy=policy, namespace=namespace, **fleet_kwargs)

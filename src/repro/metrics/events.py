"""Event-level evaluation for interval-labelled anomalies.

Section 4.2.1 of the paper analyses why point-wise recall is structurally
low on datasets like WADI: ground truth marks *whole intervals* as
anomalous although only a few observations inside truly deviate
(Figures 11-12).  **Point-adjust** (Xu et al. 2018, used by OmniAnomaly)
handles this, and is provided so the reproduction can quantify the
effect: if *any* observation inside a ground-truth anomaly segment is
flagged, every observation of the segment counts as detected.
Point-wise metrics are then computed on the adjusted predictions.

For *streaming* runs (``repro.streaming``) a second view matters: how
*quickly* each injected anomaly segment was caught after it started, and
how often the drift layer fired.  :func:`stream_event_report` computes
per-segment detection latency from the engine's alert indices and carries
the drift/refresh counters alongside.

For *fleet* runs under refresh admission control
(:class:`repro.streaming.RefreshCoordinator`), the model-maintenance
story is fleet-wide: how many build requests the streams raised, how
many distinct builds actually ran (dedup), how many were cancelled
before wasting CPU, and how close the pool came to its concurrency cap.
:func:`fleet_refresh_report` renders those admission counters as a
report next to the per-stream accuracy views.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from .classification import precision_recall_f1


def label_segments(labels: np.ndarray) -> List[Tuple[int, int]]:
    """Contiguous runs of 1s as (start, stop) with stop exclusive.

    >>> import numpy as np
    >>> label_segments(np.array([0, 1, 1, 0, 1]))
    [(1, 3), (4, 5)]
    """
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    if not set(np.unique(labels)).issubset({0, 1}):
        raise ValueError("labels must be binary 0/1")
    padded = np.concatenate([[0], labels, [0]])
    rises = np.flatnonzero(np.diff(padded) == 1)
    falls = np.flatnonzero(np.diff(padded) == -1)
    return list(zip(rises.tolist(), falls.tolist()))


def point_adjust(labels: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Expand predictions to whole ground-truth segments once hit.

    >>> import numpy as np
    >>> point_adjust(np.array([1, 1, 1, 0]), np.array([0, 1, 0, 0]))
    array([1, 1, 1, 0])
    """
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    predictions = np.asarray(predictions).astype(np.int64).reshape(-1)
    if labels.shape != predictions.shape:
        raise ValueError(f"labels {labels.shape} vs predictions "
                         f"{predictions.shape}")
    adjusted = predictions.copy()
    for start, stop in label_segments(labels):
        if predictions[start:stop].any():
            adjusted[start:stop] = 1
    return adjusted


def point_adjusted_prf(labels: np.ndarray, predictions: np.ndarray
                       ) -> Tuple[float, float, float]:
    """Precision/Recall/F1 after point-adjustment."""
    return precision_recall_f1(labels, point_adjust(labels, predictions))


@dataclasses.dataclass(frozen=True)
class StreamReport:
    """Detection-latency summary of one streaming run.

    ``latencies`` holds, for each *detected* segment, the distance (in
    observations) from segment start to the first alert inside it — the
    operator's time-to-page.  Alerts on unlabelled observations count as
    false alarms.  Drift events and refreshes are carried as counters so
    a run's model-maintenance activity is reported next to its accuracy.

    When refresh reports are supplied, two refresh-latency views are
    carried alongside: ``refresh_seconds`` (training cost per refresh —
    serving stall in inline mode, background cost in async mode) and
    ``refresh_lags`` (arrivals between each drift trigger and its swap —
    the staleness window during which the old ensemble kept serving:
    gate-deferral for inline refreshes, deferral plus build time for
    async ones).
    """
    n_observations: int
    n_events: int
    n_detected: int
    n_alerts: int
    n_false_alarms: int
    n_drift_events: int
    n_refreshes: int
    latencies: Tuple[int, ...]
    n_async_refreshes: int = 0
    refresh_seconds: Tuple[float, ...] = ()
    refresh_lags: Tuple[int, ...] = ()

    @property
    def event_recall(self) -> float:
        return self.n_detected / self.n_events if self.n_events else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean observations-to-detection over detected segments (NaN if
        nothing was detected)."""
        return float(np.mean(self.latencies)) if self.latencies \
            else float("nan")

    @property
    def total_refresh_seconds(self) -> float:
        """Total retraining time across refreshes."""
        return float(sum(self.refresh_seconds))

    @property
    def mean_refresh_lag(self) -> float:
        """Mean trigger-to-swap distance in observations (NaN without
        refresh reports)."""
        return float(np.mean(self.refresh_lags)) if self.refresh_lags \
            else float("nan")


@dataclasses.dataclass(frozen=True)
class FleetRefreshReport:
    """Fleet-wide refresh admission summary (the coordinator's ledger).

    ``n_requests`` counts stream-level refresh submissions.
    ``n_deduped`` of them (= ``builds_saved``) joined an existing build
    instead of enqueuing their own — work avoided because co-drifting
    streams shared an ensemble.  ``n_builds`` is how many distinct
    builds actually *started training* (a build cancelled while still
    queued never counts here — it appears in ``n_cancelled``, which
    also covers builds interrupted between basic-model fits after every
    subscriber abandoned them).  ``max_concurrent`` is the observed
    peak of simultaneously-running builds; under a correctly sized pool
    it never exceeds ``max_concurrent_builds``.
    """
    n_requests: int
    n_builds: int
    n_deduped: int
    n_completed: int
    n_failed: int
    n_cancelled: int
    max_concurrent: int
    max_concurrent_builds: int

    @property
    def builds_saved(self) -> int:
        """Training runs avoided by coalescing shared-ensemble requests."""
        return self.n_deduped

    @property
    def dedup_ratio(self) -> float:
        """Fraction of requests answered by an already-admitted build."""
        return self.n_deduped / self.n_requests if self.n_requests else 0.0

    @property
    def within_cap(self) -> bool:
        """Whether observed concurrency stayed under the configured cap."""
        return self.max_concurrent <= self.max_concurrent_builds


def fleet_refresh_report(coordinator) -> FleetRefreshReport:
    """Snapshot a coordinator's admission counters as a report.

    ``coordinator`` is a :class:`repro.streaming.RefreshCoordinator`
    (duck-typed: anything with ``stats()`` returning
    :class:`~repro.streaming.coordinator.CoordinatorStats`-shaped fields
    and a ``max_concurrent_builds`` attribute works).  For the
    process-wide view over *live metrics* (aggregating every coordinator
    in the process, runtime only) see
    :func:`fleet_refresh_report_from_registry`.
    """
    stats = coordinator.stats()
    return FleetRefreshReport(
        n_requests=int(stats.n_requests),
        n_builds=int(stats.n_admitted),
        n_deduped=int(stats.n_deduped),
        n_completed=int(stats.n_completed),
        n_failed=int(stats.n_failed),
        n_cancelled=int(stats.n_cancelled),
        max_concurrent=int(stats.max_concurrent),
        max_concurrent_builds=int(coordinator.max_concurrent_builds))


def fleet_refresh_report_from_registry(registry=None,
                                       max_concurrent_builds: int = 0
                                       ) -> FleetRefreshReport:
    """The same :class:`FleetRefreshReport`, rebuilt as a *view over the
    live metrics registry* instead of one coordinator's private ledger.

    The coordinator mirrors every admission decision into process-wide
    counters (see ``docs/observability.md``), so this view aggregates
    all coordinators in the process and covers the current process
    lifetime only (registry counters start at zero; checkpointed
    coordinator counters do not flow back in).  ``max_concurrent`` has
    no registry mirror (it is a per-coordinator high-water mark) and is
    reported as the current ``builds_running`` gauge value.
    """
    from repro.obs import default_registry
    registry = registry if registry is not None else default_registry()

    def counter(name: str) -> int:
        return int(registry.counter(f"repro_coordinator_{name}").value)

    return FleetRefreshReport(
        n_requests=counter("requests_total"),
        n_builds=counter("admitted_total"),
        n_deduped=counter("deduped_total"),
        n_completed=counter("completed_total"),
        n_failed=counter("failed_total"),
        n_cancelled=counter("cancelled_total"),
        max_concurrent=int(registry.gauge(
            "repro_coordinator_builds_running").value),
        max_concurrent_builds=int(max_concurrent_builds))


@dataclasses.dataclass(frozen=True)
class RuntimeReport:
    """Serving-side runtime summary, a view over the live metrics
    registry (see :mod:`repro.obs` and ``docs/observability.md``).

    Complements the post-hoc :class:`StreamReport` with signals only the
    registry carries: serve-latency quantiles from the streaming
    histograms, the coordinator's live queue depth / in-flight builds,
    and total refresh activity — readable at any moment of a run, not
    just after it ends.  Quantiles are ``None`` until the corresponding
    path has served at least one batch.
    """
    n_updates: int
    n_alerts: int
    n_drift_events: int
    n_refreshes: int
    update_p50: object
    update_p95: object
    update_p99: object
    batch_p50: object
    batch_p95: object
    batch_p99: object
    queue_depth: int
    builds_running: int


def runtime_report(registry=None) -> RuntimeReport:
    """Render the streaming registry instruments as a report dataclass.

    Counters aggregate across every (possibly labeled) stream in the
    process; quantiles come from the global latency histograms.

    >>> from repro.obs import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_stream_updates_total", stream="s0").inc(40)
    >>> registry.counter("repro_stream_updates_total", stream="s1").inc(2)
    >>> report = runtime_report(registry)
    >>> report.n_updates
    42
    >>> report.batch_p50 is None       # nothing served through a batch yet
    True
    """
    from repro.obs import Counter, default_registry
    registry = registry if registry is not None else default_registry()
    totals = {"updates": 0, "alerts": 0, "drift_events": 0, "refreshes": 0}
    for instrument in registry.instruments():
        for kind in totals:
            if instrument.name == f"repro_stream_{kind}_total" and \
                    isinstance(instrument, Counter):
                totals[kind] += instrument.value
    update = registry.histogram("repro_stream_update_seconds")
    batch = registry.histogram("repro_stream_update_batch_seconds")
    return RuntimeReport(
        n_updates=totals["updates"],
        n_alerts=totals["alerts"],
        n_drift_events=totals["drift_events"],
        n_refreshes=totals["refreshes"],
        update_p50=update.quantile(0.50),
        update_p95=update.quantile(0.95),
        update_p99=update.quantile(0.99),
        batch_p50=batch.quantile(0.50),
        batch_p95=batch.quantile(0.95),
        batch_p99=batch.quantile(0.99),
        queue_depth=int(registry.gauge(
            "repro_coordinator_queue_depth").value),
        builds_running=int(registry.gauge(
            "repro_coordinator_builds_running").value))


def stream_event_report(labels: np.ndarray, alert_indices,
                        drift_indices=(), n_refreshes: int = 0,
                        refresh_reports=()) -> StreamReport:
    """Latency-aware event evaluation of a streaming run.

    Parameters
    ----------
    labels:          per-observation ground truth over the streamed span.
    alert_indices:   stream positions the detector alerted on (e.g.
                     ``StreamingDetector.alerts``).
    drift_indices:   stream positions of emitted drift events.
    n_refreshes:     completed model refreshes during the run (ignored
                     when ``refresh_reports`` is given).
    refresh_reports: the run's :class:`~repro.streaming.RefreshReport`
                     sequence (e.g. ``StreamingDetector.refresh_reports``)
                     — enables the refresh-latency counters.
    """
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    alerts = np.asarray(sorted(int(i) for i in alert_indices),
                        dtype=np.int64)
    if alerts.size and (alerts[0] < 0 or alerts[-1] >= labels.size):
        raise ValueError(f"alert indices must lie in [0, {labels.size}), "
                         f"got range [{alerts[0]}, {alerts[-1]}]")
    segments = label_segments(labels)
    latencies = []
    for start, stop in segments:
        inside = alerts[(alerts >= start) & (alerts < stop)]
        if inside.size:
            latencies.append(int(inside[0] - start))
    false_alarms = int((labels[alerts] == 0).sum()) if alerts.size else 0
    reports = tuple(refresh_reports)
    if reports:
        n_refreshes = len(reports)
    return StreamReport(n_observations=int(labels.size),
                        n_events=len(segments),
                        n_detected=len(latencies),
                        n_alerts=int(alerts.size),
                        n_false_alarms=false_alarms,
                        n_drift_events=len(tuple(drift_indices)),
                        n_refreshes=int(n_refreshes),
                        latencies=tuple(latencies),
                        n_async_refreshes=sum(
                            1 for r in reports
                            if getattr(r, "mode", "inline") == "async"),
                        refresh_seconds=tuple(float(r.train_seconds)
                                              for r in reports),
                        refresh_lags=tuple(int(r.swap_lag)
                                           for r in reports))

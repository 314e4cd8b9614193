"""Thread-safe metrics primitives: counters, gauges, log-bucket histograms.

The registry is the write side of the observability layer
(:mod:`repro.obs`): hot paths grab an instrument once, then call
``inc``/``set``/``observe`` — each a few arithmetic ops under a
per-instrument lock.  Export (Prometheus text, JSON snapshot, logging)
lives in :mod:`repro.obs.exporters` and only ever *reads*.

Everything here is pure stdlib — no numpy — so the telemetry layer adds
no import weight to the serving path and can be lifted into any process
that embeds the detector.

Instruments
-----------
``Counter``
    Monotonic integer (``inc``).  Resets only with the registry.
``Gauge``
    Instantaneous float (``set``/``inc``/``dec``) — queue depths,
    occupancy, in-flight builds.
``Histogram``
    Streaming histogram over fixed log-spaced buckets.  The default
    geometry spans 1 µs to 10 minutes at 9 buckets per decade (~29 %
    relative width), which keeps p50/p95/p99 estimates within one bucket
    ratio of the exact value at any latency scale the serve or refresh
    path produces.

Disabled telemetry swaps the whole registry for :class:`NullRegistry`,
whose instruments are shared no-op singletons — the cost of an
instrumented call site collapses to one attribute load and an empty
method call.

>>> registry = MetricsRegistry()
>>> registry.counter("requests_total", queue="fast").inc(3)
>>> registry.counter("requests_total", queue="fast").value
3
>>> h = registry.histogram("latency_seconds")
>>> for ms in (1.0, 2.0, 2.0, 500.0):
...     h.observe(ms / 1e3)
>>> h.count
4
>>> 0.4 <= h.quantile(0.99) <= 0.65   # ~500 ms, within one bucket ratio
True
>>> NullRegistry().counter("requests_total").inc()   # no-op, no error
"""

from __future__ import annotations

import bisect
import math
import threading
from contextlib import contextmanager

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "default_registry", "set_default_registry", "use_registry",
    "log_bucket_edges", "merge_snapshots",
]

# Default histogram geometry: 1 µs .. 10 min, 9 buckets per decade.
DEFAULT_LOW = 1e-6
DEFAULT_HIGH = 600.0
DEFAULT_BUCKETS_PER_DECADE = 9


def log_bucket_edges(low: float = DEFAULT_LOW, high: float = DEFAULT_HIGH,
                     buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE):
    """Upper bucket bounds ``low * ratio**i`` covering ``[low, high]``.

    ``ratio = 10 ** (1 / buckets_per_decade)``; the last edge is the
    first bound >= ``high`` so the range is always fully covered.
    """
    if not (low > 0 and high > low):
        raise ValueError(f"need 0 < low < high, got {low}, {high}")
    ratio = 10.0 ** (1.0 / buckets_per_decade)
    n = max(1, math.ceil(math.log(high / low, ratio) - 1e-9)) + 1
    return tuple(low * ratio ** i for i in range(n))


class Counter:
    """Monotonic counter; ``inc`` is thread-safe."""

    __slots__ = ("name", "labels", "_lock", "_value")
    enabled = True

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Instantaneous value; last write wins."""

    __slots__ = ("name", "labels", "_lock", "_value")
    enabled = True

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming histogram over fixed log-spaced buckets.

    ``observe`` is O(log n_buckets) (bisect) under a per-instrument
    lock.  Quantiles are estimated by walking the cumulative counts and
    interpolating *logarithmically* inside the hit bucket — the right
    interpolation for log-spaced edges — then clamped to the observed
    ``[min, max]`` so tiny samples never report a value outside the
    data.
    """

    __slots__ = ("name", "labels", "edges", "_lock", "_counts", "_count",
                 "_sum", "_min", "_max")
    enabled = True

    def __init__(self, name: str, labels: dict,
                 edges=None):
        self.name = name
        self.labels = labels
        self.edges = tuple(edges) if edges is not None \
            else log_bucket_edges()
        self._lock = threading.Lock()
        # one bin per edge (value <= edge) plus a final overflow bin
        self._counts = [0] * (len(self.edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @contextmanager
    def time(self):
        """Context manager observing the elapsed wall time in seconds."""
        import time as _time
        tick = _time.perf_counter()
        try:
            yield
        finally:
            self.observe(_time.perf_counter() - tick)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    def quantile(self, q: float):
        """Estimated ``q``-quantile (0..1), or ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            low, high = self._min, self._max
        if total == 0:
            return None
        return _bucket_quantile(q, self.edges, counts[:-1], counts[-1],
                                total, low, high)

    def percentiles(self) -> dict:
        """``{"p50": ..., "p95": ..., "p99": ...}`` (``None`` if empty)."""
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def cumulative_buckets(self):
        """Non-empty ``(upper_bound, cumulative_count)`` pairs.

        Trimmed Prometheus-style: starts at the first non-zero bucket
        and stops once the running total reaches ``count`` (the ``+Inf``
        bucket is the exporter's job).
        """
        with self._lock:
            counts = list(self._counts)
            total = self._count
        pairs = []
        cumulative = 0
        for index, bucket_count in enumerate(counts[:-1]):
            cumulative += bucket_count
            if cumulative == 0:
                continue
            pairs.append((self.edges[index], cumulative))
            if cumulative >= total:
                break
        return pairs


class _NullInstrument:
    """Shared do-nothing instrument: every method is a cheap no-op."""

    __slots__ = ()
    enabled = False
    name = ""
    labels: dict = {}
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    @contextmanager
    def time(self):
        yield

    def quantile(self, q):
        return None

    def percentiles(self):
        return {"p50": None, "p95": None, "p99": None}

    def cumulative_buckets(self):
        return []


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create home for instruments, keyed by name + labels.

    Requesting the same ``(name, labels)`` twice returns the same
    instrument; requesting an existing name as a different instrument
    type raises ``ValueError``.  ``snapshot()`` returns a JSON-pure dict
    (no numpy scalars, no NaN) suitable for ``json.dump``.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments = {}

    @staticmethod
    def _key(name: str, labels: dict):
        return (name, tuple(sorted(labels.items())))

    def _get_or_create(self, cls, name, labels, **kwargs):
        key = self._key(name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, dict(labels), **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"{name!r} is already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}")
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, low: float = DEFAULT_LOW,
                  high: float = DEFAULT_HIGH,
                  buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
                  **labels) -> Histogram:
        edges = log_bucket_edges(low, high, buckets_per_decade)
        return self._get_or_create(Histogram, name, labels, edges=edges)

    def instruments(self):
        """Stable-ordered list of live instruments (read-only view)."""
        with self._lock:
            items = sorted(self._instruments.items())
        return [instrument for _, instrument in items]

    def snapshot(self) -> dict:
        """JSON-pure snapshot of every instrument.

        Histograms include estimated p50/p95/p99 and the trimmed
        cumulative buckets; empty histograms report ``None`` quantiles.
        """
        counters, gauges, histograms = [], [], []
        for instrument in self.instruments():
            entry = {"name": instrument.name,
                     "labels": dict(instrument.labels)}
            if isinstance(instrument, Counter):
                entry["value"] = instrument.value
                counters.append(entry)
            elif isinstance(instrument, Gauge):
                entry["value"] = instrument.value
                gauges.append(entry)
            else:
                finite = instrument.count > 0
                entry.update({
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "min": instrument.min if finite else None,
                    "max": instrument.max if finite else None,
                    **instrument.percentiles(),
                    "buckets": [
                        {"le": upper, "count": cumulative}
                        for upper, cumulative
                        in instrument.cumulative_buckets()],
                })
                histograms.append(entry)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


class NullRegistry:
    """Disabled telemetry: every instrument is a shared no-op singleton.

    ``enabled`` is ``False`` so instrumented hot paths can skip even the
    ``perf_counter()`` calls that would feed a real histogram.
    """

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def instruments(self):
        return []

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry():
    """The process-wide registry instrumented code binds to by default."""
    return _default_registry


def set_default_registry(registry):
    """Replace the process-wide default registry; returns the old one."""
    global _default_registry
    with _default_lock:
        previous, _default_registry = _default_registry, registry
    return previous


@contextmanager
def use_registry(registry):
    """Temporarily swap the process default (tests, bench isolation).

    Only affects code that *binds* while the context is active —
    detectors cache their instruments at construction time.
    """
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


def _bucket_quantile(q, edges, counts, overflow, total, low, high):
    """The histogram quantile estimator over per-bucket counts.

    Walks the cumulative counts to the bucket holding rank ``q * total``
    and interpolates logarithmically inside it (the right interpolation
    for log-spaced edges), clamped to the observed ``[low, high]``.
    :meth:`Histogram.quantile` calls it with its own edges,
    :func:`merge_snapshots` with the merged bounds.
    """
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(list(counts) + [overflow]):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            fraction = (rank - cumulative) / bucket_count
            if index >= len(edges):                 # overflow bucket
                estimate = high
            else:
                upper = edges[index]
                if index > 0:
                    lower = edges[index - 1]
                elif len(edges) > 1:
                    lower = upper / (edges[1] / edges[0])
                else:
                    lower = upper
                if lower <= 0:
                    estimate = upper * fraction
                else:
                    estimate = lower * (upper / lower) ** fraction
            return min(max(estimate, low), high)
        cumulative += bucket_count
    return high


def merge_snapshots(snapshots) -> dict:
    """Merge per-process registry ``snapshot()`` dicts into one view.

    The sharded fleet runtime collects one snapshot per server process
    and needs a single ``telemetry()`` answer; this is the read-side
    merge.  Semantics, per instrument family:

    * **Counters** with the same ``(name, labels)`` are summed — fleet
      totals for throughput/error counters.
    * **Gauges** are summed too.  That is a documented choice: the
      gauges this codebase exports (queue depth, in-flight builds,
      history occupancy) are additive across processes, so the sum *is*
      the fleet reading.  Non-additive gauges would need labels that
      keep the shards apart.
    * **Histograms** are rebuilt from their cumulative buckets:
      per-bucket counts are summed per upper bound, ``count``/``sum``
      added, ``min``/``max`` combined, and p50/p95/p99 re-estimated
      by the estimator :meth:`Histogram.quantile` uses — exact at bucket
      resolution, which is the resolution the originals had anyway.

    Input entries are never mutated; the result has the same JSON-pure
    shape ``MetricsRegistry.snapshot()`` produces.
    """
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}

    def key_of(entry):
        return (entry["name"], tuple(sorted(entry["labels"].items())))

    for snapshot in snapshots:
        for entry in snapshot.get("counters", ()):
            slot = counters.setdefault(key_of(entry), {
                "name": entry["name"], "labels": dict(entry["labels"]),
                "value": 0})
            slot["value"] += entry["value"]
        for entry in snapshot.get("gauges", ()):
            slot = gauges.setdefault(key_of(entry), {
                "name": entry["name"], "labels": dict(entry["labels"]),
                "value": 0.0})
            slot["value"] += entry["value"]
        for entry in snapshot.get("histograms", ()):
            slot = histograms.setdefault(key_of(entry), {
                "name": entry["name"], "labels": dict(entry["labels"]),
                "count": 0, "sum": 0.0, "min": None, "max": None,
                "bucket_counts": {}})
            slot["count"] += entry["count"]
            slot["sum"] += entry["sum"]
            for bound in ("min", "max"):
                value = entry.get(bound)
                if value is None:
                    continue
                pick = min if bound == "min" else max
                slot[bound] = value if slot[bound] is None \
                    else pick(slot[bound], value)
            previous = 0
            for bucket in entry.get("buckets", ()):
                le = bucket["le"]
                slot["bucket_counts"][le] = (
                    slot["bucket_counts"].get(le, 0)
                    + bucket["count"] - previous)
                previous = bucket["count"]

    merged_histograms = []
    for _, slot in sorted(histograms.items()):
        edges = sorted(slot.pop("bucket_counts").items())
        bounds = [le for le, _ in edges]
        counts = [count for _, count in edges]
        overflow = slot["count"] - sum(counts)
        entry = {"name": slot["name"], "labels": slot["labels"],
                 "count": slot["count"], "sum": slot["sum"],
                 "min": slot["min"], "max": slot["max"]}
        if slot["count"] > 0:
            low = slot["min"] if slot["min"] is not None else 0.0
            high = slot["max"] if slot["max"] is not None else low
            entry.update({
                f"p{int(q * 100)}": _bucket_quantile(
                    q, bounds, counts, overflow, slot["count"], low, high)
                for q in (0.50, 0.95, 0.99)})
        else:
            entry.update({"p50": None, "p95": None, "p99": None})
        pairs, cumulative = [], 0
        for le, count in zip(bounds, counts):
            cumulative += count
            if cumulative == 0:
                continue
            pairs.append({"le": le, "count": cumulative})
            if cumulative >= slot["count"]:
                break
        entry["buckets"] = pairs
        merged_histograms.append(entry)

    return {
        "counters": [slot for _, slot in sorted(counters.items())],
        "gauges": [slot for _, slot in sorted(gauges.items())],
        "histograms": merged_histograms,
    }

"""Unit tests for the metrics registry (:mod:`repro.obs.registry`).

The histogram's accuracy contract is the load-bearing one: log-spaced
buckets at 9 per decade promise p50/p95/p99 within one bucket *ratio*
(10^(1/9) ~ 1.292x) of the exact sample quantile at any latency scale —
verified here against numpy on heavy-tailed data.  The rest pins the
get-or-create registry semantics, thread-safety under contention, and
the NullRegistry contract instrumented hot paths rely on.
"""

import json
import threading

import numpy as np
import pytest

from repro.obs import (Counter, Gauge, Histogram, MetricsRegistry,
                       NullRegistry, default_registry, log_bucket_edges,
                       use_registry)

BUCKET_RATIO = 10.0 ** (1.0 / 9.0)         # default geometry


class TestBucketGeometry:
    def test_edges_cover_the_range_log_spaced(self):
        edges = log_bucket_edges(1e-6, 600.0, 9)
        assert edges[0] == pytest.approx(1e-6)
        assert edges[-1] >= 600.0
        ratios = [b / a for a, b in zip(edges, edges[1:])]
        assert all(r == pytest.approx(BUCKET_RATIO) for r in ratios)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            log_bucket_edges(0.0, 1.0)
        with pytest.raises(ValueError):
            log_bucket_edges(1.0, 1.0)

    def test_custom_geometry_flows_through_registry(self):
        registry = MetricsRegistry()
        h = registry.histogram("lag", low=1.0, high=1e6,
                               buckets_per_decade=3)
        assert h.edges[0] == pytest.approx(1.0)
        assert h.edges[-1] >= 1e6


class TestHistogramQuantiles:
    def test_quantiles_within_one_bucket_ratio_of_numpy(self):
        """Heavy-tailed latencies spanning ~4 decades: every reported
        quantile stays within one bucket ratio of the exact value."""
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-6.0, sigma=1.5, size=20_000)
        h = Histogram("latency_seconds", {})
        for value in samples:
            h.observe(float(value))
        for q in (0.50, 0.90, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            estimate = h.quantile(q)
            assert exact / BUCKET_RATIO <= estimate <= exact * BUCKET_RATIO

    def test_empty_histogram_reports_none(self):
        h = Histogram("empty", {})
        assert h.quantile(0.5) is None
        assert h.percentiles() == {"p50": None, "p95": None, "p99": None}
        assert h.cumulative_buckets() == []

    def test_estimates_clamped_to_observed_range(self):
        """A single observation: every quantile IS that observation, not
        a bucket-edge interpolation outside the data."""
        h = Histogram("one", {})
        h.observe(0.0037)
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == pytest.approx(0.0037)

    def test_overflow_bucket_reports_max(self):
        h = Histogram("over", {}, edges=log_bucket_edges(1e-3, 1.0, 3))
        h.observe(50.0)                        # beyond the last edge
        assert h.quantile(0.99) == pytest.approx(50.0)

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", {}).quantile(1.5)

    def test_time_context_observes_elapsed_seconds(self):
        h = Histogram("timed", {})
        with h.time():
            pass
        assert h.count == 1
        assert 0.0 <= h.max < 1.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", queue="fast")
        b = registry.counter("requests_total", queue="fast")
        other = registry.counter("requests_total", queue="slow")
        assert a is b and a is not other

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("depth")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == pytest.approx(3.0)

    def test_snapshot_is_json_pure(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", queue="fast").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("latency_seconds").observe(0.004)
        registry.histogram("never_observed")
        snapshot = registry.snapshot()
        parsed = json.loads(json.dumps(snapshot))       # round-trips
        assert parsed == snapshot
        latency, never = parsed["histograms"]
        assert latency["count"] == 1
        assert latency["p50"] == pytest.approx(0.004)
        assert never["p50"] is None and never["min"] is None

    def test_counter_inc_is_thread_safe(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        histogram = registry.histogram("latency_seconds")
        n_threads, per_thread = 8, 5_000

        def hammer(seed):
            for i in range(per_thread):
                counter.inc()
                histogram.observe(1e-4 * (seed + 1))

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * per_thread
        assert histogram.count == n_threads * per_thread

    def test_concurrent_get_or_create_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(registry.counter("raced_total"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(instrument is seen[0] for instrument in seen)
        seen[0].inc()
        assert registry.counter("raced_total").value == 1


class TestNullRegistry:
    def test_every_instrument_is_a_shared_noop(self):
        null = NullRegistry()
        assert not null.enabled
        counter = null.counter("a_total", queue="x")
        assert counter is null.gauge("b") is null.histogram("c")
        counter.inc()
        counter.observe(1.0)
        counter.set(5)
        with counter.time():
            pass
        assert counter.value == 0
        assert counter.quantile(0.5) is None
        assert null.snapshot() == {"counters": [], "gauges": [],
                                   "histograms": []}

    def test_use_registry_swaps_and_restores_the_default(self):
        original = default_registry()
        replacement = MetricsRegistry()
        with use_registry(replacement) as active:
            assert active is replacement
            assert default_registry() is replacement
        assert default_registry() is original

    def test_use_registry_restores_on_error(self):
        original = default_registry()
        with pytest.raises(RuntimeError):
            with use_registry(NullRegistry()):
                raise RuntimeError("boom")
        assert default_registry() is original


class TestInstrumentTypes:
    def test_real_instruments_report_enabled(self):
        registry = MetricsRegistry()
        assert registry.enabled
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), Histogram)
        assert registry.counter("c").enabled


class TestMergeSnapshots:
    """Edge cases of the cross-process snapshot merge (the read side of
    the sharded fleet's and serving front-end's telemetry)."""

    @staticmethod
    def snap(fill):
        registry = MetricsRegistry()
        fill(registry)
        return registry.snapshot()

    def test_empty_input_yields_empty_snapshot_shape(self):
        from repro.obs import merge_snapshots
        merged = merge_snapshots([])
        assert merged == {"counters": [], "gauges": [], "histograms": []}
        # ... and merging empty snapshots is just as empty.
        empty = MetricsRegistry().snapshot()
        assert merge_snapshots([empty, empty]) == merged

    def test_single_snapshot_round_trips(self):
        from repro.obs import merge_snapshots
        snapshot = self.snap(lambda r: (r.counter("c").inc(3),
                                        r.gauge("g").set(1.5),
                                        r.histogram("h").observe(0.2)))
        merged = merge_snapshots([snapshot])
        assert merged["counters"] == snapshot["counters"]
        assert merged["gauges"] == snapshot["gauges"]
        [histogram] = merged["histograms"]
        [original] = snapshot["histograms"]
        assert histogram["count"] == original["count"]
        assert histogram["sum"] == original["sum"]
        assert histogram["buckets"] == original["buckets"]

    def test_single_snapshot_keeps_its_own_quantiles(self):
        # One estimator serves Histogram.quantile and the merge, so a
        # one-snapshot merge re-derives the snapshot's own p50/p95/p99
        # exactly — here p50 interpolates inside a finite bucket and
        # p95/p99 fall in the overflow bucket (above the last edge).
        from repro.obs import merge_snapshots
        values = [0.001 * (1.3 ** k) for k in range(40)] + [5e3, 7e3, 9e3]
        snapshot = self.snap(lambda r: [r.histogram("h").observe(v)
                                        for v in values])
        [original] = snapshot["histograms"]
        [merged] = merge_snapshots([snapshot])["histograms"]
        assert values[-1] > Histogram("h", {}).edges[-1]
        assert original["p95"] == original["p99"] == 9e3
        for quantile in ("p50", "p95", "p99"):
            assert merged[quantile] == original[quantile]

    def test_disjoint_metric_names_union_without_crosstalk(self):
        from repro.obs import merge_snapshots
        left = self.snap(lambda r: r.counter("only_left").inc(2))
        right = self.snap(lambda r: (r.counter("only_right").inc(5),
                                     r.histogram("h_right").observe(1.0)))
        merged = merge_snapshots([left, right])
        values = {entry["name"]: entry["value"]
                  for entry in merged["counters"]}
        assert values == {"only_left": 2, "only_right": 5}
        assert [h["name"] for h in merged["histograms"]] == ["h_right"]

    def test_same_name_different_labels_stay_separate(self):
        from repro.obs import merge_snapshots
        left = self.snap(lambda r: r.counter("ops", op="read").inc(1))
        right = self.snap(lambda r: r.counter("ops", op="write").inc(4))
        merged = merge_snapshots([left, right])
        by_label = {entry["labels"]["op"]: entry["value"]
                    for entry in merged["counters"]}
        assert by_label == {"read": 1, "write": 4}

    def test_gauges_merge_additively_as_documented(self):
        # The documented semantics: this codebase's gauges (queue depth,
        # builds in flight, buffer occupancy) are additive across
        # processes, so the merge is a sum — NOT last-writer-wins.
        from repro.obs import merge_snapshots
        left = self.snap(lambda r: r.gauge("queue_depth").set(3))
        right = self.snap(lambda r: r.gauge("queue_depth").set(5))
        [gauge] = merge_snapshots([left, right])["gauges"]
        assert gauge["value"] == 8.0

    def test_histogram_bucket_boundary_mismatch_merges_by_union(self):
        # Two processes exporting one histogram name with *different*
        # bucket geometries (e.g. a config drift across a rolling
        # deploy): the merge unions the upper bounds, keeps exact
        # count/sum/min/max, and re-estimates quantiles at the coarser
        # combined resolution instead of crashing or dropping data.
        from repro.obs import merge_snapshots
        fine = self.snap(lambda r: [
            r.histogram("lat", low=1e-3, high=10.0,
                        buckets_per_decade=9).observe(v)
            for v in (0.01, 0.02, 0.04)])
        coarse = self.snap(lambda r: [
            r.histogram("lat", low=1e-2, high=100.0,
                        buckets_per_decade=3).observe(v)
            for v in (0.5, 2.0)])
        [merged] = merge_snapshots([fine, coarse])["histograms"]
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(0.01 + 0.02 + 0.04
                                              + 0.5 + 2.0)
        assert merged["min"] == pytest.approx(0.01)
        assert merged["max"] == pytest.approx(2.0)
        # Cumulative buckets stay monotone over the unioned bounds and
        # end at the total count.
        bounds = [bucket["le"] for bucket in merged["buckets"]]
        counts = [bucket["count"] for bucket in merged["buckets"]]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)
        assert counts[-1] == 5
        assert merged["p50"] is not None
        assert 0.01 <= merged["p50"] <= 2.0

    def test_histogram_merge_matches_single_process_quantiles(self):
        # Splitting one sample stream across two processes must agree
        # with observing it all in one registry (same geometry).
        from repro.obs import merge_snapshots
        values = [0.001 * (1.17 ** k) for k in range(60)]
        whole = self.snap(lambda r: [r.histogram("h").observe(v)
                                     for v in values])
        left = self.snap(lambda r: [r.histogram("h").observe(v)
                                    for v in values[::2]])
        right = self.snap(lambda r: [r.histogram("h").observe(v)
                                     for v in values[1::2]])
        [expected] = merge_snapshots([whole])["histograms"]
        [merged] = merge_snapshots([left, right])["histograms"]
        assert merged["count"] == expected["count"]
        assert merged["sum"] == pytest.approx(expected["sum"])
        for quantile in ("p50", "p95", "p99"):
            assert merged[quantile] == pytest.approx(expected[quantile])

    def test_empty_histogram_entry_merges_to_none_quantiles(self):
        from repro.obs import merge_snapshots
        def fill(r):
            r.histogram("h")                 # registered, never observed
        [merged] = merge_snapshots([self.snap(fill)])["histograms"]
        assert merged["count"] == 0
        assert merged["p50"] is None and merged["p99"] is None
        assert merged["buckets"] == []

"""Event-level metrics: point-adjust and stream reports (WADI semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (f1_score, label_segments, point_adjust,
                           point_adjusted_prf, recall_score)


class TestLabelSegments:
    def test_no_segments(self):
        assert label_segments(np.zeros(5, dtype=int)) == []

    def test_single_segment(self):
        labels = np.array([0, 1, 1, 1, 0])
        assert label_segments(labels) == [(1, 4)]

    def test_segment_at_edges(self):
        labels = np.array([1, 1, 0, 0, 1])
        assert label_segments(labels) == [(0, 2), (4, 5)]

    def test_all_ones(self):
        assert label_segments(np.ones(4, dtype=int)) == [(0, 4)]

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            label_segments(np.array([0, 2]))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_segments_cover_exactly_the_ones(self, bits):
        labels = np.array(bits)
        covered = np.zeros(len(bits), dtype=int)
        for start, stop in label_segments(labels):
            assert stop > start
            covered[start:stop] = 1
        np.testing.assert_array_equal(covered, labels)


class TestPointAdjust:
    def test_hit_expands_to_whole_segment(self):
        labels = np.array([0, 1, 1, 1, 0])
        predictions = np.array([0, 0, 1, 0, 0])
        adjusted = point_adjust(labels, predictions)
        np.testing.assert_array_equal(adjusted, [0, 1, 1, 1, 0])

    def test_missed_segment_unchanged(self):
        labels = np.array([0, 1, 1, 0, 1, 1])
        predictions = np.array([0, 0, 0, 0, 1, 0])
        adjusted = point_adjust(labels, predictions)
        np.testing.assert_array_equal(adjusted, [0, 0, 0, 0, 1, 1])

    def test_false_positives_preserved(self):
        labels = np.array([0, 0, 1, 1])
        predictions = np.array([1, 0, 1, 0])
        adjusted = point_adjust(labels, predictions)
        np.testing.assert_array_equal(adjusted, [1, 0, 1, 1])

    def test_adjusted_recall_never_lower(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels = (rng.random(50) < 0.3).astype(int)
            predictions = (rng.random(50) < 0.2).astype(int)
            raw = recall_score(labels, predictions)
            adjusted = recall_score(labels,
                                    point_adjust(labels, predictions))
            assert adjusted >= raw - 1e-12

    def test_point_adjusted_prf_on_wadi_style_labels(self):
        """One flagged core observation recovers the whole interval —
        the Section 4.2.1 discussion quantified."""
        labels = np.zeros(100, dtype=int)
        labels[40:60] = 1                      # long labelled interval
        predictions = np.zeros(100, dtype=int)
        predictions[50] = 1                    # only the true core flagged
        raw_f1 = f1_score(labels, predictions)
        _, adjusted_recall, adjusted_f1 = point_adjusted_prf(labels,
                                                             predictions)
        assert raw_f1 < 0.1
        assert adjusted_recall == 1.0
        assert adjusted_f1 > 0.9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            point_adjust(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestStreamEventReport:
    def test_latency_per_segment(self):
        from repro.metrics import stream_event_report
        #        segment A: 2..5      segment B: 8..10
        labels = np.array([0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0])
        report = stream_event_report(labels, alert_indices=[4, 5, 8],
                                     drift_indices=[6], n_refreshes=1)
        assert report.n_events == 2
        assert report.n_detected == 2
        assert report.latencies == (2, 0)   # first alerts at 4 and 8
        assert report.mean_latency == 1.0
        assert report.event_recall == 1.0
        assert report.n_false_alarms == 0
        assert report.n_drift_events == 1
        assert report.n_refreshes == 1

    def test_false_alarms_and_misses(self):
        from repro.metrics import stream_event_report
        labels = np.array([0, 0, 1, 1, 0, 0, 1, 0])
        report = stream_event_report(labels, alert_indices=[0, 5])
        assert report.n_events == 2
        assert report.n_detected == 0
        assert report.latencies == ()
        assert np.isnan(report.mean_latency)
        assert report.n_false_alarms == 2
        assert report.n_alerts == 2

    def test_unsorted_alerts_use_earliest(self):
        from repro.metrics import stream_event_report
        labels = np.array([0, 1, 1, 1, 0])
        report = stream_event_report(labels, alert_indices=[3, 1])
        assert report.latencies == (0,)

    def test_out_of_range_alert_rejected(self):
        from repro.metrics import stream_event_report
        with pytest.raises(ValueError):
            stream_event_report(np.zeros(4, dtype=int), alert_indices=[4])

    def test_from_streaming_run(self, stream_ensemble):
        """End-to-end: the engine's counters feed the report directly."""
        from repro.metrics import stream_event_report
        from repro.streaming import BurnInMAD, StreamingDetector
        from tests.conftest import sine_regime
        stream = sine_regime(140, start=360)
        labels = np.zeros(140, dtype=int)
        for position in (100, 120):
            stream[position] += 8.0
            labels[position] = 1
        detector = StreamingDetector(stream_ensemble,
                                     calibrator=BurnInMAD(60, 8.0),
                                     history=256)
        detector.warm_up(sine_regime(7, start=353))
        detector.update_batch(stream)
        report = stream_event_report(
            labels, detector.alerts,
            drift_indices=[e.index for e in detector.drift_events],
            n_refreshes=detector.n_refreshes)
        assert report.n_events == 2
        assert report.n_detected == 2
        assert report.mean_latency == 0.0   # point outliers: caught on hit

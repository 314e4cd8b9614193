"""The StreamingDetector engine and the multi-stream fleet."""

import numpy as np
import pytest

from repro.streaming import (BurnInMAD, DDMDrift, StreamFleet,
                             StreamingDetector, shared_fleet)
from tests.conftest import sine_regime


class TestStreamingDetector:
    def test_scores_match_score_window(self, stream_ensemble):
        stream = sine_regime(30, start=360)
        detector = StreamingDetector(stream_ensemble, history=64)
        updates = [detector.update(x) for x in stream]
        window = stream_ensemble.cae_config.window
        # First w-1 arrivals cannot complete a window.
        assert all(u.score is None for u in updates[:window - 1])
        for end in (window, window + 5, len(stream)):
            expected = stream_ensemble.score_window(stream[end - window:end])
            assert updates[end - 1].score == pytest.approx(expected,
                                                           rel=1e-12)

    def test_batch_equals_scalar_path(self, stream_ensemble):
        stream = sine_regime(64, start=360)
        scalar = StreamingDetector(stream_ensemble,
                                   calibrator=BurnInMAD(20, 8.0),
                                   history=64)
        batched = StreamingDetector(stream_ensemble,
                                    calibrator=BurnInMAD(20, 8.0),
                                    history=64)
        scalar_updates = [scalar.update(x) for x in stream]
        batched_updates = []
        boundaries = [0, 1, 4, 11, 30, 64]  # ragged micro-batches
        for start, stop in zip(boundaries, boundaries[1:]):
            batched_updates.extend(batched.update_batch(stream[start:stop]))
        assert len(batched_updates) == len(scalar_updates)
        for left, right in zip(scalar_updates, batched_updates):
            assert left.index == right.index
            assert left.alert == right.alert
            if left.score is None:
                assert right.score is None
            else:
                assert right.score == pytest.approx(left.score, rel=1e-9)
        assert batched.threshold == pytest.approx(scalar.threshold,
                                                  rel=1e-9)
        assert scalar.alerts == batched.alerts

    def test_warm_up_enables_immediate_scoring(self, stream_ensemble):
        window = stream_ensemble.cae_config.window
        detector = StreamingDetector(stream_ensemble, history=64)
        detector.warm_up(sine_regime(window - 1, start=360))
        update = detector.update(sine_regime(1, start=367)[0])
        assert update.score is not None
        assert update.index == 0            # warm-up is context, not stream

    def test_alerts_on_planted_spike(self, stream_ensemble):
        stream = sine_regime(120, start=360)
        spiked = stream.copy()
        spiked[100] += 8.0                  # obvious point outlier
        detector = StreamingDetector(stream_ensemble,
                                     calibrator=BurnInMAD(60, 8.0),
                                     history=256)
        detector.warm_up(sine_regime(7, start=353))
        updates = detector.update_batch(spiked)
        assert updates[100].alert
        assert 100 in detector.alerts
        assert detector.n_observations == 120

    def test_no_alerts_without_calibrator(self, stream_ensemble):
        detector = StreamingDetector(stream_ensemble, history=64)
        detector.warm_up(sine_regime(7, start=353))
        updates = detector.update_batch(sine_regime(40, start=360))
        assert detector.threshold is None
        assert not any(u.alert for u in updates)

    def test_drift_events_recorded(self, stream_ensemble):
        detector = StreamingDetector(stream_ensemble,
                                     drift_detector=DDMDrift(min_samples=20),
                                     history=256)
        detector.warm_up(sine_regime(7, start=353))
        detector.update_batch(sine_regime(60, start=360))
        detector.update_batch(sine_regime(80, start=420, shift=3.0))
        drifts = [e for e in detector.drift_events if e.kind == "drift"]
        assert len(drifts) >= 1
        assert drifts[0].index >= 60
        # No refresher attached: the stale ensemble keeps serving.
        assert detector.n_refreshes == 0
        assert detector.ensemble is stream_ensemble

    def test_input_validation(self, stream_ensemble):
        detector = StreamingDetector(stream_ensemble, history=64)
        with pytest.raises(ValueError):
            detector.update(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            detector.update_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            StreamingDetector(stream_ensemble, history=2)
        assert detector.update_batch(np.zeros((0, 2))) == []

    def test_non_finite_rows_leave_both_buffers_untouched(self,
                                                         stream_ensemble):
        detector = StreamingDetector(stream_ensemble, history=64)
        detector.warm_up(sine_regime(10, start=350))
        rows = sine_regime(3, start=360)
        rows[2, 1] = np.nan
        window = detector._window._buffer.copy()
        history = detector._history.to_array()
        with pytest.raises(ValueError, match="NaN or infinite"):
            detector.prepare_update(rows)
        np.testing.assert_array_equal(detector._window._buffer, window)
        assert detector._window.total_pushed == 10
        np.testing.assert_array_equal(detector._history.to_array(), history)
        assert detector._history.total_pushed == 10
        assert detector.n_observations == 0


class TestStreamFleet:
    def test_streams_are_isolated_but_share_the_ensemble(
            self, stream_ensemble):
        fleet = shared_fleet(stream_ensemble,
                             calibrator_factory=lambda: BurnInMAD(20, 8.0),
                             history=64)
        quiet = sine_regime(40, start=360)
        noisy = sine_regime(40, start=360)
        noisy[30] += 9.0
        fleet.warm_up("quiet", sine_regime(7, start=353))
        fleet.warm_up("noisy", sine_regime(7, start=353))
        fleet.update_many({"quiet": quiet, "noisy": noisy})
        assert fleet.names == ["noisy", "quiet"]
        assert fleet.detector("quiet").ensemble is \
            fleet.detector("noisy").ensemble
        stats = {s.name: s for s in fleet.stats()}
        assert stats["noisy"].n_alerts >= 1
        assert stats["quiet"].n_alerts == 0
        assert fleet.total_observations == 80
        assert len(fleet) == 2 and "quiet" in fleet

    def test_factory_receives_stream_name(self, stream_ensemble):
        seen = []

        def factory(name):
            seen.append(name)
            return StreamingDetector(stream_ensemble, history=64)

        fleet = StreamFleet(factory)
        fleet.update("server-1", np.zeros(2))
        fleet.update("server-1", np.zeros(2))
        fleet.update("server-2", np.zeros(2))
        assert seen == ["server-1", "server-2"]
        assert fleet.detector("server-1").n_observations == 2

"""Synthetic signal generators and outlier injectors."""

import numpy as np
import pytest

from repro.datasets import synthetic as syn


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestSignalComponents:
    def test_sine_period(self, rng):
        t = np.arange(100.0)
        wave = syn.sine_wave(period=25.0, amplitude=2.0)(t, rng)
        np.testing.assert_allclose(wave[0], wave[25], atol=1e-9)
        assert np.abs(wave).max() <= 2.0 + 1e-9

    def test_random_walk_is_cumulative(self, rng):
        t = np.arange(1000.0)
        walk = syn.random_walk(step_std=1.0)(t, rng)
        # Variance grows with time for a random walk.
        assert np.var(walk[500:]) > np.var(walk[:100])

    def test_level_shifts_piecewise_constant(self, rng):
        t = np.arange(100.0)
        levels = syn.level_shifts(n_levels=4, magnitude=1.0)(t, rng)
        assert len(np.unique(levels)) <= 4

    def test_ecg_beats_are_quasi_periodic(self, rng):
        t = np.arange(500.0)
        beats = syn.ecg_beats(beat_period=50.0, amplitude=3.0)(t, rng)
        # Roughly one dominant peak per period.
        peaks = np.sum((beats[1:-1] > beats[:-2]) & (beats[1:-1] > beats[2:])
                       & (beats[1:-1] > 1.5))
        assert 6 <= peaks <= 14

    def test_square_duty_cycle(self, rng):
        t = np.arange(100.0)
        square = syn.square_duty_cycle(period=10.0, duty=0.5,
                                       amplitude=1.0)(t, rng)
        assert set(np.unique(square)) == {0.0, 1.0}
        np.testing.assert_allclose(square.mean(), 0.5, atol=0.05)

    def test_channel_spec_render(self, rng):
        spec = syn.ChannelSpec([syn.sine_wave(10.0)], noise_std=0.0,
                               offset=5.0, scale=2.0)
        signal = spec.render(50, rng)
        assert signal.shape == (50,)
        np.testing.assert_allclose(signal.mean(), 5.0, atol=0.5)

    def test_render_channels_shape_and_mixing(self, rng):
        specs = [syn.ChannelSpec([syn.sine_wave(10.0)]) for _ in range(3)]
        plain = syn.render_channels(specs, 60, np.random.default_rng(1))
        mixed = syn.render_channels(specs, 60, np.random.default_rng(1),
                                    mixing_strength=1.0)
        assert plain.shape == mixed.shape == (60, 3)
        assert not np.allclose(plain, mixed)


class TestPointInjection:
    def test_marks_labels_and_changes_values(self, rng):
        series = np.zeros((100, 3)) + rng.normal(0, 1, (100, 3))
        original = series.copy()
        labels = np.zeros(100, dtype=np.int64)
        reports = syn.inject_point_outliers(series, labels, count=5,
                                            magnitude=10.0, rng=rng)
        assert labels.sum() == 5
        assert len(reports) == 5
        changed = np.any(series != original, axis=1)
        np.testing.assert_array_equal(np.flatnonzero(labels),
                                      np.flatnonzero(changed))

    def test_zero_count_noop(self, rng):
        series = np.zeros((10, 2))
        labels = np.zeros(10, dtype=np.int64)
        assert syn.inject_point_outliers(series, labels, 0, 5.0, rng) == []
        assert labels.sum() == 0

    def test_magnitude_scales_with_std(self, rng):
        series = rng.normal(0, 2.0, (200, 1))
        labels = np.zeros(200, dtype=np.int64)
        reports = syn.inject_point_outliers(series, labels, count=1,
                                            magnitude=10.0, rng=rng)
        position = reports[0].start
        assert abs(series[position, 0]) > 5.0


class TestContextualInjection:
    def test_value_becomes_global_mean(self, rng):
        t = np.arange(200.0)
        series = np.sin(t / 5).reshape(-1, 1) * 10
        labels = np.zeros(200, dtype=np.int64)
        means = series.mean(axis=0)
        reports = syn.inject_contextual_outliers(series, labels, count=3,
                                                 rng=rng)
        for report in reports:
            np.testing.assert_allclose(series[report.start, report.dims[0]],
                                       means[report.dims[0]])
        assert labels.sum() == 3


class TestIntervalInjection:
    def test_shift_mode_labels_interval(self, rng):
        series = rng.normal(size=(300, 4))
        labels = np.zeros(300, dtype=np.int64)
        reports = syn.inject_interval_outliers(series, labels, n_intervals=2,
                                               interval_length=20,
                                               magnitude=5.0, rng=rng)
        assert labels.sum() >= 20     # intervals may overlap
        for report in reports:
            assert report.stop - report.start == 20

    def test_flatline_mode(self, rng):
        series = rng.normal(size=(200, 2))
        labels = np.zeros(200, dtype=np.int64)
        reports = syn.inject_interval_outliers(series, labels, n_intervals=1,
                                               interval_length=15,
                                               magnitude=1.0, rng=rng,
                                               dims_fraction=1.0,
                                               mode="flatline")
        report = reports[0]
        segment = series[report.start:report.stop, report.dims[0]]
        assert np.all(segment == segment[0])

    def test_core_fraction_limits_actual_deviation(self, rng):
        """WADI semantics: labels cover the whole interval but only the
        core truly deviates — the structural recall cap."""
        series = np.zeros((500, 2))
        labels = np.zeros(500, dtype=np.int64)
        reports = syn.inject_interval_outliers(
            series, labels, n_intervals=1, interval_length=40, magnitude=5.0,
            rng=rng, dims_fraction=1.0, mode="noise",
            label_whole_interval=True, core_fraction=0.25)
        report = reports[0]
        labelled = labels[report.start:report.stop].sum()
        deviating = int(np.any(series != 0.0, axis=1).sum())
        assert labelled == 40
        assert deviating <= 12   # only the ~25% core was touched

    def test_unknown_mode_raises(self, rng):
        with pytest.raises(ValueError):
            syn.inject_interval_outliers(np.zeros((100, 1)),
                                         np.zeros(100, dtype=np.int64),
                                         1, 10, 1.0, rng, mode="bogus")

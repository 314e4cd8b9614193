"""Window construction and the Figure 10 score-mapping protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.windows import (sample_windows, sliding_windows,
                                    window_count,
                                    window_scores_to_observation_scores)


class TestSlidingWindows:
    def test_basic_shape(self):
        series = np.arange(20.0).reshape(10, 2)
        windows = sliding_windows(series, 4)
        assert windows.shape == (7, 4, 2)

    def test_stride_one_overlap(self):
        series = np.arange(10.0).reshape(10, 1)
        windows = sliding_windows(series, 3)
        np.testing.assert_array_equal(windows[0, :, 0], [0, 1, 2])
        np.testing.assert_array_equal(windows[1, :, 0], [1, 2, 3])

    def test_custom_stride(self):
        series = np.arange(10.0).reshape(10, 1)
        windows = sliding_windows(series, 3, stride=2)
        assert windows.shape == (4, 3, 1)
        np.testing.assert_array_equal(windows[1, :, 0], [2, 3, 4])

    def test_window_equals_length(self):
        series = np.zeros((5, 2))
        assert sliding_windows(series, 5).shape == (1, 5, 2)

    def test_views_are_read_only(self):
        windows = sliding_windows(np.zeros((6, 1)), 3)
        with pytest.raises((ValueError, RuntimeError)):
            windows[0, 0, 0] = 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sliding_windows(np.zeros(5), 2)             # 1-D
        with pytest.raises(ValueError):
            sliding_windows(np.zeros((5, 1)), 0)        # bad window
        with pytest.raises(ValueError):
            sliding_windows(np.zeros((5, 1)), 6)        # too long
        with pytest.raises(ValueError):
            sliding_windows(np.zeros((5, 1)), 2, stride=0)

    @given(length=st.integers(2, 60), window=st.integers(1, 60),
           stride=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_helper(self, length, window, stride):
        if window > length:
            return
        series = np.zeros((length, 2))
        windows = sliding_windows(series, window, stride)
        assert windows.shape[0] == window_count(length, window, stride)

    @given(length=st.integers(4, 40), window=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_every_window_is_a_contiguous_slice(self, length, window):
        if window > length:
            return
        series = np.arange(length, dtype=float).reshape(-1, 1)
        windows = sliding_windows(series, window)
        for i in range(windows.shape[0]):
            np.testing.assert_array_equal(
                windows[i, :, 0], np.arange(i, i + window, dtype=float))


class TestSampleWindows:
    """The capped training subsample, gathered from the strided view."""

    @staticmethod
    def copy_then_index(series, window, cap, rng):
        """The materialise-everything form the helper replaces."""
        windows = np.array(sliding_windows(series, window))
        if cap is not None and windows.shape[0] > cap:
            keep = rng.choice(windows.shape[0], size=cap, replace=False)
            windows = windows[np.sort(keep)]
        return windows

    @pytest.mark.parametrize("length, window, cap", [
        (300, 16, 64), (300, 16, 285), (300, 16, 284), (300, 16, 1000),
        (300, 16, None), (40, 8, 1), (17, 16, 1),
    ])
    def test_same_rows_and_same_generator_state(self, length, window, cap):
        series = np.random.default_rng(length).standard_normal((length, 3))
        old_rng, new_rng = (np.random.default_rng(9),
                            np.random.default_rng(9))
        expected = self.copy_then_index(series, window, cap, old_rng)
        sampled = sample_windows(series, window, cap, new_rng)
        np.testing.assert_array_equal(sampled, expected)
        assert sampled.dtype == expected.dtype
        assert old_rng.bit_generator.state == new_rng.bit_generator.state
        # The following draw agrees too: the generators are in step.
        assert old_rng.integers(2 ** 32) == new_rng.integers(2 ** 32)

    def test_returns_an_owned_contiguous_array(self):
        series = np.arange(60.0).reshape(30, 2)
        for cap in (5, None):
            sampled = sample_windows(series, 4, cap,
                                     np.random.default_rng(0))
            assert sampled.flags.c_contiguous and sampled.flags.writeable
            assert not np.shares_memory(sampled, series)


class TestScoreMapping:
    def test_first_window_contributes_all(self):
        scores = np.array([[1.0, 2.0, 3.0],
                           [9.0, 9.0, 4.0],
                           [9.0, 9.0, 5.0]])
        out = window_scores_to_observation_scores(scores, 3)
        np.testing.assert_array_equal(out, [1, 2, 3, 4, 5])

    def test_single_window(self):
        out = window_scores_to_observation_scores(np.array([[7.0, 8.0]]), 2)
        np.testing.assert_array_equal(out, [7.0, 8.0])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            window_scores_to_observation_scores(np.zeros((3, 4)), 5)

    @given(n=st.integers(1, 50), window=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_output_length_invariant(self, n, window):
        scores = np.random.default_rng(0).random((n, window))
        out = window_scores_to_observation_scores(scores, window)
        assert out.shape == (n + window - 1,)

    @given(n=st.integers(2, 30), window=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_tail_scores_come_from_last_column(self, n, window):
        scores = np.random.default_rng(1).random((n, window))
        out = window_scores_to_observation_scores(scores, window)
        np.testing.assert_array_equal(out[window:], scores[1:, -1])


class TestStridedView:
    @pytest.mark.parametrize("stride", [1, 3])
    def test_matches_sliding_window_view(self, stride):
        """Same values, shape and strides as the windows transposed out
        of ``sliding_window_view``, and read-only."""
        series = np.arange(60.0).reshape(20, 3)
        windows = sliding_windows(series, 5, stride)
        reference = np.lib.stride_tricks.sliding_window_view(
            series, 5, axis=0)[::stride].transpose(0, 2, 1)
        assert windows.shape == reference.shape
        assert windows.strides == reference.strides
        np.testing.assert_array_equal(windows, reference)
        assert not windows.flags.writeable
        assert np.shares_memory(windows, series)

"""Ring-buffer semantics of the streaming subsystem."""

import numpy as np
import pytest

from repro.streaming import HistoryBuffer, SlidingWindow


class TestSlidingWindow:
    def test_fills_then_slides(self):
        window = SlidingWindow(window=3, dims=2)
        rows = np.arange(10.0).reshape(5, 2)
        assert not window.ready
        window.push(rows[0])
        window.push(rows[1])
        assert not window.ready
        with pytest.raises(RuntimeError):
            window.view()
        window.push(rows[2])
        assert window.ready
        np.testing.assert_array_equal(window.view(), rows[:3])
        window.push(rows[3])
        np.testing.assert_array_equal(window.view(), rows[1:4])
        window.push(rows[4])
        np.testing.assert_array_equal(window.view(), rows[2:5])

    def test_view_is_zero_copy(self):
        window = SlidingWindow(window=4, dims=1)
        window.push_many(np.arange(4.0).reshape(4, 1))
        view = window.view()
        assert view.base is not None          # a view, not a copy
        assert not view.flags.writeable
        # Long streams keep yielding views of the same backing buffer.
        backing = view.base
        window.push_many(np.arange(100.0).reshape(100, 1))
        assert window.view().base is backing

    def test_push_many_matches_scalar_pushes(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((57, 3))
        bulk = SlidingWindow(window=5, dims=3)
        scalar = SlidingWindow(window=5, dims=3)
        for row in rows:
            scalar.push(row)
        # Mixed batch sizes, including batches larger than the window.
        for chunk in (rows[:2], rows[2:3], rows[3:20], rows[20:57]):
            bulk.push_many(chunk)
        np.testing.assert_array_equal(bulk.view(), scalar.view())
        assert bulk.total_pushed == scalar.total_pushed == 57

    def test_tail(self):
        window = SlidingWindow(window=4, dims=1)
        window.push_many(np.arange(6.0).reshape(6, 1))
        np.testing.assert_array_equal(window.tail(2),
                                      np.array([[4.0], [5.0]]))
        assert window.tail(0).shape == (0, 1)
        with pytest.raises(ValueError):
            window.tail(5)

    def test_rejects_bad_shapes_and_values(self):
        window = SlidingWindow(window=3, dims=2)
        with pytest.raises(ValueError):
            window.push(np.zeros(3))
        with pytest.raises(ValueError):
            window.push_many(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            window.push(np.array([np.nan, 0.0]))

    def test_state_round_trip(self):
        window = SlidingWindow(window=4, dims=2)
        window.push_many(np.arange(22.0).reshape(11, 2))
        clone = SlidingWindow(window=4, dims=2)
        clone.load_state_dict(window.state_dict())
        np.testing.assert_array_equal(clone.view(), window.view())
        assert clone.total_pushed == window.total_pushed
        # Both continue identically.
        window.push(np.array([100.0, 101.0]))
        clone.push(np.array([100.0, 101.0]))
        np.testing.assert_array_equal(clone.view(), window.view())

    def test_state_geometry_mismatch(self):
        window = SlidingWindow(window=4, dims=2)
        other = SlidingWindow(window=3, dims=2)
        with pytest.raises(ValueError):
            other.load_state_dict(window.state_dict())


class TestHistoryBuffer:
    def test_chronological_recovery(self):
        history = HistoryBuffer(capacity=5, dims=1)
        rows = np.arange(8.0).reshape(8, 1)
        history.push_many(rows[:3])
        np.testing.assert_array_equal(history.to_array(), rows[:3])
        history.push_many(rows[3:])
        assert len(history) == 5
        np.testing.assert_array_equal(history.to_array(), rows[3:])
        assert history.total_pushed == 8

    def test_oversized_batch_keeps_newest(self):
        history = HistoryBuffer(capacity=3, dims=1)
        history.push_many(np.arange(10.0).reshape(10, 1))
        np.testing.assert_array_equal(history.to_array(),
                                      np.array([[7.0], [8.0], [9.0]]))

    def test_state_round_trip(self):
        history = HistoryBuffer(capacity=4, dims=2)
        history.push_many(np.arange(18.0).reshape(9, 2))
        clone = HistoryBuffer(capacity=4, dims=2)
        clone.load_state_dict(history.state_dict())
        np.testing.assert_array_equal(clone.to_array(), history.to_array())
        assert clone.total_pushed == history.total_pushed


def fancy_index_ring(capacity: int, mirrored: bool, batches):
    """The ring writes the slice writes replaced: one ``np.arange``
    fancy index per batch (written twice for the doubled window)."""
    ring = np.zeros((2 * capacity if mirrored else capacity, 2))
    count = 0
    for rows in batches:
        n = rows.shape[0]
        if n == 0:
            continue
        if n > capacity:
            count += n - capacity
            rows = rows[-capacity:]
            n = capacity
        slots = (count + np.arange(n)) % capacity
        ring[slots] = rows
        if mirrored:
            ring[slots + capacity] = rows
        count += n
    return ring, count


class TestSliceWrites:
    """Slice writes leave the rings exactly as the fancy-index writes
    did: across wrap-around, for oversized batches and for empty ones."""

    BATCHES = [0, 3, 1, 4, 0, 2, 9, 5, 0, 1, 1, 7, 13]

    @pytest.mark.parametrize("capacity", [1, 4, 5])
    def test_rings_match_fancy_index_writes(self, capacity):
        rng = np.random.default_rng(capacity)
        batches = [rng.standard_normal((n, 2)) for n in self.BATCHES]
        window = SlidingWindow(window=capacity, dims=2)
        history = HistoryBuffer(capacity=capacity, dims=2)
        for end, rows in enumerate(batches, start=1):
            window.push_many(rows)
            history.push_many(rows)
            for buffer, mirrored in ((window, True), (history, False)):
                ring, count = fancy_index_ring(capacity, mirrored,
                                               batches[:end])
                np.testing.assert_array_equal(buffer._buffer, ring)
                assert buffer.total_pushed == count

    def test_push_many_still_validates(self):
        for buffer in (SlidingWindow(window=3, dims=2),
                       HistoryBuffer(capacity=3, dims=2)):
            with pytest.raises(ValueError, match="NaN or infinite"):
                buffer.push_many(np.array([[0.0, 1.0], [np.inf, 0.0]]))
            with pytest.raises(ValueError):
                buffer.push_many(np.zeros((2, 3)))
            assert buffer.total_pushed == 0

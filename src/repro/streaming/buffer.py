"""Preallocated ring buffers and refresh corpora for the online engine.

Two buffers back the streaming hot path:

* :class:`SlidingWindow` keeps exactly the last ``window`` observations and
  yields the current window as a **zero-copy view**.  It uses the doubled
  ring-buffer trick: every arrival is written to two mirrored slots, so
  the most recent ``window`` rows are always contiguous in memory and no
  per-arrival reshuffling or copying is needed.
* :class:`HistoryBuffer` keeps the last ``capacity`` observations (a much
  longer horizon) so a drift-triggered refresh can retrain the ensemble on
  recent traffic (:mod:`repro.streaming.refresh`).

The history ring retains only the *most recent* ``capacity`` rows, so a
refresh triggered late after a drift has already lost the pre-drift
regime.  Two alternative refresh corpora keep older context alive:

* :class:`ReservoirBuffer` — block-wise uniform reservoir sampling
  (Vitter's Algorithm R over fixed-length segments): every block of the
  stream so far is retained with equal probability, so the corpus spans
  the whole stream at constant memory;
* :class:`DecayedReservoirBuffer` — recency-weighted reservoir (A-ES style
  exponential weights): recent blocks are strongly preferred but old
  blocks survive with geometrically decaying probability, blending
  pre-drift context into the retraining corpus.

Both sample *blocks* of consecutive observations rather than single rows,
because the refresher trains on sliding windows over the corpus — blocks
much longer than the training window keep almost all windows temporally
coherent (only windows straddling a block boundary mix regimes).  All
randomness is derived from a per-block-index seeded generator, so buffer
state is a pure function of ``(seed, rows pushed)``: ``push_many`` is
exactly equivalent to repeated ``push`` for any chunking, and checkpoints
restore bit-identical state.

All buffers expose ``state_dict`` / ``load_state_dict`` so a live detector
can be checkpointed and resumed (:mod:`repro.core.persistence`);
:func:`history_buffer_from_state` rebuilds the right class from a saved
state.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


def _validate_rows(rows: np.ndarray, dims: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None]
    if rows.ndim != 2 or rows.shape[1] != dims:
        raise ValueError(f"expected (B, {dims}) observations, "
                         f"got shape {rows.shape}")
    require_finite(rows)
    return rows


def require_finite(rows: np.ndarray) -> None:
    if not np.isfinite(rows).all():
        raise ValueError("observations contain NaN or infinite values")


def _ring_write(ring: np.ndarray, count: int, rows: np.ndarray) -> int:
    """Write ``rows`` into ``ring`` after ``count`` earlier rows, as at
    most two contiguous slices, and return the new count.  Only the last
    ``len(ring)`` rows are written: older ones would be overwritten."""
    capacity = ring.shape[0]
    kept = rows[-capacity:]
    start = (count + rows.shape[0] - kept.shape[0]) % capacity
    head = min(kept.shape[0], capacity - start)
    ring[start:start + head] = kept[:head]
    if head < kept.shape[0]:
        ring[:kept.shape[0] - head] = kept[head:]
    return count + rows.shape[0]


class SlidingWindow:
    """The last ``window`` observations of a stream, viewable without copies.

    >>> import numpy as np
    >>> window = SlidingWindow(window=3, dims=2)
    >>> window.ready
    False
    >>> window.push_many(np.arange(8.0).reshape(4, 2))
    >>> window.ready, len(window)
    (True, 3)
    >>> window.view()
    array([[2., 3.],
           [4., 5.],
           [6., 7.]])

    The backing array holds two mirrored copies of the ring, so the window
    ending at the newest arrival is always one contiguous slice —
    :meth:`view` is O(1) and allocation-free regardless of stream length.
    """

    def __init__(self, window: int, dims: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        self.window = window
        self.dims = dims
        self._buffer = np.zeros((2 * window, dims), dtype=np.float64)
        self._count = 0

    def __len__(self) -> int:
        """Observations currently held (saturates at ``window``)."""
        return min(self._count, self.window)

    @property
    def total_pushed(self) -> int:
        return self._count

    @property
    def ready(self) -> bool:
        """True once a full window of observations has arrived."""
        return self._count >= self.window

    def push(self, observation: np.ndarray) -> None:
        """Append one observation ``(dims,)``."""
        row = _validate_rows(observation, self.dims)
        if row.shape[0] != 1:
            raise ValueError("push takes a single observation; "
                             "use push_many for batches")
        slot = self._count % self.window
        self._buffer[slot] = row[0]
        self._buffer[slot + self.window] = row[0]
        self._count += 1

    def push_many(self, observations: np.ndarray) -> None:
        """Append a batch ``(B, dims)`` in one vectorised write."""
        self.push_validated(_validate_rows(observations, self.dims))

    def push_validated(self, rows: np.ndarray) -> None:
        """Append already-validated ``(B, dims)`` float64 rows."""
        _ring_write(self._buffer[:self.window], self._count, rows)
        self._count = _ring_write(self._buffer[self.window:], self._count,
                                  rows)

    def view(self) -> np.ndarray:
        """Read-only ``(window, dims)`` view of the current window."""
        if not self.ready:
            raise RuntimeError(f"window not full: {len(self)}/{self.window} "
                               f"observations buffered")
        return self.tail(self.window)

    def tail(self, k: int) -> np.ndarray:
        """Read-only view of the most recent ``k`` observations."""
        if not 0 <= k <= len(self):
            raise ValueError(f"cannot take tail of {k} from {len(self)} "
                             f"buffered observations")
        if k == 0:
            return self._buffer[:0]
        end = (self._count - 1) % self.window + self.window
        view = self._buffer[end - k + 1:end + 1].view()
        view.flags.writeable = False
        return view

    def state_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "dims": self.dims,
            "count": self._count,
            "rows": self.tail(len(self)).tolist(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if int(state["window"]) != self.window or \
                int(state["dims"]) != self.dims:
            raise ValueError("sliding-window geometry mismatch: saved "
                             f"({state['window']}, {state['dims']}), "
                             f"buffer ({self.window}, {self.dims})")
        self._buffer[:] = 0.0
        rows = np.asarray(state["rows"], dtype=np.float64)
        rows = rows.reshape(-1, self.dims) if rows.size \
            else rows.reshape(0, self.dims)
        # Start counting where the saved stream's retained rows began, so
        # ring slots line up with the saved count.
        self._count = int(state["count"]) - rows.shape[0]
        if rows.shape[0]:
            self.push_many(rows)


class HistoryBuffer:
    """Ring of the most recent ``capacity`` observations, chronologically
    recoverable via :meth:`to_array` — the retraining corpus for
    drift-triggered ensemble refresh.

    >>> import numpy as np
    >>> history = HistoryBuffer(capacity=4, dims=1)
    >>> history.push_many(np.arange(6.0).reshape(6, 1))
    >>> len(history), history.total_pushed
    (4, 6)
    >>> history.to_array().ravel()      # oldest rows evicted first
    array([2., 3., 4., 5.])
    """

    kind = "ring"

    def __init__(self, capacity: int, dims: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        self.capacity = capacity
        self.dims = dims
        self._buffer = np.zeros((capacity, dims), dtype=np.float64)
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    @property
    def total_pushed(self) -> int:
        return self._count

    def push(self, observation: np.ndarray) -> None:
        self.push_many(_validate_rows(observation, self.dims))

    def push_many(self, observations: np.ndarray) -> None:
        self.push_validated(_validate_rows(observations, self.dims))

    def push_validated(self, rows: np.ndarray) -> None:
        self._count = _ring_write(self._buffer, self._count, rows)

    def to_array(self) -> np.ndarray:
        """Chronological copy ``(len, dims)`` of the buffered history."""
        held = len(self)
        if held < self.capacity:
            return self._buffer[:held].copy()
        pivot = self._count % self.capacity
        return np.concatenate([self._buffer[pivot:], self._buffer[:pivot]])

    def state_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "capacity": self.capacity,
            "dims": self.dims,
            "count": self._count,
            "rows": self.to_array().tolist(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if int(state["capacity"]) != self.capacity or \
                int(state["dims"]) != self.dims:
            raise ValueError("history-buffer geometry mismatch: saved "
                             f"({state['capacity']}, {state['dims']}), "
                             f"buffer ({self.capacity}, {self.dims})")
        self._buffer[:] = 0.0
        rows = np.asarray(state["rows"], dtype=np.float64)
        rows = rows.reshape(-1, self.dims) if rows.size \
            else rows.reshape(0, self.dims)
        self._count = int(state["count"]) - rows.shape[0]
        if rows.shape[0]:
            self.push_many(rows)


class _BlockReservoir:
    """Shared machinery of the block-sampled refresh corpora.

    Rows accumulate into the current block; each completed block is
    offered to the reservoir, whose accept/replace decisions come from a
    generator seeded with ``(seed, block_index)`` — deterministic per
    block regardless of how the rows arrived.

    ``capacity`` bounds the *retained* sample and is rounded down to a
    whole number of blocks at construction (``self.capacity`` reports the
    effective value).  The still-filling current block rides on top as
    transient working space, so ``len()`` may briefly exceed capacity by
    up to ``block - 1`` rows and dips by up to ``block`` when a completed
    block is offered and rejected; peak memory is bounded by
    ``capacity + block`` rows.
    """

    def __init__(self, capacity: int, dims: int, block: int = 64,
                 seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        if block > capacity:
            raise ValueError(f"block ({block}) cannot exceed capacity "
                             f"({capacity})")
        self.n_slots = capacity // block
        self.capacity = self.n_slots * block      # whole blocks only
        self.dims = dims
        self.block = block
        self.seed = int(seed)
        self._count = 0                       # total rows ever pushed
        # Parallel lists in *slot* order (sampling order, not time order).
        self._block_indices: List[int] = []
        self._blocks: List[np.ndarray] = []
        self._partial = np.zeros((block, dims), dtype=np.float64)
        self._fill = 0                        # rows in the partial block

    def __len__(self) -> int:
        """Rows currently available as retraining corpus."""
        return len(self._blocks) * self.block + self._fill

    @property
    def total_pushed(self) -> int:
        return self._count

    def _block_rng(self, block_index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, block_index))

    def _offer(self, block_index: int, rows: np.ndarray) -> None:
        raise NotImplementedError

    def push(self, observation: np.ndarray) -> None:
        self.push_many(_validate_rows(observation, self.dims))

    def push_many(self, observations: np.ndarray) -> None:
        self.push_validated(_validate_rows(observations, self.dims))

    def push_validated(self, rows: np.ndarray) -> None:
        cursor = 0
        while cursor < rows.shape[0]:
            take = min(self.block - self._fill, rows.shape[0] - cursor)
            self._partial[self._fill:self._fill + take] = \
                rows[cursor:cursor + take]
            self._fill += take
            self._count += take
            cursor += take
            if self._fill == self.block:
                block_index = self._count // self.block - 1
                self._offer(block_index, self._partial.copy())
                self._fill = 0

    def to_array(self) -> np.ndarray:
        """Chronological corpus: retained blocks (oldest first) plus the
        rows of the still-filling current block."""
        order = np.argsort(self._block_indices, kind="stable")
        parts = [self._blocks[i] for i in order]
        parts.append(self._partial[:self._fill])
        if not parts or sum(p.shape[0] for p in parts) == 0:
            return np.zeros((0, self.dims), dtype=np.float64)
        return np.concatenate(parts)

    def _extra_state(self) -> Dict[str, object]:
        return {}

    def _entry_state(self, slot: int) -> Dict[str, object]:
        return {"index": self._block_indices[slot],
                "rows": self._blocks[slot].tolist()}

    def _load_entry(self, entry: Dict[str, object]) -> None:
        self._block_indices.append(int(entry["index"]))
        self._blocks.append(np.asarray(entry["rows"], dtype=np.float64)
                            .reshape(self.block, self.dims))

    def state_dict(self) -> Dict[str, object]:
        state = {
            "kind": self.kind,
            "capacity": self.capacity,
            "dims": self.dims,
            "block": self.block,
            "seed": self.seed,
            "count": self._count,
            "entries": [self._entry_state(slot)
                        for slot in range(len(self._blocks))],
            "partial": self._partial[:self._fill].tolist(),
        }
        state.update(self._extra_state())
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        for field in ("capacity", "dims", "block", "seed"):
            if int(state[field]) != getattr(self, field):
                raise ValueError(f"reservoir-buffer {field} mismatch: "
                                 f"saved {state[field]}, "
                                 f"buffer {getattr(self, field)}")
        self._count = int(state["count"])
        self._block_indices = []
        self._blocks = []
        for entry in state["entries"]:
            self._load_entry(entry)
        partial = np.asarray(state["partial"], dtype=np.float64)
        partial = partial.reshape(-1, self.dims) if partial.size \
            else partial.reshape(0, self.dims)
        self._partial = np.zeros((self.block, self.dims), dtype=np.float64)
        self._fill = partial.shape[0]
        self._partial[:self._fill] = partial


class ReservoirBuffer(_BlockReservoir):
    """Uniform block reservoir (Algorithm R over stream segments).

    Every completed block of the stream so far has equal probability
    ``n_slots / (blocks seen)`` of being in the corpus, so the retraining
    sample spans the entire stream at constant memory — maximal pre-drift
    context, at the cost of slower tracking of the newest regime.
    """

    kind = "reservoir"

    def _offer(self, block_index: int, rows: np.ndarray) -> None:
        if len(self._blocks) < self.n_slots:
            self._block_indices.append(block_index)
            self._blocks.append(rows)
            return
        slot = int(self._block_rng(block_index).integers(0, block_index + 1))
        if slot < self.n_slots:
            self._block_indices[slot] = block_index
            self._blocks[slot] = rows


class DecayedReservoirBuffer(_BlockReservoir):
    """Recency-weighted block reservoir (exponential A-ES weights).

    Block ``b`` competes with weight ``decay**-b`` via the A-ES key
    ``u**(1/w)``; kept in log-log space for numerical safety.  With
    ``decay`` close to 1 the corpus approaches the uniform reservoir;
    small ``decay`` approaches the plain recency ring.  The sweet spot
    retains mostly recent traffic while a geometrically-thinning sample
    of older blocks preserves pre-drift context.
    """

    kind = "decayed_reservoir"

    def __init__(self, capacity: int, dims: int, block: int = 64,
                 seed: int = 0, decay: float = 0.9):
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        super().__init__(capacity, dims, block=block, seed=seed)
        self.decay = float(decay)
        self._keys: List[float] = []

    def _offer(self, block_index: int, rows: np.ndarray) -> None:
        # A-ES key u**(1/w) with w = decay**-b, compared as
        # log(-log u) + b*log(decay): smaller is better.  Newer blocks
        # (larger b) get ever-smaller keys, so they usually win; an old
        # block survives when its u drew close to 1.
        u = float(self._block_rng(block_index).random())
        u = min(max(u, 1e-300), 1.0 - 1e-16)
        key = float(np.log(-np.log(u)) + block_index * np.log(self.decay))
        if len(self._blocks) < self.n_slots:
            self._block_indices.append(block_index)
            self._blocks.append(rows)
            self._keys.append(key)
            return
        worst = int(np.argmax(self._keys))
        if key < self._keys[worst]:
            self._block_indices[worst] = block_index
            self._blocks[worst] = rows
            self._keys[worst] = key

    def _extra_state(self) -> Dict[str, object]:
        return {"decay": self.decay}

    def _entry_state(self, slot: int) -> Dict[str, object]:
        entry = super()._entry_state(slot)
        entry["key"] = self._keys[slot]
        return entry

    def _load_entry(self, entry: Dict[str, object]) -> None:
        super()._load_entry(entry)
        self._keys.append(float(entry["key"]))

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if float(state["decay"]) != self.decay:
            raise ValueError(f"reservoir-buffer decay mismatch: saved "
                             f"{state['decay']}, buffer {self.decay}")
        self._keys = []
        super().load_state_dict(state)


_HISTORY_BUFFERS = {
    HistoryBuffer.kind: HistoryBuffer,
    ReservoirBuffer.kind: ReservoirBuffer,
    DecayedReservoirBuffer.kind: DecayedReservoirBuffer,
}


def history_buffer_from_state(state: Dict[str, object]):
    """Rebuild a refresh-corpus buffer from its ``state_dict``.

    States written before corpora were pluggable carry no ``kind`` and
    load as the original recency ring.
    """
    kind = state.get("kind", HistoryBuffer.kind)
    if kind not in _HISTORY_BUFFERS:
        raise ValueError(f"unknown history buffer kind {kind!r}; "
                         f"known: {sorted(_HISTORY_BUFFERS)}")
    cls = _HISTORY_BUFFERS[kind]
    if cls is HistoryBuffer:
        buffer = HistoryBuffer(int(state["capacity"]), int(state["dims"]))
    elif cls is ReservoirBuffer:
        buffer = ReservoirBuffer(int(state["capacity"]), int(state["dims"]),
                                 block=int(state["block"]),
                                 seed=int(state["seed"]))
    else:
        buffer = DecayedReservoirBuffer(int(state["capacity"]),
                                        int(state["dims"]),
                                        block=int(state["block"]),
                                        seed=int(state["seed"]),
                                        decay=float(state["decay"]))
    buffer.load_state_dict(state)
    return buffer

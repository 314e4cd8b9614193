"""Sliding-window construction and window→observation score mapping.

Implements the paper's pre-processing (windows of size ``w`` sliding one
observation at a time) and the Figure 10 protocol for turning per-window
reconstruction errors back into one outlier score per observation:

* the **first** window contributes the scores of *all* its timestamps;
* every **subsequent** window contributes only its *last* timestamp.

This yields exactly one score per observation of the original series.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def sliding_windows(series: np.ndarray, window: int,
                    stride: int = 1) -> np.ndarray:
    """Slice ``(L, D)`` into overlapping windows ``(N, window, D)``.

    Windows are zero-copy read-only strided views — callers that mutate
    must copy; the scoring paths consume the view directly so a series is
    never materialised ``window``-fold.
    ``N = floor((L - window) / stride) + 1``.
    """
    series = np.ascontiguousarray(series)
    if series.ndim != 2:
        raise ValueError(f"expected (L, D) series, got shape {series.shape}")
    length, dims = series.shape
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if window > length:
        raise ValueError(f"window {window} longer than series {length}")
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    # Window i starts at row i * stride; its rows and columns are the
    # series' own.  A bare ndarray over the series' buffer is the same
    # view as ``as_strided`` at a fraction of its per-call cost.
    row, column = series.strides
    view = np.ndarray(((length - window) // stride + 1, window, dims),
                      series.dtype, buffer=series, offset=0,
                      strides=(row * stride, row, column))
    view.flags.writeable = False
    return view


def sample_windows(series: np.ndarray, window: int, cap: Optional[int],
                   rng: np.random.Generator) -> np.ndarray:
    """Training windows ``(n, window, D)``: all of them, or ``cap`` drawn
    at random without replacement and kept in series order.

    The rows are gathered straight from the :func:`sliding_windows` view,
    so only the kept windows are ever materialised (a ``window``-fold
    copy of a long series would be thrown away again).  ``rng`` is drawn
    from only when the series has more than ``cap`` windows: one
    ``choice(N, size=cap, replace=False)``.
    """
    view = sliding_windows(series, window)
    if cap is None or view.shape[0] <= cap:
        return np.array(view)
    keep = rng.choice(view.shape[0], size=cap, replace=False)
    return view[np.sort(keep)]


def window_count(length: int, window: int, stride: int = 1) -> int:
    """Number of windows :func:`sliding_windows` will produce."""
    if window > length:
        raise ValueError(f"window {window} longer than series {length}")
    return (length - window) // stride + 1


def window_scores_to_observation_scores(window_scores: np.ndarray,
                                        window: int) -> np.ndarray:
    """Map per-window per-timestamp scores to one score per observation.

    Parameters
    ----------
    window_scores: ``(N, window)`` array — score of timestamp ``j`` within
                   window ``i`` (stride-1 windows assumed, as in the paper).
    window:        the window size ``w``.

    Returns
    -------
    ``(N + window - 1,)`` scores: the first window supplies its full row;
    window ``i > 0`` supplies only its last entry (Figure 10).
    """
    window_scores = np.asarray(window_scores, dtype=np.float64)
    if window_scores.ndim != 2 or window_scores.shape[1] != window:
        raise ValueError(f"expected (N, {window}) scores, "
                         f"got {window_scores.shape}")
    n = window_scores.shape[0]
    out = np.empty(n + window - 1, dtype=np.float64)
    out[:window] = window_scores[0]
    if n > 1:
        out[window:] = window_scores[1:, -1]
    return out

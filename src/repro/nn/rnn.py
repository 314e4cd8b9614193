"""Recurrent cells (LSTM / GRU) for the recurrent baselines.

The paper's accuracy and efficiency comparisons need RAE, RAE-Ensemble,
RNNVAE and OmniAnomaly — all RNN-based.  These cells unroll step by step in
Python, which is exactly the sequential bottleneck the paper attributes to
RNNs (Section 2): unlike the convolutional path, the time loop cannot be
batched away, so the Table 7 runtime gap emerges naturally here too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import init as nn_init
from .modules import Module, Parameter
from .tensor import Tensor, stack, zeros


class LSTMCell(Module):
    """Standard LSTM cell (Hochreiter & Schmidhuber 1997).

    Gates are computed as a single fused affine map for speed:
    ``[i, f, g, o] = x W_ih^T + h W_hh^T + b``.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(np.empty((4 * hidden_size, input_size)))
        self.weight_hh = Parameter(np.empty((4 * hidden_size, hidden_size)))
        self.bias = Parameter(np.zeros(4 * hidden_size))
        nn_init.xavier_uniform_(self.weight_ih, rng)
        nn_init.xavier_uniform_(self.weight_hh, rng)
        # Positive forget-gate bias, the standard trick for gradient flow.
        self.bias.data[hidden_size:2 * hidden_size] = 1.0

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]
                ) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = x @ self.weight_ih.T + h_prev @ self.weight_hh.T + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs:1 * hs].sigmoid()
        f = gates[:, 1 * hs:2 * hs].sigmoid()
        g = gates[:, 2 * hs:3 * hs].tanh()
        o = gates[:, 3 * hs:4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        return zeros(batch, self.hidden_size), zeros(batch, self.hidden_size)


class GRUCell(Module):
    """Gated recurrent unit (Cho et al. 2014)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(np.empty((3 * hidden_size, input_size)))
        self.weight_hh = Parameter(np.empty((3 * hidden_size, hidden_size)))
        self.bias_ih = Parameter(np.zeros(3 * hidden_size))
        self.bias_hh = Parameter(np.zeros(3 * hidden_size))
        nn_init.xavier_uniform_(self.weight_ih, rng)
        nn_init.xavier_uniform_(self.weight_hh, rng)

    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        hs = self.hidden_size
        gi = x @ self.weight_ih.T + self.bias_ih
        gh = h_prev @ self.weight_hh.T + self.bias_hh
        r = (gi[:, 0 * hs:1 * hs] + gh[:, 0 * hs:1 * hs]).sigmoid()
        z = (gi[:, 1 * hs:2 * hs] + gh[:, 1 * hs:2 * hs]).sigmoid()
        n = (gi[:, 2 * hs:3 * hs] + r * gh[:, 2 * hs:3 * hs]).tanh()
        return (1.0 - z) * n + z * h_prev

    def initial_state(self, batch: int) -> Tensor:
        return zeros(batch, self.hidden_size)


class LSTM(Module):
    """Unrolled single-layer LSTM over ``(N, L, D)`` sequences.

    Returns all hidden states stacked as ``(N, L, H)`` plus the final
    ``(h, c)`` state — the encoder interface used by the RAE baseline
    (Section 2, "Recurrent Autoencoders").
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor,
                state: Optional[Tuple[Tensor, Tensor]] = None
                ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        n, length, _ = x.shape
        if state is None:
            state = self.cell.initial_state(n)
        h, c = state
        outputs: List[Tensor] = []
        for t in range(length):
            h, c = self.cell(x[:, t, :], (h, c))
            outputs.append(h)
        return stack(outputs, axis=1), (h, c)

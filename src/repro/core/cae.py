"""The convolutional sequence-to-sequence autoencoder CAE (Section 3.1).

Pipeline (Figure 3): embed the window (observations + positions), encode
with a stack of same-padded GLU conv layers, decode with causal GLU conv
layers that also consume the encoder states, apply per-layer global
attention, and reconstruct with a final kernel-1 convolution (the paper's
"simple fully connected network" applied per timestep).

The decoder input is the embedded window shifted right by one step
(``<PAD, x_1, ..., x_{w-1}>``, Figures 3 and 6) so that together with
causal padding the reconstruction of ``x_t`` only conditions on strictly
earlier embedded observations plus the encoder summary.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..nn import Conv1d, Module, Tensor, no_grad
from ..nn.functional import sequence_reconstruction_errors
from .attention import GlobalAttention
from .config import CAEConfig
from .embedding import InputEmbedding
from .layers import DecoderLayer, Encoder, GLUConv


class CAE(Module):
    """Convolutional autoencoder over fixed-size windows.

    Parameters
    ----------
    config: architecture description (dims, depth, kernel, toggles).
    rng:    seeded generator — all weight init flows from here, making
            basic models reproducible and, across different seeds,
            differently initialised (the ensemble's starting diversity).
    """

    def __init__(self, config: CAEConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.embedding = InputEmbedding(config, rng)
        self.encoder = Encoder(config.embed_dim, config.n_layers,
                               config.kernel_size, rng,
                               use_glu=config.use_glu)
        self._decoder_names: List[str] = []
        self._attention_names: List[str] = []
        for i in range(config.n_layers):
            dec_name = f"decoder{i}"
            setattr(self, dec_name,
                    DecoderLayer(config.embed_dim, config.kernel_size, rng,
                                 use_glu=config.use_glu))
            self._decoder_names.append(dec_name)
            if config.use_attention:
                att_name = f"attention{i}"
                setattr(self, att_name,
                        GlobalAttention(config.embed_dim, rng))
                self._attention_names.append(att_name)
        if config.use_glu:
            self.output_glu = GLUConv(config.embed_dim, config.kernel_size,
                                      "causal", rng)
        self.reconstruction = Conv1d(config.embed_dim, config.output_dim,
                                     kernel_size=1, rng=rng, padding="valid")

    # ------------------------------------------------------------------
    def embed(self, windows: Tensor) -> Tensor:
        """Embedded input X, shape ``(N, w, D')``."""
        return self.embedding(windows)

    @staticmethod
    def _shift_right(x: Tensor) -> Tensor:
        """Prepend a zero step and drop the last: ``<0, x_1, .., x_{w-1}>``.

        ``x`` is channel-first ``(N, D', w)``.
        """
        from ..nn.functional import pad1d
        padded = pad1d(x, left=1, right=0)
        return padded[:, :, :-1]

    def forward(self, windows: Tensor) -> Tensor:
        """Reconstruct a window batch.

        Parameters
        ----------
        windows: ``(N, w, D)`` raw (re-scaled) windows.

        Returns
        -------
        ``(N, w, output_dim)`` reconstruction — raw-observation space by
        default, embedding space in the paper-literal mode.
        """
        embedded = self.embed(windows)                     # (N, w, D')
        x = embedded.transpose(0, 2, 1)                    # (N, D', w)
        encoder_states = self.encoder(x)
        decoder_state = self._shift_right(x)
        for i, dec_name in enumerate(self._decoder_names):
            decoder_state = getattr(self, dec_name)(decoder_state,
                                                    encoder_states[i])
            if self.config.use_attention:
                decoder_state, _ = getattr(self, self._attention_names[i])(
                    decoder_state, encoder_states[i])
        final = decoder_state
        if self.config.use_glu:
            final = self.output_glu(final)
        reconstructed = self.reconstruction(final)         # (N, out, w)
        return reconstructed.transpose(0, 2, 1)            # (N, w, out)

    # ------------------------------------------------------------------
    def reconstruction_target(self, windows: Tensor) -> Tensor:
        """The tensor the reconstruction is compared against (Eq. 11).

        ``'observations'`` mode targets the raw windows; ``'embedding'``
        mode targets the embedded vectors X, detached so the optimiser
        cannot shrink the loss by collapsing the embedding itself.
        """
        if self.config.reconstruct == "observations":
            return windows
        return self.embed(windows).detach()

    def window_scores(self, windows: np.ndarray,
                      batch_size: int = 256) -> np.ndarray:
        """Per-window per-timestamp squared errors (Eq. 14), ``(N, w)``.

        Runs under ``no_grad`` in mini-batches so scoring large series does
        not build autograd graphs.
        """
        windows = np.asarray(windows, dtype=np.float64)
        scores = np.empty(windows.shape[:2], dtype=np.float64)
        with no_grad():
            for start in range(0, windows.shape[0], batch_size):
                batch = Tensor(windows[start:start + batch_size])
                reconstruction = self.forward(batch)
                target = self.reconstruction_target(batch)
                scores[start:start + batch_size] = \
                    sequence_reconstruction_errors(target.data,
                                                   reconstruction.data)
        return scores

    def attention_maps(self, windows: np.ndarray) -> List[np.ndarray]:
        """Attention weight matrices per decoder layer (for inspection)."""
        if not self.config.use_attention:
            return []
        maps: List[np.ndarray] = []
        with no_grad():
            embedded = self.embed(Tensor(np.asarray(windows,
                                                    dtype=np.float64)))
            x = embedded.transpose(0, 2, 1)
            encoder_states = self.encoder(x)
            decoder_state = self._shift_right(x)
            for i, dec_name in enumerate(self._decoder_names):
                decoder_state = getattr(self, dec_name)(decoder_state,
                                                        encoder_states[i])
                decoder_state, weights = getattr(
                    self, self._attention_names[i])(decoder_state,
                                                    encoder_states[i])
                maps.append(weights.data.copy())
        return maps

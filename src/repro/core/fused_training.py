"""Fused batched training: Algorithm 1 with one batched GEMM per layer.

This is the trainer behind every :meth:`CAEEnsemble.fit`.  The paper's
sequential diversity objective (model *i* trains against the frozen mean
of models 0..i−1, Eq. 8 / Figure 8) forbids batching *across* models —
model i's target does not exist until 0..i−1 finished — so the trainer
keeps the stage structure and instead fuses *within* each stage:

* activations are channel-major ``(M, C, N, L)`` (model, channel,
  window, timestamp; M = 1, the model in training), so the window and
  timestamp axes merge into one ``N·L`` GEMM axis: a convolution is
  ``(C_out, C_in·K) @ (C_in·K, N·L)`` forward, its weight gradient the
  transposed product of the same two matrices;
* a training step is a hand-ordered sequence of kernels, no autograd
  tape: the forward writes every activation its VJP needs into a
  per-trainer :class:`~repro.core.fused._Workspace`, and the backward
  writes each parameter gradient straight into its slice of one flat
  gradient array, so once the first step has sized the workspace a
  step allocates nothing large;
* the stage's parameters live in one flat
  :class:`~repro.nn.optim.FlatParameters` pack (each GLU's value and
  gate kernels adjacent, so their GEMMs read and write one
  ``(2·C_out, C_in·K)`` block), stepped by ``Adam`` in one pass;
* the whole stage runs in a configurable compute dtype
  (``EnsembleConfig.fused_training_dtype``, default float32 — half the
  memory traffic of float64, same BLAS kernels);
* the loss, its gradient and the epoch J/K statistics come out of one
  kernel — no detached re-evaluations;
* the trainer owns the Eq. 8 running sum: after each stage but the last
  the same forward runs over all training windows in training-batch
  chunks and adds the stage's output to a channel-first float64 sum;
  the next stage divides it straight into its compute-dtype mean.  A
  ``diversity_weight == 0`` fit reads no mean, so it keeps no sum.

The kernels reproduce the arithmetic of the former autograd-tape
trainer exactly: the same GEMM operands, the same elementwise formulas,
the same reduction layouts and the same order of summing an
activation's gradient contributions (the tape's reverse topological
order), so float32 fits are bit-identical to it.

Equivalence contract (``tests/test_core_fused_training.py``): the test
suite keeps the per-module float64 loop as an oracle,
``ReferenceTrainer``.  Both consume the ensemble RNG
identically (same model-init, transfer and shuffle draws) and compute the
same objective over the same batches; with
``fused_training_dtype='float64'`` the fused trainer matches the oracle's
loss trajectory to ~1e-9 relative, and the default float32 path agrees
within a documented relative tolerance (see ``docs/performance.md``).
Trained weights are written back to the CAE modules in float64, so
scoring, checkpointing and parameter transfer are unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.conv import resolve_padding
from ..nn.optim import Adam, FlatParameters
from ..nn.tensor import _unbroadcast
from .cae import CAE
from .config import CAEConfig, EnsembleConfig
from .fused import _Workspace

# (epoch, loss, reconstruction J, diversity K) — the ensemble turns these
# into EpochRecords (kept as plain tuples to avoid a circular import).
StageRecord = Tuple[int, float, float, float]

_TABLE = "embedding.position.weight"


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic in place.  float64 uses scipy's ``expit`` (the per-model
    training kernel, bit-comparable); narrower dtypes take the vectorised
    ``1 / (1 + exp(-x))`` — the same function, faster.  scipy is imported
    only on the float64 branch, as in :meth:`Tensor.sigmoid`."""
    if x.dtype == np.float64:
        from scipy.special import expit
        return expit(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


class _Conv:
    """One convolution call site: its kernel as a ``(1, C_out, C_in·K)``
    matrix view into the flat parameters, its gradient views and its
    padding."""

    def __init__(self, key: str, params: FlatParameters, prefix: str,
                 padding: str):
        weight = params.views[prefix + "weight"]
        _, c_out, c_in, kernel_size = weight.shape
        self.key = key
        self.kernel_size = kernel_size
        self.left, right = resolve_padding(kernel_size, padding)
        # The kernel-1 reconstruction head's columns are its input.
        self.unfolds = not (kernel_size == 1 and self.left == right == 0)
        self.weight = weight.reshape(1, c_out, c_in * kernel_size)
        self.bias = params.views[prefix + "bias"].reshape(1, c_out, 1, 1)
        self.grad_weight = params.grads[prefix + "weight"] \
            .reshape(self.weight.shape)
        self.grad_bias = params.grads[prefix + "bias"]
        self.saved: tuple = ()


class _GLU:
    """One gated linear unit call site.  Its value and gate kernels are
    adjacent in the flat parameters, so they form one ``(1, 2·C_out,
    C_in·K)`` matrix: value rows, then gate rows.  So are their biases,
    one ``(1, 2, C_out, 1, 1)`` block."""

    def __init__(self, key: str, params: FlatParameters, prefix: str,
                 padding: str):
        value = params.views[prefix + "conv_value.weight"]
        _, c_out, _, kernel_size = value.shape
        span = params.span(prefix + "conv_value.weight",
                           prefix + "conv_gate.weight")
        self.key = key
        self.kernel_size = kernel_size
        self.left, _ = resolve_padding(kernel_size, padding)
        self.weight = params.data[span].reshape(1, 2 * c_out, -1)
        self.grad_weight = params.grad[span].reshape(self.weight.shape)
        span = params.span(prefix + "conv_value.bias",
                           prefix + "conv_gate.bias")
        self.bias = params.data[span].reshape(1, 2, c_out, 1, 1)
        self.grad_bias = params.grad[span].reshape(1, 2, c_out)
        self.saved: tuple = ()


class _Attention:
    """One global attention call site (Eq. 7)."""

    def __init__(self, key: str, params: FlatParameters, prefix: str):
        self.key = key
        self.weight = params.views[prefix + "weight"]
        self.bias = params.views[prefix + "bias"].reshape(1, -1, 1)
        self.grad_weight = params.grads[prefix + "weight"]
        self.grad_bias = params.grads[prefix + "bias"]
        self.saved: tuple = ()


class FusedEnsembleTrainer:
    """Stage-sequential fused trainer for one ensemble fit.

    One instance serves one :meth:`CAEEnsemble.fit` call: it takes the
    fit's training windows once, in channel-first compute-dtype layout,
    trains each basic model with the workspace kernels and keeps the
    Eq. 8 running sum of the finished models' outputs.  The ensemble
    keeps owning Algorithm 1's sequencing (model creation, parameter
    transfer and cancellation) so the RNG draw order is shared with the
    test oracle by construction.
    """

    def __init__(self, cae_config: CAEConfig, ensemble_config: EnsembleConfig,
                 windows: np.ndarray):
        self.cae_config = cae_config
        self.config = ensemble_config
        self.dtype = np.dtype(ensemble_config.fused_training_dtype)
        # (D, N, w) contiguous compute-dtype copy of the training windows.
        self._windows_cf = np.ascontiguousarray(windows.transpose(2, 0, 1),
                                                dtype=self.dtype)
        # Normalised position inputs (w, 1), as InputEmbedding builds them.
        w = cae_config.window
        self._position_base = (np.arange(w, dtype=np.float64)
                               / max(w - 1, 1)).reshape(-1, 1) \
            .astype(self.dtype)
        self._table = cae_config.position_mode == "table"
        self.workspace = _Workspace()
        # Workspace views by (key, shape): a step asks for ~100 buffers.
        self._views: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}
        self._params: Optional[FlatParameters] = None
        # Eq. 8: the channel-first (out, N, w) float64 sum of the
        # finished stages' outputs, and how many stages it holds.
        self.ensemble_sum: Optional[np.ndarray] = None
        self.summed = 0

    # ------------------------------------------------------------------
    # Stage parameters
    # ------------------------------------------------------------------
    def _load(self, model: CAE) -> FlatParameters:
        """The model's weights in the flat compute-dtype pack.

        Every parameter gets a leading model axis ``(1, *shape)``; each
        GLU's gate kernel follows its value kernel, and a position table
        is stored transposed, ``(1, D', w)``: the channel-major layout
        its kernels read and its gradient comes out in.
        """
        named = dict(model.named_parameters())
        if self._params is None:
            shapes = []
            for name, param in named.items():
                if name.endswith("conv_gate.weight"):
                    continue
                shapes.append((name, (1, *self._layout(name, param.data)
                                      .shape)))
                if name.endswith("conv_value.weight"):
                    gate = name.replace("conv_value", "conv_gate")
                    shapes.append((gate, (1, *named[gate].shape)))
            self._params = FlatParameters(shapes, self.dtype)
            self._build_sites()
        for name, view in self._params.views.items():
            view[0] = self._layout(name, named[name].data)
        return self._params

    def _layout(self, name: str, array: np.ndarray) -> np.ndarray:
        """``array`` between module and pack layout (its own inverse)."""
        return array.T if self._table and name == _TABLE else array

    def _store(self, model: CAE) -> None:
        """Copy trained stage weights into the CAE's float64 parameters."""
        views = self._params.views
        for name, param in model.named_parameters():
            param.data[...] = self._layout(name, views[name][0])

    def _build_sites(self) -> None:
        """The layers' call sites, in forward order."""
        config, params = self.cae_config, self._params
        glu = _GLU if config.use_glu else None
        self._encoder = [
            (glu and glu(f"enc{i}.glu", params, f"encoder.layer{i}.glu.",
                         "same"),
             _Conv(f"enc{i}.conv", params, f"encoder.layer{i}.conv.", "same"))
            for i in range(config.n_layers)]
        self._decoder = [
            (glu and glu(f"dec{i}.glu", params, f"decoder{i}.glu.", "causal"),
             _Conv(f"dec{i}.conv", params, f"decoder{i}.conv.", "causal"),
             _Attention(f"att{i}", params, f"attention{i}.summary.")
             if config.use_attention else None)
            for i in range(config.n_layers)]
        self._head = (glu and glu("out.glu", params, "output_glu.", "causal"),
                      _Conv("out.conv", params, "reconstruction.", "valid"))

    def _buf(self, key: str, shape: Tuple[int, ...], dtype=None
             ) -> np.ndarray:
        """The workspace buffer ``key`` as a ``shape`` array.  Within a step
        every request for a key has one shape, so a cached view stays the
        buffer the step reads and writes."""
        view = self._views.get((key, shape))
        if view is None:
            view = self._views[(key, shape)] = self.workspace.get(
                key, shape, self.dtype if dtype is None else dtype)
        return view

    # ------------------------------------------------------------------
    # Convolution kernels
    # ------------------------------------------------------------------
    def _unfold(self, key: str, x: np.ndarray, kernel_size: int,
                left: int) -> np.ndarray:
        """Zero-padded im2col of ``(1, C, N, L)`` into merged ``(1, C·K,
        N·L)`` columns, row ``c·K + k``: kernel offset ``k`` reads ``x``
        shifted by ``k − left``, zero outside the window.

        Each offset is one shifted copy along the merged ``N·L`` axis,
        whose entries that crossed a window edge are then zeroed
        (``same`` and ``causal`` padding keep the window length).
        """
        m, c, n, length = x.shape
        size = n * length
        cols = self._buf(key, (m, c, kernel_size, n, length))
        flat_cols = cols.reshape(m, c, kernel_size, size)
        flat_x = x.reshape(m, c, size)
        for k in range(kernel_size):
            shift = k - left
            if shift > 0:
                flat_cols[:, :, k, :max(0, size - shift)] = \
                    flat_x[..., shift:]
                cols[:, :, k, :, max(0, length - shift):] = 0.0
            elif shift < 0:
                flat_cols[:, :, k, -shift:] = flat_x[..., :shift]
                cols[:, :, k, :, :-shift] = 0.0
            else:
                flat_cols[:, :, k] = flat_x
        return cols.reshape(m, c * kernel_size, size)

    def _fold(self, key: str, gcols: np.ndarray, kernel_size: int,
              shape: Tuple[int, ...], left: int) -> np.ndarray:
        """Inverse of :meth:`_unfold`: scatter-add ``(1, C·K, N·L)`` into
        ``shape`` ``(1, C, N, L)``.  Each element sums its kernel offsets
        from zero in ascending ``k``, a K-axis reduction's order.

        Each offset's rows are first copied, shifted into place, into a
        contiguous staging slab whose window-edge entries are zeroed;
        the slabs then add up as whole flat arrays.  A zeroed entry adds
        ``+0.0``, which leaves a sum started from ``+0.0`` unchanged.
        """
        m, c, n, length = shape
        size = n * length
        cols = gcols.reshape(m, c, kernel_size, size)
        gx = self._buf(key, shape)
        if kernel_size == 1:
            np.copyto(gx.reshape(m, c, size), cols[:, :, 0])
            return gx
        stage = self._buf("fold.stage", (kernel_size, m, c, size))
        windows = stage.reshape(kernel_size, m, c, n, length)
        for k in range(kernel_size):
            shift = left - k
            if shift > 0:
                stage[k, ..., :max(0, size - shift)] = cols[:, :, k, shift:]
                windows[k, ..., max(0, length - shift):] = 0.0
            elif shift < 0:
                stage[k, ..., -shift:] = cols[:, :, k, :shift]
                windows[k, ..., :-shift] = 0.0
            else:
                stage[k] = cols[:, :, k]
        flat = gx.reshape(-1)
        np.add(stage[0].reshape(-1), 0.0, out=flat)
        for k in range(1, kernel_size):
            flat += stage[k].reshape(-1)
        return gx

    def _conv_forward(self, site: _Conv, x: np.ndarray) -> np.ndarray:
        m, c_in, n, length = x.shape
        cols = self._unfold(site.key + ".cols", x, site.kernel_size,
                            site.left) if site.unfolds \
            else x.reshape(m, c_in, n * length)
        c_out = site.weight.shape[1]
        out = self._buf(site.key + ".out", (m, c_out, n, length))
        np.matmul(site.weight, cols, out=out.reshape(m, c_out, -1))
        out += site.bias
        site.saved = (cols, x.shape, out)
        return out

    def _conv_backward(self, site: _Conv, grad: np.ndarray) -> np.ndarray:
        """Write the conv's weight and bias gradients and return its input
        gradient; ``grad`` is the C-contiguous output gradient."""
        cols, x_shape, _ = site.saved
        grad_m = grad.reshape(site.grad_weight.shape[:2] + (-1,))
        np.matmul(grad_m, cols.swapaxes(-1, -2), out=site.grad_weight)
        np.sum(grad, axis=(2, 3), out=site.grad_bias)
        # Folded columns are scratch; the unfolded head's are its result.
        gcols = self._buf("gcols" if site.unfolds else site.key + ".gx",
                          cols.shape)
        np.matmul(site.weight.swapaxes(-1, -2), grad_m, out=gcols)
        if not site.unfolds:
            return gcols.reshape(x_shape)
        return self._fold(site.key + ".gx", gcols, site.kernel_size,
                          x_shape, site.left)

    def _glu_forward(self, site: _GLU, x: np.ndarray) -> np.ndarray:
        """Gated linear unit ``conv_v(x) ⊙ σ(conv_g(x))`` (Eqs. 4-5): one
        shared unfolding and one double-height GEMM for value and gate."""
        m, _, n, length = x.shape
        c_out = site.weight.shape[1] // 2
        cols = self._unfold(site.key + ".cols", x, site.kernel_size,
                            site.left)
        vg = self._buf(site.key + ".vg", (m, 2, c_out, n, length))
        np.matmul(site.weight, cols, out=vg.reshape(m, 2 * c_out, -1))
        vg += site.bias
        value = vg[:, 0]
        sig = _sigmoid(vg[:, 1])    # in the gate's slot: raw gate unused
        site.saved = (cols, vg, x.shape)
        return np.multiply(value, sig,
                           out=self._buf(site.key + ".out", value.shape))

    def _glu_backward(self, site: _GLU, grad: np.ndarray) -> np.ndarray:
        cols, vg, x_shape = site.saved
        value, sig = vg[:, 0], vg[:, 1]
        # d out / d value and d out / d gate, stacked like the forward's
        # value/gate rows so each direction is one double-height GEMM.
        dvg = self._buf("glu.dvg", vg.shape)
        dv = np.multiply(grad, sig, out=dvg[:, 0])
        # d out / d gate = grad·value·σ·(1−σ) = dv·value·(1−σ); σ's slot
        # is rewritten in place (the step reads it no more).
        np.subtract(1.0, sig, out=sig)
        dg = np.multiply(dv, value, out=dvg[:, 1])
        dg *= sig
        dvg_m = dvg.reshape(site.weight.shape[:2] + (-1,))
        np.matmul(dvg_m, cols.swapaxes(-1, -2), out=site.grad_weight)
        np.sum(dvg, axis=(3, 4), out=site.grad_bias)
        gcols = self._buf("gcols", cols.shape)
        np.matmul(site.weight.swapaxes(-1, -2), dvg_m, out=gcols)
        return self._fold(site.key + ".gx", gcols, site.kernel_size,
                          x_shape, site.left)

    def _relu_gate(self, site: _Conv, grad: np.ndarray) -> np.ndarray:
        """``grad`` where the block's ReLU input (the conv output, plus
        the mixing term in the decoder) was positive, else zero."""
        act = site.saved[2]
        mask = np.greater(act, 0, out=self._buf("relu.mask", act.shape,
                                                np.bool_))
        return np.multiply(grad, mask, out=self._buf("relu.gated",
                                                     act.shape))

    # ------------------------------------------------------------------
    # Attention (Eq. 7) and the embedding
    # ------------------------------------------------------------------
    def _attention_forward(self, site: _Attention, d: np.ndarray,
                           e: np.ndarray) -> np.ndarray:
        """Global dot attention over channel-major states: summaries
        ``z = W d + b``, row-softmax scores ``α = softmax(zᵀe)``,
        context ``c = e αᵀ`` and the residual update ``d + c``."""
        m, c, n, w = d.shape
        z = self._buf(site.key + ".z", (m, c, n * w))
        np.matmul(site.weight, d.reshape(m, c, -1), out=z)
        z += site.bias
        z = z.reshape(d.shape)
        # Per-window (w, C) @ (C, w) score matrices over strided views;
        # the max shift is the non-differentiated softmax stabiliser.
        e_nc = e.transpose(0, 2, 1, 3)                    # (M, N, C, w)
        alpha = self._buf(site.key + ".alpha", (m, n, w, w))
        np.matmul(z.transpose(0, 2, 3, 1), e_nc, out=alpha)
        alpha -= alpha.max(axis=-1, keepdims=True)
        np.exp(alpha, out=alpha)
        alpha /= alpha.sum(axis=-1, keepdims=True)
        context = self._buf(site.key + ".context", e_nc.shape)
        np.matmul(e_nc, alpha.swapaxes(-1, -2), out=context)
        site.saved = (d, e_nc, z, alpha)
        return np.add(d, context.transpose(0, 2, 1, 3),
                      out=self._buf(site.key + ".out", d.shape))

    def _attention_backward(self, site: _Attention, grad: np.ndarray,
                            grad_e: np.ndarray) -> np.ndarray:
        """Write the summary gradients and the encoder state's gradient
        (into ``grad_e``, its first contribution); return the decoder
        state's gradient."""
        d, e_nc, z, alpha = site.saved
        m, c, n, w = d.shape
        grad_nc = grad.transpose(0, 2, 1, 3)                  # (M, N, C, w)
        g_e = np.matmul(grad_nc, alpha,                       # via context
                        out=self._buf("att.g_e", e_nc.shape))
        g_scores = np.matmul(grad_nc.swapaxes(-1, -2), e_nc,
                             out=self._buf("att.g_scores", alpha.shape))
        product = np.multiply(g_scores, alpha,
                              out=self._buf("att.product", alpha.shape))
        g_scores -= product.sum(axis=-1, keepdims=True)
        g_scores *= alpha
        g_z = np.matmul(e_nc, g_scores.swapaxes(-1, -2),
                        out=self._buf("att.g_z", e_nc.shape))
        g_e += np.matmul(z.transpose(0, 2, 1, 3), g_scores,   # via scores
                         out=self._buf("att.g_e_scores", e_nc.shape))
        g_z_m = self._buf("att.g_z_m", (m, c, n * w))
        np.copyto(g_z_m.reshape(d.shape), g_z.transpose(0, 2, 1, 3))
        np.matmul(g_z_m, d.reshape(m, c, -1).swapaxes(-1, -2),
                  out=site.grad_weight)
        np.sum(g_z_m, axis=2, out=site.grad_bias)
        g_d = np.matmul(site.weight.swapaxes(-1, -2), g_z_m,
                        out=self._buf("att.g_d", g_z_m.shape))
        np.copyto(grad_e, g_e.transpose(0, 2, 1, 3))
        return np.add(grad, g_d.reshape(d.shape),
                      out=self._buf(site.key + ".grad", d.shape))

    def _positions(self) -> np.ndarray:
        """``(D', 1, w)`` position embeddings, broadcast over the window
        axis of the channel-major activations."""
        views = self._params.views
        c, w = self.cae_config.embed_dim, self.cae_config.window
        if self._table:
            return views[_TABLE].reshape(c, 1, w)
        z = self._position_base @ views[_TABLE].reshape(c, 1) \
            .transpose(1, 0)
        z = z + views["embedding.position.bias"].reshape(c)
        self._position_tanh = np.tanh(z)                      # (w, D')
        return self._position_tanh.transpose(1, 0).reshape(c, 1, w)

    def _positions_backward(self, grad_embedded: np.ndarray) -> None:
        """Position gradients from the embedded input's, in the reduction
        layouts of the reshape/transpose chain that builds them."""
        grads = self._params.grads
        c, w = self.cae_config.embed_dim, self.cae_config.window
        grad = _unbroadcast(grad_embedded, (c, 1, w)).reshape(c, w)
        if self._table:
            np.copyto(grads[_TABLE], grad.reshape(1, c, w))
            return
        # The (w, D') gradient arrives column-major, as a transposed copy.
        grad_z = np.array(grad.transpose(1, 0)) * \
            (1.0 - self._position_tanh ** 2)
        np.copyto(grads["embedding.position.bias"],
                  grad_z.sum(axis=0).reshape(1, c))
        np.copyto(grads[_TABLE],
                  (self._position_base.T @ grad_z).reshape(1, c, 1))

    # ------------------------------------------------------------------
    # The step
    # ------------------------------------------------------------------
    def _forward(self, batch: np.ndarray) -> np.ndarray:
        """The CAE forward pass over a ``(1, D, B, w)`` batch.

        Mirrors :meth:`repro.core.cae.CAE.forward` layer for layer in the
        stacked channel-major layout and returns the ``(1, out, B, w)``
        reconstruction.  Every activation the backward reads stays in the
        workspace, referenced from the call sites and ``self._states``.
        """
        views = self._params.views
        m, d_in, n, w = batch.shape
        c = self.cae_config.embed_dim
        shape = (m, c, n, w)
        values = self._buf("embed.values", shape)
        np.matmul(views["embedding.observation.weight"],
                  batch.reshape(m, d_in, -1), out=values.reshape(m, c, -1))
        values += views["embedding.observation.bias"].reshape(m, c, 1, 1)
        np.tanh(values, out=values)
        embedded = np.add(values, self._positions(),
                          out=self._buf("embedded", shape))

        encoder_states = [embedded]
        state = embedded
        for glu, conv in self._encoder:
            gated = self._glu_forward(glu, state) if glu else state
            pre = self._conv_forward(conv, gated)
            out = np.maximum(pre, 0.0,
                             out=self._buf(conv.key + ".state", shape))
            out += state                                # Eq. 3
            state = out
            encoder_states.append(state)

        state = self._buf("dec.shift", shape)
        state[..., 0] = 0.0
        state[..., 1:] = embedded[..., :-1]
        for (glu, conv, attention), encoded in zip(self._decoder,
                                                   encoder_states[1:]):
            gated = self._glu_forward(glu, state) if glu else state
            act = self._conv_forward(conv, gated)
            act += encoded                              # Eq. 6 mixing term
            out = np.maximum(act, 0.0,
                             out=self._buf(conv.key + ".state", shape))
            out += state
            state = self._attention_forward(attention, out, encoded) \
                if attention else out

        glu, conv = self._head
        if glu:
            state = self._glu_forward(glu, state)
        self._states = (batch, values, embedded)
        return self._conv_forward(conv, state)

    def _backward(self, grad_prediction: np.ndarray) -> None:
        """Every parameter gradient of the last forward, written into the
        flat gradient array.

        A state read by several consumers sums their contributions in the
        order the autograd tape did (its reverse topological order): an
        encoder state takes the attention's, then the decoder mix's, then
        the next encoder layer's skip and GLU/conv contributions; the
        embedded input takes the decoder shift's, then the first encoder
        layer's skip and GLU/conv contributions.
        """
        batch, values, embedded = self._states
        shape = values.shape
        glu, conv = self._head
        grad = self._conv_backward(conv, grad_prediction)
        if glu:
            grad = self._glu_backward(glu, grad)

        grad_states = [self._buf(f"enc{i}.grad", shape)
                       for i in range(len(self._encoder))]
        for (glu, conv, attention), grad_state in zip(
                reversed(self._decoder), reversed(grad_states)):
            if attention:
                grad = self._attention_backward(attention, grad, grad_state)
            gated = self._relu_gate(conv, grad)
            if attention:
                grad_state += gated
            else:
                np.copyto(grad_state, gated)
            # ``grad`` (the residual skip) accumulates this layer's input
            # gradient.
            grad_input = self._conv_backward(conv, gated)
            if glu:
                grad_input = self._glu_backward(glu, grad_input)
            grad += grad_input

        grad_embedded = self._buf("embedded.grad", shape)
        grad_embedded[..., -1] = 0.0
        grad_embedded[..., :-1] = grad[..., 1:]
        grad_states.insert(0, grad_embedded)
        for i in reversed(range(len(self._encoder))):
            glu, conv = self._encoder[i]
            grad = grad_states[i + 1]
            gated = self._relu_gate(conv, grad)
            grad_states[i] += grad
            grad_input = self._conv_backward(conv, gated)
            if glu:
                grad_input = self._glu_backward(glu, grad_input)
            grad_states[i] += grad_input

        self._positions_backward(grad_embedded)
        # tanh backward, then the observation embedding's GEMMs.
        grad_values = np.square(values, out=self._buf("embed.grad", shape))
        np.subtract(1.0, grad_values, out=grad_values)
        np.multiply(grad_embedded, grad_values, out=grad_values)
        grads = self._params.grads
        m, c, n, w = shape
        np.matmul(grad_values.reshape(m, c, -1),
                  batch.reshape(m, batch.shape[1], -1).swapaxes(-1, -2),
                  out=grads["embedding.observation.weight"])
        np.sum(grad_values, axis=(2, 3),
               out=grads["embedding.observation.bias"])

    def _loss(self, prediction: np.ndarray, target: np.ndarray,
              frozen: Optional[np.ndarray]
              ) -> Tuple[np.ndarray, float, float, float]:
        """The diversity-driven objective (Eqs. 11-13) and its gradient.

        ``L = J − λ·sat(K)`` with ``J = mean((pred − target)²)``,
        ``K = mean((pred − F)²)`` and ``sat(K) = s·K/(K+s)``, exactly as
        :func:`repro.core.diversity.diversity_driven_loss`; ``∂L/∂pred =
        (2/size)·(diff_J − λ·(s/(K+s))²·diff_K)``.  Returns the gradient
        (in a workspace buffer), the loss in the compute dtype and the
        float J and K values for the epoch records.
        """
        config = self.config
        diff_j = np.subtract(prediction, target,
                             out=self._buf("loss.diff_j", prediction.shape))
        square = np.multiply(diff_j, diff_j,
                             out=self._buf("loss.square", prediction.shape))
        j_value = float(np.mean(square))
        diff_k = None
        k_value = k_coeff = 0.0
        loss_value = j_value
        if frozen is not None:
            weight, saturation = (config.diversity_weight,
                                  config.diversity_saturation)
            diff_k = np.subtract(prediction, frozen,
                                 out=self._buf("loss.diff_k",
                                               prediction.shape))
            np.multiply(diff_k, diff_k, out=square)
            k_value = float(np.mean(square))
            loss_value = j_value - weight * \
                (k_value * saturation) / (k_value + saturation)
            # d sat/dK of s·K/(K+s) is (s/(K+s))².
            k_coeff = -weight * (saturation / (k_value + saturation)) ** 2
        scale = 2.0 / diff_j.size
        grad = np.multiply(diff_j, np.asarray(scale, dtype=self.dtype),
                           out=diff_j)
        if diff_k is not None:
            diff_k *= np.asarray(k_coeff * scale, dtype=self.dtype)
            grad += diff_k
        return grad, float(np.asarray(loss_value, dtype=self.dtype)), \
            j_value, k_value

    def _gather(self, key: str, source: np.ndarray,
                index: np.ndarray) -> np.ndarray:
        """``source[:, index]`` of a channel-first ``(C, N, w)`` array as a
        ``(1, C, B, w)`` workspace batch."""
        out = self._buf(key, (1, source.shape[0], len(index),
                              source.shape[2]))
        np.take(source, index, axis=1, out=out[0], mode="clip")
        return out

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_model(self, model: CAE, model_index: int,
                    rng: np.random.Generator, verbose: bool = False
                    ) -> List[StageRecord]:
        """Train one basic model and return its epoch records.

        Model ``model_index`` trains against the mean of the running sum
        (Eq. 8) when the fit has a diversity weight.  Afterwards its
        frozen output over all training windows joins the sum, unless no
        later model reads it: for the last basic model
        (``model_index + 1 == config.n_models``) and for every model of a
        ``diversity_weight == 0`` fit that frozen pass is skipped.

        ``rng`` is the ensemble's generator; exactly one
        ``permutation(n)`` is drawn per epoch — the same consumption as
        the per-module test oracle, keeping both paths' downstream draws
        aligned.
        """
        config = self.config
        params = self._load(model)
        optimizer = Adam(params, lr=config.learning_rate,
                         grad_clip=config.grad_clip)
        windows_cf = self._windows_cf
        n = windows_cf.shape[1]
        frozen_mean = None
        if self.summed and config.diversity_weight > 0.0:
            frozen_mean = self.workspace.get(
                "frozen_mean", self.ensemble_sum.shape, self.dtype)
            np.divide(self.ensemble_sum, self.summed, out=frozen_mean)
        observations = self.cae_config.reconstruct == "observations"
        records: List[StageRecord] = []
        previous_loss: Optional[float] = None
        stall_count = 0
        for epoch in range(config.epochs_per_model):
            order = rng.permutation(n)
            epoch_loss = epoch_j = epoch_k = 0.0
            n_batches = 0
            for start in range(0, n, config.batch_size):
                index = order[start:start + config.batch_size]
                batch = self._gather("batch", windows_cf, index)
                prediction = self._forward(batch)
                grad, loss, j_value, k_value = self._loss(
                    prediction,
                    batch if observations else self._states[2],
                    None if frozen_mean is None
                    else self._gather("frozen", frozen_mean, index))
                self._backward(grad)
                optimizer.step()
                epoch_loss += loss
                epoch_j += j_value
                epoch_k += k_value
                n_batches += 1
            record = (epoch, epoch_loss / n_batches, epoch_j / n_batches,
                      epoch_k / n_batches)
            records.append(record)
            if verbose:
                print(f"model {model_index} epoch {epoch}: "
                      f"loss={record[1]:.5f} J={record[2]:.5f} "
                      f"K={record[3]:.5f}")
            tolerance = config.early_stop_tolerance
            if tolerance is not None and previous_loss is not None:
                improvement = (previous_loss - record[2]) / \
                    max(abs(previous_loss), 1e-12)
                stall_count = stall_count + 1 if improvement < tolerance \
                    else 0
                if stall_count >= config.early_stop_patience:
                    break
            previous_loss = record[2]
        self._store(model)
        if model_index + 1 < config.n_models and \
                config.diversity_weight > 0.0:
            self._add_stage_output()
        return records

    def _add_stage_output(self) -> None:
        """Add the stage's frozen output over all windows to the Eq. 8
        sum — the fused analogue of :meth:`CAEEnsemble._model_output`.
        It runs in training-batch chunks, so its activations are no
        larger than a training step's."""
        windows_cf = self._windows_cf
        n = windows_cf.shape[1]
        first = self.ensemble_sum is None
        if first:
            self.ensemble_sum = np.empty(
                (self.cae_config.output_dim, n, self.cae_config.window),
                dtype=np.float64)
        batch_size = self.config.batch_size
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            part = self._buf("batch", (1, windows_cf.shape[0], stop - start,
                                       windows_cf.shape[2]))
            np.copyto(part[0], windows_cf[:, start:stop])
            reconstruction = self._forward(part)[0]
            if first:
                self.ensemble_sum[:, start:stop] = reconstruction
            else:
                self.ensemble_sum[:, start:stop] += reconstruction
        self.summed += 1

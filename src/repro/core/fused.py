"""Fused ensemble inference: all M basic models in one batched pass.

The paper's speed argument (Section 3.1, Tables 7-8) is that replacing
RNN recursion with 1-D convolutions turns scoring into batched matrix
multiplication.  The per-model scoring loop in
:class:`~repro.core.ensemble.CAEEnsemble` leaves most of that on the
table: M Python-level forward passes per call, each dragging autograd
``Tensor`` wrappers, per-layer dispatch and dozens of small-matrix BLAS
calls through the interpreter.  Every basic model sees the *same* input
windows, and all M models share one architecture — exactly the shape
batched BLAS loves.

:class:`FusedEnsembleScorer` therefore packs the ensemble's weights into
stacked tensors with a leading model axis ``(M, ...)`` and re-implements
the CAE forward pass as plain NumPy over ``(M, N, ...)`` activations:

* one im2col unfolding per conv layer covers the whole ensemble-batch
  (the ``(M, N)`` leading axes are fused into the GEMM batch), so each
  layer is a **single** batched matrix multiplication instead of M — and
  each GLU's value/gate convolutions share one unfolding and run one
  GEMM each;
* activations are kept channel-first and **contiguous** end to end
  (the embedding and attention GEMMs are evaluated in transposed
  orientation), so the im2col copies and elementwise ops never walk
  strided views;
* no autograd graph, no ``Tensor`` boxing — the scorer is inference-only
  and mirrors the gradcheck-verified training forward op for op;
* activations can run in float32 (the thread's
  :func:`repro.nn.inference_dtype` policy) for half the memory traffic;
* a thread-local workspace recycles every large intermediate buffer at
  its largest size so far, so scoring performs no large allocations once
  it has seen its largest batch, whatever sizes follow;
* the forward of a chunk shape is recorded once, per workspace, as a
  flat list of NumPy calls over fixed buffer views and weight slices
  (:class:`_Recorder`), and every call replays it: one C call per op,
  with no Python layer code, slicing or view construction in between;
* a batch is scored in chunks of a fixed ``CHUNK_TARGET_ROWS`` (128)
  model-window rows, so the working set stays cache-resident whatever
  N is, and each chunk casts its own rows to the compute dtype, so a
  strided ``sliding_windows`` view is never copied out whole.  Batches
  of at least four chunks spread them over the usable cores in
  contiguous spans, one thread each for the call; windows are
  independent and every chunk runs the same GEMMs on any thread, so
  neither chunking nor the thread count ever changes a score;
* the decoder is causal, so scoring only each window's last timestamp
  (:meth:`FusedEnsembleScorer.score_windows_last`) decodes on the float32
  fast path just the suffix that column depends on — K-1 columns per
  causal conv, 11 of 64 columns at K=3 with two GLU decoder layers —
  while the embedding and encoder (the attention keys) stay full width.
  Streaming uses it, and so does batch ``CAEEnsemble.score`` for every
  window after the first (Figure 10 keeps only their last column).

Equivalence contract (enforced by ``tests/test_core_fused.py``): with
``dtype=float64`` the fused scores are **bit-identical** to the
per-model loop — every elementwise op appears in the same order, and
every batched/merged/transposed ``np.matmul`` computes the same dot
products over the same reduction order as the per-model GEMMs — and
with ``dtype=float32`` they agree within ``1e-5`` relative tolerance
(the float32 fast path additionally evaluates the GLU sigmoid as
``1 / (1 + exp(-x))`` instead of the slower ``scipy`` ``expit`` kernel,
identical in exact arithmetic, and decodes the causal suffix above: BLAS
may round a column differently in a narrower GEMM, so the float64 path
keeps full width).  Paper-table reproductions are therefore unaffected.

Weights are copied out of the models when the scorer is built; mutating
a model's parameters in place afterwards requires rebuilding the scorer
(:meth:`CAEEnsemble.invalidate_fused` — swapping the ``models`` list or
refreshing, which builds new instances, is detected automatically).
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.conv import resolve_padding
from ..nn.tensor import inference_dtype, no_grad
from ..obs import default_registry
from .config import CAEConfig


# Recorded plans one workspace keeps (:class:`_Workspace`).  A serving
# path replays a handful of batch shapes; batch scoring adds at most one
# partial-chunk shape per call.
MAX_PLANS = 32


class _Workspace:
    """Scratch buffers keyed by call site, kept at their largest size.

    Each call site in the fused forward owns a distinct key, so a buffer
    is never aliased by two live intermediates within one pass.  The one
    exception is the im2col unfolding: every unfolding is consumed by its
    GEMM(s) before the next one starts, so all call sites share the
    ``"cols"`` buffer.  A key keeps one flat buffer, the largest it has
    been asked for, and :meth:`get` returns a contiguous prefix of it
    reshaped to the requested shape, so a partial last chunk or a batch
    of another size reuses it instead of reallocating.  Workspaces live
    in a ``threading.local`` slot of the scorer, so concurrent callers
    (fleet serving, background refreshes) never share scratch memory;
    the fused trainer keeps one per fit.

    ``plans`` holds the scorer's recorded forwards (:class:`_Recorder`)
    by chunk shape, at most ``MAX_PLANS`` of them: a new shape beyond
    that drops the oldest (each plan is ~30 kB of views and op tuples,
    and batch lengths that vary freely would otherwise record one per
    partial-chunk size).  They are views into these buffers, so every
    (re)allocation drops them all: no plan keeps a superseded buffer
    alive.

    ``allocs``/``reuses`` count buffer outcomes (two plain int adds per
    ``get`` or plan replay — always on); the scorer flushes their deltas
    into registry counters after each scored batch, so a steady-state
    serve path shows reuses climbing while allocs stay flat.
    """

    __slots__ = ("_buffers", "allocs", "reuses", "plans")

    def __init__(self):
        self._buffers: Dict[str, np.ndarray] = {}
        self.allocs = 0
        self.reuses = 0
        self.plans: Dict[tuple, tuple] = {}

    def get(self, key: str, shape: Tuple[int, ...],
            dtype: np.dtype) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(size, dtype=dtype)
            self._buffers[key] = buffer
            self.allocs += 1
            self.plans.clear()
        else:
            self.reuses += 1
        return buffer[:size].reshape(shape)


class _FusedTelemetry:
    """The scorer's cached instruments (see ``docs/observability.md``).

    Bound once at scorer construction; with a
    :class:`~repro.obs.NullRegistry` the ``enabled`` flag short-circuits
    every timing call on the chunk loop.
    """

    __slots__ = ("enabled", "chunk_seconds", "windows", "workspace_allocs",
                 "workspace_reuses")

    def __init__(self, registry):
        self.enabled = registry.enabled
        self.chunk_seconds = registry.histogram("repro_fused_chunk_seconds")
        self.windows = registry.counter("repro_fused_windows_total")
        self.workspace_allocs = registry.counter(
            "repro_fused_workspace_allocs_total")
        self.workspace_reuses = registry.counter(
            "repro_fused_workspace_reuses_total")

    def flush_workspace(self, workspace: _Workspace) -> None:
        """Move the workspace's int deltas into the shared counters."""
        if workspace.allocs:
            self.workspace_allocs.inc(workspace.allocs)
            workspace.allocs = 0
        if workspace.reuses:
            self.workspace_reuses.inc(workspace.reuses)
            workspace.reuses = 0


class _ConvPack:
    """One conv call site's weights for all models: ``(M, C_out, C_in*K)``.

    With ``fold_bias`` (the float32 fast path) the bias is appended as an
    extra kernel column multiplied against a constant-one im2col row, so
    the GEMM emits the biased output directly; the exact path keeps the
    separate broadcast add (bit-identical to the per-model loop).
    """

    __slots__ = ("weight", "bias", "left", "right", "kernel_size",
                 "folded")

    def __init__(self, convs: Sequence, padding, dtype: np.dtype,
                 fold_bias: bool = False):
        first = convs[0]
        kernel_size = first.kernel_size
        self.kernel_size = kernel_size
        self.left, self.right = resolve_padding(kernel_size, padding)
        c_in = first.in_channels
        m = len(convs)
        weight = np.stack([
            conv.weight.data.reshape(conv.out_channels, c_in * kernel_size)
            for conv in convs]).astype(dtype)
        if first.bias is not None:
            # Shaped for direct broadcast onto (M, N, C_out, L_out).
            self.bias = np.stack([conv.bias.data for conv in convs]) \
                .astype(dtype).reshape(m, 1, first.out_channels, 1)
        else:
            self.bias = None
        self.folded = bool(fold_bias and self.bias is not None)
        if self.folded:
            weight = np.concatenate(
                [weight, self.bias.reshape(m, first.out_channels, 1)],
                axis=2)
        self.weight = weight


class _LinearPack:
    """One linear layer's weights for all models, applied channel-first:
    ``y = weight @ x + bias`` over ``(M, N, C, w)`` states — the
    transposed orientation of ``nn.functional.linear`` (same dot
    products, contiguous output)."""

    __slots__ = ("weight", "bias")

    def __init__(self, linears: Sequence, dtype: np.dtype):
        m = len(linears)
        out_f, in_f = linears[0].weight.data.shape
        self.weight = np.stack([lin.weight.data for lin in linears]) \
            .astype(dtype).reshape(m, 1, out_f, in_f)
        if linears[0].bias is not None:
            self.bias = np.stack([lin.bias.data for lin in linears]) \
                .astype(dtype).reshape(m, 1, out_f, 1)
        else:
            self.bias = None


class _Recorder:
    """Writes one chunk's fused forward as a flat list of NumPy calls.

    Each layer method appends the calls the forward makes — the same
    operands, layouts and order, every in-place operator as the same
    ufunc with ``out=`` — over fixed views into a :class:`_Workspace`
    and the packed weights, and returns the view its last call writes.
    Replaying ``ops`` (``fn(*args, **kwargs)`` each) after new rows are
    copied into the input buffer therefore computes the forward bit for
    bit, one C call per op and no Python in between.
    """

    __slots__ = ("ops", "workspace", "dtype", "m", "expit")

    def __init__(self, workspace: _Workspace, dtype: np.dtype, m: int,
                 expit=None):
        self.ops: List[tuple] = []
        self.workspace = workspace
        self.dtype = dtype
        self.m = m
        self.expit = expit

    def op(self, fn, *args, **kwargs) -> None:
        self.ops.append((fn, args, kwargs))

    def buffer(self, key: str, shape: Tuple[int, ...]) -> np.ndarray:
        return self.workspace.get(key, shape, self.dtype)

    def add_bias(self, out: np.ndarray, bias: Optional[np.ndarray]) -> None:
        if bias is not None:
            self.op(np.add, out, bias[:self.m], out)

    def im2col(self, x: np.ndarray, pack: _ConvPack,
               width: Optional[int] = None) -> np.ndarray:
        """Unfold ``(M, N, C, L)`` receptive fields into GEMM columns.

        The im2col matrix is built straight from the input: kernel offset
        ``t`` reads ``x`` at ``l = t + j - left`` for output column
        ``j``, out-of-range positions are the zero padding (values
        bit-identical to pad-then-unfold, without materialising a padded
        buffer); a pad wider than the input zeroes the offset's whole
        row.  With ``pack.folded`` a trailing constant-one row multiplies
        the bias column of the augmented kernels.

        ``width`` keeps only the last ``width`` output columns (default:
        all of them) by shrinking the left pad.  A causal conv fed a
        suffix of its input so computes its true outputs, as long as
        every kept column's receptive field lies inside the suffix
        (:meth:`FusedEnsembleScorer._decoder_widths` sizes the suffixes
        so that it does).
        """
        m, n, c, length = x.shape
        k = pack.kernel_size
        left = pack.left
        l_out = length + left + pack.right - k + 1
        if width is not None:
            left -= l_out - width
            l_out = width
        cols = self.buffer("cols", (m, n, c * k + pack.folded, l_out))
        cols5 = cols[:, :, :c * k, :].reshape(m, n, c, k, l_out)
        for t in range(k):
            lo = min(l_out, max(0, left - t))
            hi = max(lo, min(l_out, left + length - t))
            if lo > 0:
                self.op(np.ndarray.fill, cols5[:, :, :, t, :lo], 0.0)
            if hi < l_out:
                self.op(np.ndarray.fill, cols5[:, :, :, t, hi:], 0.0)
            if hi > lo:
                self.op(np.copyto, cols5[:, :, :, t, lo:hi],
                        x[:, :, :, lo + t - left:hi + t - left])
        if pack.folded:
            self.op(np.ndarray.fill, cols[:, :, -1, :], 1.0)
        return cols

    def gemm(self, cols: np.ndarray, pack: _ConvPack,
             key: str) -> np.ndarray:
        """One batched GEMM for the whole ensemble: the ``(M, N)`` axes
        are the gufunc batch, every slice runs the identical 2-D GEMM the
        per-model loop would."""
        m, n, _, l_out = cols.shape
        out = self.buffer(key + ".out", (m, n, pack.weight.shape[1], l_out))
        self.op(np.matmul, pack.weight[:m, None], cols, out)
        if not pack.folded:
            self.add_bias(out, pack.bias)
        return out

    def conv(self, x: np.ndarray, pack: _ConvPack, key: str,
             width: Optional[int] = None) -> np.ndarray:
        """Batched conv: im2col (``width`` its output suffix) + one GEMM,
        cf. :func:`repro.nn.conv.conv1d`.  A kernel-1 unpadded conv (the
        reconstruction head) skips the unfolding: its columns are the
        input itself."""
        if pack.kernel_size == 1 and pack.left == pack.right == 0 \
                and not pack.folded:
            return self.gemm(x, pack, key)
        return self.gemm(self.im2col(x, pack, width), pack, key)

    def sigmoid(self, x: np.ndarray) -> None:
        """In-place logistic.  The exact path uses scipy's ``expit``
        (bit-identical to training); the fast path computes
        ``1 / (1 + exp(-x))`` with vectorised ufuncs — the same function,
        evaluated ~3x faster on float32."""
        if self.expit is not None:
            self.op(self.expit, x, x)
        else:
            self.op(np.negative, x, x)
            self.op(np.exp, x, x)
            self.op(np.add, x, 1.0, x)
            self.op(np.reciprocal, x, x)

    def glu(self, x: np.ndarray, block: dict, key: str,
            width: Optional[int] = None) -> np.ndarray:
        """Gated linear unit (Eqs. 4-5): ``conv_v(x) * sigmoid(conv_g(x))``.

        The value and gate convolutions share one im2col unfolding; their
        two GEMMs write contiguous buffers so the sigmoid and product run
        at full elementwise speed.
        """
        cols = self.im2col(x, block["glu_v"], width)
        value = self.gemm(cols, block["glu_v"], key + ".v")
        gate = self.gemm(cols, block["glu_g"], key + ".g")
        self.sigmoid(gate)
        self.op(np.multiply, value, gate, value)
        return value

    def attend(self, decoder_state: np.ndarray, encoder_state: np.ndarray,
               pack: _LinearPack, key: str) -> np.ndarray:
        """Global dot attention (Eq. 7) over channel-first states.

        ``encoder_state`` is ``(M, N, C, w)``; ``decoder_state`` holds the
        queries of its last ``q`` columns, ``(M, N, C, q)``.  Returns the
        updated decoder state in the same (contiguous) layout.  The row
        max and sum are the ``ndarray.max``/``sum`` reductions, written
        into one ``(M, N, q, 1)`` buffer.
        """
        m, n, c, q = decoder_state.shape
        w = encoder_state.shape[-1]
        summaries = self.buffer(key + ".z", (m, n, c, q))
        self.op(np.matmul, pack.weight[:m], decoder_state, summaries)
        self.add_bias(summaries, pack.bias)
        # scores[t, t'] = z_t . e_t' — rows are decoder timestamps.
        scores = self.buffer(key + ".scores", (m, n, q, w))
        self.op(np.matmul, summaries.transpose(0, 1, 3, 2), encoder_state,
                scores)
        rows = self.buffer(key + ".rows", (m, n, q, 1))
        self.op(np.maximum.reduce, scores, -1, None, rows, True)
        self.op(np.subtract, scores, rows, scores)
        self.op(np.exp, scores, scores)
        self.op(np.add.reduce, scores, -1, None, rows, True)
        self.op(np.divide, scores, rows, scores)
        # c_t = sum_t' alpha_tt' e_t'  ==  E @ alpha^T, channel-first.
        context = self.buffer(key + ".context", (m, n, c, q))
        self.op(np.matmul, encoder_state, scores.transpose(0, 1, 3, 2),
                context)
        self.op(np.add, context, decoder_state, context)
        return context

    def aggregate(self, errors: np.ndarray, aggregation: str) -> np.ndarray:
        """Reduce ``(M, ...)`` errors over the model axis, as
        ``ndarray.mean(axis=0)`` or ``np.median(axis=0)`` compute it.

        The median sorts the model axis in place and takes the middle
        row, or the middle two through ``np.mean``'s sum-then-divide by
        an ``intp`` count; like ``np.median`` it is NaN wherever the
        sorted axis ends in NaN.
        """
        m = errors.shape[0]
        if aggregation == "mean":
            result = self.buffer("aggregate", errors.shape[1:])
            self.op(np.add.reduce, errors, 0, None, result)
            self.op(np.true_divide, result, np.intp(m), result,
                    casting="unsafe")
            return result
        self.op(np.ndarray.sort, errors, axis=0)
        half = m // 2
        result = errors[half]           # odd M: np.mean divides it by 1
        if m % 2 == 0:
            result = self.buffer("aggregate", errors.shape[1:])
            self.op(np.add, errors[half - 1], errors[half], result)
            self.op(np.true_divide, result, np.intp(2), result,
                    casting="unsafe")
        nan = self.workspace.get("nan", result.shape, np.bool_)
        self.op(np.isnan, errors[-1], nan)
        self.op(np.copyto, result, errors[-1], where=nan)
        return result


class FusedEnsembleScorer:
    """Inference engine scoring all basic models in one batched pass.

    Parameters
    ----------
    models:     the ensemble's fitted basic models (same architecture).
    cae_config: their shared :class:`~repro.core.config.CAEConfig`.
    aggregation: ``'median'`` (Eq. 15) or ``'mean'``, applied across the
                model axis exactly like the per-model loop.
    dtype:      compute dtype; None resolves the building thread's
                :func:`repro.nn.inference_dtype` policy (float32 unless
                overridden).  float64 reproduces the per-model loop
                bit-for-bit.
    registry:   metrics registry for chunk timings and workspace
                counters; None binds the process default
                (:func:`repro.obs.default_registry`).  Pass a
                :class:`~repro.obs.NullRegistry` to switch the scorer's
                telemetry off entirely.
    """

    def __init__(self, models: Sequence, cae_config: CAEConfig,
                 aggregation: str = "median",
                 dtype: Optional[np.dtype] = None,
                 registry=None):
        if not models:
            raise ValueError("FusedEnsembleScorer needs at least one model")
        if aggregation not in ("median", "mean"):
            raise ValueError(f"aggregation must be 'median' or 'mean', "
                             f"got {aggregation!r}")
        self.config = cae_config
        self.aggregation = aggregation
        self._set_dtype(inference_dtype() if dtype is None else dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"compute dtype must be floating, "
                             f"got {self.dtype}")
        self.n_models = len(models)
        # Strong references to the packed models: the owning ensemble
        # compares them (by identity) against its current ``models`` list
        # to detect swaps — refresh replacements, reloads — and rebuild
        # automatically.  Holding the references (not bare ids) keeps the
        # identity check sound even after the originals are dropped and
        # their addresses reused.
        self.packed_models: Tuple = tuple(models)
        self._local = threading.local()
        self._obs = _FusedTelemetry(registry if registry is not None
                                    else default_registry())
        self._pack(models)

    def _set_dtype(self, dtype) -> None:
        """Fix the compute dtype and, with it, the sigmoid path.

        float64 is the bit-exact reference path (scipy's expit sigmoid,
        exactly as training uses); narrower dtypes take the fast sigmoid,
        identical in exact arithmetic.  ``expit`` is resolved here, once
        per exact scorer, so float32 processes never import scipy.
        """
        self.dtype = np.dtype(dtype)
        self._exact = self.dtype == np.float64
        if self._exact:
            from scipy.special import expit
            self._expit = expit

    # ------------------------------------------------------------------
    # Weight packing
    # ------------------------------------------------------------------
    def _pack(self, models: Sequence) -> None:
        config, dtype = self.config, self.dtype
        m = len(models)
        fold = not self._exact
        self._embedding = _LinearPack(
            [model.embedding.observation for model in models], dtype)
        # Positions are input-independent: evaluate each model's
        # position_vectors() once (float64, identical to the per-model
        # path) and bake the channel-first (D', w) matrices in.
        with no_grad():
            self._positions = np.stack(
                [model.embedding.position_vectors().data.T
                 for model in models]).astype(dtype) \
                .reshape(m, 1, config.embed_dim, config.window)
        self._encoder: List[dict] = []
        self._decoder: List[dict] = []
        self._attention: List[_LinearPack] = []
        for layer in range(config.n_layers):
            enc = [getattr(model.encoder, f"layer{layer}")
                   for model in models]
            self._encoder.append(self._pack_block(enc, "same", dtype, fold))
            dec = [getattr(model, f"decoder{layer}") for model in models]
            self._decoder.append(self._pack_block(dec, "causal", dtype,
                                                  fold))
            if config.use_attention:
                self._attention.append(_LinearPack(
                    [getattr(model, f"attention{layer}").summary
                     for model in models], dtype))
        if config.use_glu:
            self._output_glu = {
                "glu_v": _ConvPack([model.output_glu.conv_value
                                    for model in models],
                                   padding="causal", dtype=dtype,
                                   fold_bias=fold),
                "glu_g": _ConvPack([model.output_glu.conv_gate
                                    for model in models],
                                   padding="causal", dtype=dtype,
                                   fold_bias=fold),
            }
        else:
            self._output_glu = None
        # The kernel-1 reconstruction conv consumes its input unfolded
        # (no im2col), so its bias stays a separate add on both paths.
        self._reconstruction = _ConvPack(
            [model.reconstruction for model in models],
            padding="valid", dtype=dtype)

    @staticmethod
    def _pack_block(blocks: Sequence, padding: str, dtype,
                    fold: bool) -> dict:
        """An encoder/decoder block: optional GLU pair plus main conv.

        The GLU's value and gate convolutions are packed separately but
        share one im2col unfolding at run time.
        """
        packed = {"conv": _ConvPack([b.conv for b in blocks],
                                    padding=padding, dtype=dtype,
                                    fold_bias=fold)}
        if blocks[0].use_glu:
            packed["glu_v"] = _ConvPack([b.glu.conv_value for b in blocks],
                                        padding=padding, dtype=dtype,
                                        fold_bias=fold)
            packed["glu_g"] = _ConvPack([b.glu.conv_gate for b in blocks],
                                        padding=padding, dtype=dtype,
                                        fold_bias=fold)
        return packed

    # ------------------------------------------------------------------
    # Pack export / attach (shared-memory serving)
    # ------------------------------------------------------------------
    # The packed tensors are flat, contiguous and read-only at serve
    # time, so a scorer can be serialised as a list of arrays plus a
    # small structural manifest and re-materialised in another process
    # on top of externally owned buffers (``repro.runtime.shm`` maps
    # them zero-copy out of ``multiprocessing.shared_memory``).

    PACK_VERSION = 1

    def export_pack(self) -> Tuple[dict, "Dict[str, np.ndarray]"]:
        """Flatten the packed weights into ``(meta, arrays)``.

        ``meta`` is a JSON-pure structural manifest (pack kinds, conv
        geometry, bias folding) and ``arrays`` an ordered mapping of
        array key -> stacked ``(M, ...)`` tensor.  Together they fully
        determine a scorer: :meth:`from_export` rebuilds one whose
        scores are bit-identical to this instance's, even when the
        arrays are read-only views into a shared-memory segment.
        """
        packs: List[dict] = []
        arrays: Dict[str, np.ndarray] = {}

        def put(key: str, entry: dict, weight: np.ndarray,
                bias: Optional[np.ndarray]) -> None:
            entry = dict(entry, key=key, has_bias=bias is not None)
            packs.append(entry)
            arrays[key + ".weight"] = weight
            if bias is not None:
                arrays[key + ".bias"] = bias

        def put_conv(key: str, pack: _ConvPack) -> None:
            put(key, {"kind": "conv", "kernel_size": pack.kernel_size,
                      "left": pack.left, "right": pack.right,
                      "folded": pack.folded}, pack.weight, pack.bias)

        put("embedding", {"kind": "linear"}, self._embedding.weight,
            self._embedding.bias)
        packs.append({"kind": "array", "key": "positions"})
        arrays["positions"] = self._positions
        for layer in range(self.config.n_layers):
            for prefix, blocks in (("enc", self._encoder),
                                   ("dec", self._decoder)):
                block = blocks[layer]
                if "glu_v" in block:
                    put_conv(f"{prefix}{layer}.glu_v", block["glu_v"])
                    put_conv(f"{prefix}{layer}.glu_g", block["glu_g"])
                put_conv(f"{prefix}{layer}.conv", block["conv"])
            if self.config.use_attention:
                pack = self._attention[layer]
                put(f"att{layer}", {"kind": "linear"}, pack.weight,
                    pack.bias)
        if self._output_glu is not None:
            put_conv("out.glu_v", self._output_glu["glu_v"])
            put_conv("out.glu_g", self._output_glu["glu_g"])
        put_conv("recon", self._reconstruction)
        meta = {
            "version": self.PACK_VERSION,
            "n_models": self.n_models,
            "dtype": self.dtype.str,
            "aggregation": self.aggregation,
            "packs": packs,
        }
        return meta, arrays

    @classmethod
    def from_export(cls, cae_config: CAEConfig, meta: dict,
                    arrays: "Dict[str, np.ndarray]",
                    registry=None) -> "FusedEnsembleScorer":
        """Rebuild a scorer from :meth:`export_pack` output.

        The arrays are adopted as-is — typically read-only views into a
        shared-memory segment, making the attach zero-copy.  The
        returned scorer has no ``packed_models`` (it never saw the model
        instances), so :meth:`matches` is False for any model list;
        attach it explicitly where a cached scorer is expected.
        """
        if meta.get("version") != cls.PACK_VERSION:
            raise ValueError(f"unsupported pack version "
                             f"{meta.get('version')!r} "
                             f"(expected {cls.PACK_VERSION})")
        self = object.__new__(cls)
        self.config = cae_config
        self.aggregation = meta["aggregation"]
        self._set_dtype(meta["dtype"])
        self.n_models = int(meta["n_models"])
        self.packed_models = ()
        self._local = threading.local()
        self._obs = _FusedTelemetry(registry if registry is not None
                                    else default_registry())

        def conv_from(entry: dict) -> _ConvPack:
            pack = object.__new__(_ConvPack)
            pack.kernel_size = entry["kernel_size"]
            pack.left, pack.right = entry["left"], entry["right"]
            pack.folded = entry["folded"]
            pack.weight = arrays[entry["key"] + ".weight"]
            pack.bias = arrays.get(entry["key"] + ".bias")
            return pack

        def linear_from(entry: dict) -> _LinearPack:
            pack = object.__new__(_LinearPack)
            pack.weight = arrays[entry["key"] + ".weight"]
            pack.bias = arrays.get(entry["key"] + ".bias")
            return pack

        self._encoder = [{} for _ in range(cae_config.n_layers)]
        self._decoder = [{} for _ in range(cae_config.n_layers)]
        self._attention = []
        self._output_glu = None
        for entry in meta["packs"]:
            key = entry["key"]
            if key == "embedding":
                self._embedding = linear_from(entry)
            elif key == "positions":
                self._positions = arrays["positions"]
            elif key == "recon":
                self._reconstruction = conv_from(entry)
            elif key.startswith("att"):
                self._attention.append(linear_from(entry))
            elif key.startswith("out."):
                if self._output_glu is None:
                    self._output_glu = {}
                self._output_glu[key.split(".", 1)[1]] = conv_from(entry)
            elif key.startswith(("enc", "dec")):
                head, part = key.split(".", 1)
                layers = self._encoder if head.startswith("enc") \
                    else self._decoder
                layers[int(head[3:])][part] = conv_from(entry)
            else:
                raise ValueError(f"unknown pack key {key!r}")
        return self

    # ------------------------------------------------------------------
    # Forward: recorded once per chunk shape, replayed every call
    # ------------------------------------------------------------------
    def _workspaces(self, count: int) -> List[_Workspace]:
        """The calling thread's first ``count`` span workspaces (created
        on first use, then kept for its later calls)."""
        workspaces = getattr(self._local, "workspaces", None)
        if workspaces is None:
            workspaces = self._local.workspaces = []
        while len(workspaces) < count:
            workspaces.append(_Workspace())
        return workspaces[:count]

    def _decoder_widths(self, first: int) -> List[int]:
        """Columns each causal decoder stage keeps so that the output
        covers columns ``first..w-1``.

        The kernel-1 head reads only its own column, and a causal conv of
        kernel K reads K-1 columns to the left of each output, so walking
        back from the head every stage's input is K-1 columns wider than
        its output, clamped at ``w`` (a GLU counts once: its value and
        gate convs share one unfolding).  Forward order: the decoder
        input, then the output of each decoder GLU and conv and of the
        output GLU.  ``first=0`` keeps every stage at full width.
        """
        packs = [pack for block in self._decoder
                 for pack in (block.get("glu_v"), block["conv"])
                 if pack is not None]
        if self._output_glu is not None:
            packs.append(self._output_glu["glu_v"])
        window = self.config.window
        widths = [window - first]
        for pack in reversed(packs):
            widths.append(min(window, widths[-1] + pack.kernel_size - 1))
        return widths[::-1]

    def _record(self, workspace: _Workspace, m: int, n: int, first: int,
                cols: int) -> tuple:
        """Record the plan ``(inputs, ops, result)`` of ``n`` windows.

        ``ops`` read ``(n, w, D)`` windows from ``inputs``, reconstruct
        them with ``m`` models from column ``first`` (the embedding and
        the encoder, the attention keys, at full width, the causal
        decoder only on the suffix those columns depend on,
        :meth:`_decoder_widths`) and leave the aggregated errors of the
        last ``cols`` columns in ``result``, ``(n, cols)``.  Errors
        reduce over the feature axis in ``(.., w, D)`` layout — the same
        contiguous last-axis reduction (and summation order) as the
        per-model loop.

        A recording grows each buffer at most once, at its first
        request, so no op it writes views a superseded buffer: every key
        is requested once, except the shared ``"cols"``, whose first
        request (the full-width encoder unfolding) is its largest.
        """
        config = self.config
        rec = _Recorder(workspace, self.dtype, m,
                        self._expit if self._exact else None)
        inputs = rec.buffer("input", (n, config.window, config.input_dim))
        windows_cf = inputs.transpose(0, 2, 1)[None]
        # Embedding: x = tanh(W_v s + b_v) + p  (Section 3.1.1),
        # evaluated channel-first so the conv stack reads contiguously.
        embedded = rec.buffer("embed", (m, n, config.embed_dim,
                                        config.window))
        rec.op(np.matmul, self._embedding.weight[:m], windows_cf, embedded)
        rec.add_bias(embedded, self._embedding.bias)
        rec.op(np.tanh, embedded, embedded)
        rec.op(np.add, embedded, self._positions[:m], embedded)

        encoder_states: List[np.ndarray] = []
        state = embedded
        for layer, block in enumerate(self._encoder):
            key = f"enc{layer}"
            gated = rec.glu(state, block, key) if "glu_v" in block \
                else state
            hidden = rec.conv(gated, block["conv"], key)
            rec.op(np.maximum, hidden, 0.0, out=hidden)
            rec.op(np.add, hidden, state, hidden)
            encoder_states.append(hidden)
            state = hidden

        # Decoder input: embedded window shifted right by one step.
        widths = iter(self._decoder_widths(first))
        width = next(widths)
        shifted = rec.buffer("shift", (m, n, config.embed_dim, width))
        if width == config.window:
            rec.op(np.ndarray.fill, shifted[..., 0], 0.0)
            rec.op(np.copyto, shifted[..., 1:], embedded[..., :-1])
        else:
            rec.op(np.copyto, shifted, embedded[..., -width - 1:-1])
        decoder_state = shifted
        for layer, block in enumerate(self._decoder):
            key = f"dec{layer}"
            gated = rec.glu(decoder_state, block, key, next(widths)) \
                if "glu_v" in block else decoder_state
            hidden = rec.conv(gated, block["conv"], key, next(widths))
            width = hidden.shape[-1]
            rec.op(np.add, hidden, encoder_states[layer][..., -width:],
                   hidden)
            rec.op(np.maximum, hidden, 0.0, out=hidden)
            rec.op(np.add, hidden, decoder_state[..., -width:], hidden)
            decoder_state = hidden
            if config.use_attention:
                decoder_state = rec.attend(
                    decoder_state, encoder_states[layer],
                    self._attention[layer], f"att{layer}")

        final = decoder_state
        if self._output_glu is not None:
            final = rec.glu(final, self._output_glu, "out", next(widths))
        reconstructed = rec.conv(final, self._reconstruction, "recon")
        target = windows_cf if config.reconstruct == "observations" \
            else embedded

        reconstructed = reconstructed[..., -cols:]
        diff = rec.buffer("diff", (m, n, cols, reconstructed.shape[2]))
        rec.op(np.subtract, reconstructed.transpose(0, 1, 3, 2),
               target[..., -cols:].transpose(0, 1, 3, 2), diff)
        rec.op(np.multiply, diff, diff, diff)
        errors = rec.buffer("errors", (m, n, cols))
        rec.op(np.add.reduce, diff, -1, None, errors)
        return inputs, rec.ops, rec.aggregate(errors, self.aggregation)

    def _prepare_windows(self, windows: np.ndarray) -> np.ndarray:
        """Validate ``(N, w, D)`` windows.  They are not cast here: each
        chunk casts its own rows (:meth:`_score_chunk`), so a strided
        ``sliding_windows`` view is never folded out whole."""
        windows = np.asarray(windows)
        expected = (self.config.window, self.config.input_dim)
        if windows.ndim != 3 or windows.shape[1:] != expected:
            raise ValueError(f"expected (N, {expected[0]}, {expected[1]}) "
                             f"windows, got {windows.shape}")
        return windows

    def _resolve_models(self, n_models: Optional[int]) -> int:
        if n_models is None:
            return self.n_models
        m = min(int(n_models), self.n_models)
        if m < 1:
            raise ValueError("n_models must be >= 1")
        return m

    # The fused working set scales with M x chunk: ~128 model-window rows
    # keeps the largest buffers a few MB (cache-resident) for paper-sized
    # architectures.  128, 256 and 512 rows score within host noise of
    # each other (docs/performance.md), so the target is one constant.
    CHUNK_TARGET_ROWS = 128

    @classmethod
    def pin_chunk_rows(cls, rows: int) -> None:
        """Set the process-wide chunk target ``CHUNK_TARGET_ROWS``."""
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        cls.CHUNK_TARGET_ROWS = int(rows)

    def _chunk_size(self, m: int, n: int) -> int:
        """Windows per fused pass.

        Windows are independent, so splitting a batch changes nothing but
        memory traffic: a bounded ``model_rows x chunk`` working set keeps
        the ensemble-batch buffers cache-resident (measured ~1.4x faster
        than one huge pass at M=40, B=64) and caps workspace memory for
        full-series scoring, where N can be the series length.
        """
        chunk = max(1, self.CHUNK_TARGET_ROWS // m)
        return max(1, min(n, chunk))     # >= 1: an empty batch loops 0 times

    def _score_chunk(self, windows: np.ndarray, m: int, first: int,
                     out: np.ndarray, workspace: _Workspace) -> None:
        """Score one chunk of ``(n, w, D)`` windows into ``out``'s rows:
        the last ``out.shape[1]`` columns, reconstructed from ``first``,
        by replaying the workspace's plan for this shape (recorded on
        first use; beyond ``MAX_PLANS`` the oldest is dropped).  A
        replay counts as one workspace reuse."""
        key = (m, windows.shape[0], first, out.shape[1])
        plan = workspace.plans.get(key)
        if plan is None:
            plan = self._record(workspace, *key)
            if len(workspace.plans) >= MAX_PLANS:
                del workspace.plans[next(iter(workspace.plans))]
            workspace.plans[key] = plan
        workspace.reuses += 1
        inputs, ops, result = plan
        np.copyto(inputs, windows, casting="unsafe")
        for fn, args, kwargs in ops:
            fn(*args, **kwargs)
        out[...] = result

    def _score_chunks(self, windows: np.ndarray, n_models: Optional[int],
                      first: int, last: bool) -> np.ndarray:
        """The chunk loop behind both public entry points.

        Reconstructs from column ``first`` (:meth:`_record`) and
        scores every column, ``(N, w)``, or with ``last`` only each
        window's last one, ``(N,)``.

        The chunks are split into contiguous spans over
        ``min(usable cores, chunks // 2)`` workers, at least two chunks
        each.  The calling thread scores span 0 and one thread per other
        span, started for this call and joined before it returns, the
        rest; NumPy releases the GIL inside the GEMMs, im2col copies and
        ufunc loops, so the spans overlap.  A chunk runs the same code on
        the same rows on any thread, so scores are bit-identical for any
        worker count.  No pool outlives the call, so a forked child has
        nothing to rebuild.
        """
        windows = self._prepare_windows(windows)
        m = self._resolve_models(n_models)
        n = windows.shape[0]
        out = np.empty((n, 1 if last else self.config.window),
                       dtype=np.float64)
        chunk = self._chunk_size(m, n)
        starts = range(0, n, chunk)
        workers = max(1, min(_usable_cores(), len(starts) // 2))
        bounds = [len(starts) * span // workers
                  for span in range(workers + 1)]
        workspaces = self._workspaces(workers)
        obs = self._obs

        def score_span(span: int) -> None:
            for start in starts[bounds[span]:bounds[span + 1]]:
                tick = time.perf_counter() if obs.enabled else 0.0
                stop = start + chunk
                self._score_chunk(windows[start:stop], m, first,
                                  out[start:stop], workspaces[span])
                if obs.enabled:
                    obs.chunk_seconds.observe(time.perf_counter() - tick)

        errors: List[Optional[BaseException]] = [None] * workers

        def helper(span: int) -> None:
            try:
                score_span(span)
            except BaseException as exc:     # re-raised by the caller
                errors[span] = exc

        # Join every helper that started, even if a later start fails,
        # so none outlives the call writing into a reused workspace.
        started: List[threading.Thread] = []
        try:
            for span in range(1, workers):
                thread = threading.Thread(target=helper, args=(span,),
                                          name=f"fused-span-{span}")
                thread.start()
                started.append(thread)
            score_span(0)
        finally:
            for thread in started:
                thread.join()
        for error in errors:
            if error is not None:
                raise error
        if obs.enabled:
            obs.windows.inc(n)
            for workspace in workspaces:
                obs.flush_workspace(workspace)
        return out[:, 0] if last else out

    def window_scores(self, windows: np.ndarray,
                      n_models: Optional[int] = None) -> np.ndarray:
        """Aggregated per-window per-timestamp scores ``(N, w)`` (Eq. 14/15).

        ``windows`` must already be in model space (re-scaled); strided
        views from :func:`repro.datasets.windows.sliding_windows` are
        consumed without copying.
        """
        return self._score_chunks(windows, n_models, first=0, last=False)

    def score_windows_last(self, windows: np.ndarray,
                           n_models: Optional[int] = None) -> np.ndarray:
        """Aggregated score of each window's *last* timestamp, ``(B,)``.

        The streaming micro-batch path, and the tail of batch
        ``CAEEnsemble.score``.  On the float32 fast path the
        decoder runs only on the causal suffix the last column depends
        on (``first=w-1``, :meth:`_record`), which agrees with
        ``window_scores(...)[:, -1]`` within ``1e-5`` relative: BLAS may
        round a column differently in a narrower GEMM.  The float64 exact
        path reconstructs full width and stays identical to it.  Either
        way the suffix depends only on the config and each ``(M, N)``
        slice runs the same GEMM whatever B is, so scoring windows one at
        a time or coalesced is bit-identical.
        """
        first = 0 if self._exact else self.config.window - 1
        return self._score_chunks(windows, n_models, first=first, last=True)

    def matches(self, models: Sequence) -> bool:
        """Whether this scorer was packed from exactly these model
        instances (identity, not value, comparison — in-place weight
        mutation is invisible here and requires an explicit rebuild)."""
        return len(models) == self.n_models and \
            len(models) == len(self.packed_models) and \
            all(model is packed for model, packed
                in zip(models, self.packed_models))


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one, so a ``taskset``- or cpuset-pinned process counts only the CPUs
    it was given."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:               # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def fingerprint_arrays(arrays: "Dict[str, np.ndarray]") -> str:
    """SHA-256 over the pack's keys, shapes, dtypes and raw bytes.

    The publish/attach handshake in :mod:`repro.runtime.shm` stores this
    in the generation manifest and re-hashes the mapped segment before
    serving from it, so a torn publish (a crashed publisher, a partial
    write) is detected instead of silently scoring garbage.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()

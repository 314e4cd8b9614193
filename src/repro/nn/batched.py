"""Batched (model-stacked) autograd primitives for fused ensemble training.

The fused inference engine (:mod:`repro.core.fused`) showed that stacking
the ensemble's weights into ``(M, ...)`` tensors turns M per-model Python
forward passes into one batched GEMM per layer.  This module brings the
same layout to *training*: each op consumes ``(M, C, N, L)`` activations —
model, channel, window, timestamp — and ``(M, ...)`` stacked weights, and
implements the whole layer's VJP by hand, one coarse graph node where the
per-module path records dozens of fine-grained ones.  ``Adam`` then steps
the stacked parameters directly.

The channel-major ``(M, C, N, L)`` layout (rather than the window-major
``(M, N, C, L)`` of the inference scorer) is what makes each layer a
*single* large GEMM per model instead of N small gufunc-batched ones: the
window and timestamp axes merge into one ``N·L`` contraction/data axis, so
a convolution is ``(C_out, C_in·K) @ (C_in·K, N·L)`` forward, and its
weight gradient is the transposed product of the same two matrices — no
transpose copies anywhere on the hot path.

Every op:

* supports broadcasting of the activation's leading model axis (``M_x``
  may be 1 while the weights carry M > 1) — gradients are un-broadcast by
  :meth:`Tensor._accumulate`;
* preserves the input dtype end to end (the fused training path runs in
  float32, the gradcheck suite in float64);
* computes, per model slice, exactly what the per-module ops of
  :mod:`repro.nn.conv`, :mod:`repro.core.layers` and
  :mod:`repro.core.attention` compute, so with M = 1 and float64 the
  values and gradients match the per-model path to rounding error
  (verified by ``tests/test_nn_batched.py``).

All gradient formulas are verified against numerical differentiation via
:func:`repro.nn.gradcheck.gradcheck`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .conv import PaddingSpec, resolve_padding
from .tensor import Tensor, as_tensor


def _check_stacked_conv(x: Tensor, weight: Tensor) -> Tuple[int, ...]:
    if x.ndim != 4:
        raise ValueError(f"expected (M, C_in, N, L) input, got {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"expected (M, C_out, C_in, K) weight, "
                         f"got {weight.shape}")
    m_x, c_in, _, _ = x.shape
    m, _, c_in_w, _ = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects "
                         f"{c_in_w}")
    if m_x not in (1, m):
        raise ValueError(f"model axes differ: input {m_x}, weight {m}")
    return x.shape


def _sigmoid_forward(x: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Logistic in the input dtype.  float64 uses scipy's ``expit`` (the
    per-model training kernel, bit-comparable); narrower dtypes take the
    vectorised ``1 / (1 + exp(-x))`` — the same function, faster.
    ``overwrite=True`` lets the fast path reuse ``x``'s buffer (the caller
    must be done with the raw values).  scipy is imported only on the
    float64 branch, as in :meth:`Tensor.sigmoid`."""
    if x.dtype == np.float64:
        from scipy.special import expit
        return expit(x)
    if overwrite:
        out = np.negative(x, out=x)
    else:
        out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def _pad_last(x: np.ndarray, left: int, right: int) -> np.ndarray:
    """Zero-pad the last axis.  ``np.pad`` spends more time in Python
    bookkeeping than in the copy at training batch sizes; a zeros-buffer
    slice assignment is the same result without the overhead."""
    if not (left or right):
        return x
    *lead, length = x.shape
    out = np.zeros((*lead, length + left + right), dtype=x.dtype)
    out[..., left:left + length] = x
    return out


def _im2col_merged(x_pad: np.ndarray, kernel_size: int) -> np.ndarray:
    """Unfold ``(M, C, N, L_pad)`` into merged ``(M, C*K, N*L_out)`` columns.

    The strided view places the kernel offset *inside* the channel block
    (row ``c*K + k``) and merges windows and timestamps into one data
    axis, so the subsequent ``(C_out, C*K) @ (C*K, N*L_out)`` product is
    one large GEMM per model.  The reshape materialises the view — the
    only data copy of the convolution forward.
    """
    m, c, n, l_pad = x_pad.shape
    l_out = l_pad - kernel_size + 1
    sm, sc, sn, sl = x_pad.strides
    view = np.lib.stride_tricks.as_strided(
        x_pad,
        shape=(m, c, kernel_size, n, l_out),
        strides=(sm, sc, sl, sn, sl),
        writeable=False,
    )
    return view.reshape(m, c * kernel_size, n * l_out)


def _col2im_merged(gcols: np.ndarray, c: int, kernel_size: int,
                   n: int, l_pad: int) -> np.ndarray:
    """Inverse of :func:`_im2col_merged`: scatter-add ``(M, C*K, N*L_out)``
    back to ``(M, C, N, L_pad)`` — each kernel offset's contribution is
    shifted into place by one in-place vectorised add.
    """
    m = gcols.shape[0]
    l_out = l_pad - kernel_size + 1
    cols = gcols.reshape(m, c, kernel_size, n, l_out)
    out = np.zeros((m, c, n, l_pad), dtype=gcols.dtype)
    if kernel_size == 1:
        out[..., :l_out] = cols[:, :, 0]
        return out
    # Kernels are small (paper: 3-9), so K in-place shifted adds beat the
    # K×-sized staging buffer a strided-view formulation needs; ascending
    # k keeps the summation order of a K-axis reduction.
    for k in range(kernel_size):
        out[..., k:k + l_out] += cols[:, :, k]
    return out


def batched_conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                   padding: PaddingSpec = "same") -> Tensor:
    """Model-stacked 1-D convolution: one large GEMM per model.

    Parameters
    ----------
    x:      ``(M, C_in, N, L)`` activations (``M`` may be 1 to broadcast).
    weight: ``(M, C_out, C_in, K)`` stacked kernels.
    bias:   optional ``(M, C_out)``.
    padding: as :func:`repro.nn.conv.conv1d`.

    Returns ``(M, C_out, N, L_out)``.  Per model slice this computes
    exactly :func:`repro.nn.conv.conv1d`; forward, weight gradient and
    input gradient are each one ``np.matmul`` over merged ``N·L`` axes.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    _, c_in, n, length = _check_stacked_conv(x, weight)
    m, c_out, _, kernel_size = weight.shape
    left, right = resolve_padding(kernel_size, padding)
    l_out = length + left + right - kernel_size + 1
    w_mat = weight.data.reshape(m, c_out, c_in * kernel_size)
    if kernel_size == 1 and left == 0 and right == 0:
        # The reconstruction head: columns are the input itself.
        cols = x.data.reshape(x.shape[0], c_in, n * length)
        unfolded = False
    else:
        x_pad = _pad_last(x.data, left, right)
        cols = _im2col_merged(x_pad, kernel_size)   # (M_x, C_in*K, N*L_out)
        unfolded = True
    out = np.matmul(w_mat, cols).reshape(m, c_out, n, l_out)
    if bias is not None:
        out += bias.data.reshape(m, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray, x_=x, w_=weight, b_=bias, cols_=cols,
                 w_mat_=w_mat, unfolded_=unfolded) -> None:
        # grad: (M, C_out, N, L_out)
        grad_m = grad.reshape(m, c_out, n * l_out)
        if w_.requires_grad:
            gw = np.matmul(grad_m, cols_.swapaxes(-1, -2))
            w_._accumulate(gw.reshape(w_.shape))
        if b_ is not None and b_.requires_grad:
            b_._accumulate(grad.sum(axis=(2, 3)))
        if x_.requires_grad:
            gcols = np.matmul(w_mat_.swapaxes(-1, -2), grad_m)
            if unfolded_:
                gx = _col2im_merged(gcols, c_in, kernel_size, n,
                                    length + left + right) \
                    [..., left:left + length]
            else:
                gx = gcols.reshape(m, c_in, n, length)
            x_._accumulate(gx)

    return Tensor._from_op(out, parents, backward)


def batched_glu(x: Tensor, value_weight: Tensor, value_bias: Optional[Tensor],
                gate_weight: Tensor, gate_bias: Optional[Tensor],
                padding: PaddingSpec = "same") -> Tensor:
    """Model-stacked gated linear unit: ``conv_v(x) * sigmoid(conv_g(x))``.

    The value and gate convolutions share one im2col unfolding on the way
    forward and one col2im scatter on the way back — the training analogue
    of the fused scorer's shared-unfolding GLU (Eqs. 4-5).  Their weight
    matrices are additionally concatenated along the output-channel axis,
    so value and gate come out of **one** double-height GEMM (and each
    backward direction likewise) — small-GEMM BLAS efficiency rises with
    row count, worth ~15% on paper-sized channel widths.
    """
    x = as_tensor(x)
    value_weight, gate_weight = as_tensor(value_weight), as_tensor(gate_weight)
    _, c_in, n, length = _check_stacked_conv(x, value_weight)
    m, c_out, _, kernel_size = value_weight.shape
    if gate_weight.shape != value_weight.shape:
        raise ValueError(f"value/gate weight shapes differ: "
                         f"{value_weight.shape} vs {gate_weight.shape}")
    left, right = resolve_padding(kernel_size, padding)
    l_out = length + left + right - kernel_size + 1
    x_pad = _pad_last(x.data, left, right)
    cols = _im2col_merged(x_pad, kernel_size)       # shared by value and gate
    ck = c_in * kernel_size
    w_cat = np.concatenate((value_weight.data.reshape(m, c_out, ck),
                            gate_weight.data.reshape(m, c_out, ck)), axis=1)
    vg = np.matmul(w_cat, cols).reshape(m, 2, c_out, n, l_out)
    value, gate = vg[:, 0], vg[:, 1]
    if value_bias is not None:
        value += value_bias.data.reshape(m, c_out, 1, 1)
    if gate_bias is not None:
        gate += gate_bias.data.reshape(m, c_out, 1, 1)
    sig = _sigmoid_forward(gate, overwrite=True)   # raw gate not needed
    out = value * sig

    parents = tuple(p for p in (x, value_weight, value_bias, gate_weight,
                                gate_bias) if p is not None)

    def backward(grad: np.ndarray, x_=x, wv_=value_weight, bv_=value_bias,
                 wg_=gate_weight, bg_=gate_bias, cols_=cols, value_=value,
                 sig_=sig, w_cat_=w_cat) -> None:
        # d out / d value and d out / d gate, written into one stacked
        # buffer so both weight gradients (and the shared input gradient)
        # are single double-height GEMMs like the forward.
        dvg = np.empty((m, 2, c_out, n, l_out), dtype=grad.dtype)
        dv = np.multiply(grad, sig_, out=dvg[:, 0])
        # d out / d gate = grad·value·σ·(1−σ) = dv·value·(1−σ); σ's buffer
        # is rewritten in place (the backward closure fires exactly once).
        np.subtract(1.0, sig_, out=sig_)
        dg = np.multiply(dv, value_, out=dvg[:, 1])
        dg *= sig_
        dvg_m = dvg.reshape(m, 2 * c_out, n * l_out)
        if wv_.requires_grad or wg_.requires_grad:
            gw = np.matmul(dvg_m, cols_.swapaxes(-1, -2)) \
                .reshape(m, 2, c_out, c_in, kernel_size)
            if wv_.requires_grad:
                wv_._accumulate(gw[:, 0])
            if wg_.requires_grad:
                wg_._accumulate(gw[:, 1])
        if bv_ is not None and bv_.requires_grad:
            bv_._accumulate(dv.sum(axis=(2, 3)))
        if bg_ is not None and bg_.requires_grad:
            bg_._accumulate(dg.sum(axis=(2, 3)))
        if x_.requires_grad:
            gcols = np.matmul(w_cat_.swapaxes(-1, -2), dvg_m)
            gx = _col2im_merged(gcols, c_in, kernel_size, n,
                                length + left + right)
            x_._accumulate(gx[..., left:left + length])

    return Tensor._from_op(out, parents, backward)


def batched_linear_cf(x: Tensor, weight: Tensor,
                      bias: Optional[Tensor] = None) -> Tensor:
    """Model-stacked channel-first affine map: ``y = W @ x + b``.

    ``x`` is ``(M, C_in, N, L)`` (``M`` may be 1), ``weight`` is
    ``(M, C_out, C_in)``, ``bias`` ``(M, C_out)``; the result is
    ``(M, C_out, N, L)``.  Per model and timestep this is the transposed
    orientation of :func:`repro.nn.functional.linear` — the same dot
    products, evaluated as one GEMM over the merged ``N·L`` axis.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4:
        raise ValueError(f"expected (M, C_in, N, L) input, got {x.shape}")
    if weight.ndim != 3:
        raise ValueError(f"expected (M, C_out, C_in) weight, "
                         f"got {weight.shape}")
    m, c_out, c_in = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"input has {x.shape[1]} channels but weight "
                         f"expects {c_in}")
    if x.shape[0] not in (1, m):
        raise ValueError(f"model axes differ: input {x.shape[0]}, "
                         f"weight {m}")
    _, _, n, length = x.shape
    x_m = x.data.reshape(x.shape[0], c_in, n * length)
    out = np.matmul(weight.data, x_m).reshape(m, c_out, n, length)
    if bias is not None:
        out += bias.data.reshape(m, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray, x_=x, w_=weight, b_=bias, x_m_=x_m) -> None:
        grad_m = grad.reshape(m, c_out, n * length)
        if w_.requires_grad:
            gw = np.matmul(grad_m, x_m_.swapaxes(-1, -2))
            w_._accumulate(gw)
        if b_ is not None and b_.requires_grad:
            b_._accumulate(grad.sum(axis=(2, 3)))
        if x_.requires_grad:
            gx = np.matmul(w_.data.swapaxes(-1, -2), grad_m)
            x_._accumulate(gx.reshape(m, c_in, n, length))

    return Tensor._from_op(out, parents, backward)


def batched_attention(decoder_state: Tensor, encoder_state: Tensor,
                      weight: Tensor,
                      bias: Optional[Tensor] = None) -> Tensor:
    """Model-stacked global dot attention (Eq. 7) over channel-major states.

    Computes, per model and window, exactly what
    :class:`repro.core.attention.GlobalAttention` computes: summaries
    ``z = W d + b``, row-softmax scores ``α = softmax(zᵀe)``, context
    ``c = e αᵀ`` and the residual update ``d + c`` — one graph node with a
    hand-derived VJP instead of the ~10 the per-model path records.

    ``decoder_state`` / ``encoder_state`` are ``(M, C, N, w)``, ``weight``
    is ``(M, C, C)``, ``bias`` ``(M, C)``; returns ``(M, C, N, w)``.
    """
    d_t, e_t = as_tensor(decoder_state), as_tensor(encoder_state)
    weight = as_tensor(weight)
    if d_t.ndim != 4 or e_t.shape != d_t.shape:
        raise ValueError(f"expected matching (M, C, N, w) states, got "
                         f"{d_t.shape} vs {e_t.shape}")
    m, c, n, w = d_t.shape
    if weight.shape != (m, c, c):
        raise ValueError(f"expected ({m}, {c}, {c}) summary weight, "
                         f"got {weight.shape}")
    d, e = d_t.data, e_t.data
    d_m = d.reshape(m, c, n * w)
    z = np.matmul(weight.data, d_m)           # summaries z_t, (M, C, N*w)
    if bias is not None:
        z += bias.data.reshape(m, c, 1)
    z = z.reshape(m, c, n, w)
    # Per-window (w, C) @ (C, w) score matrices; the transposes are strided
    # views — matmul's gufunc consumes them without materialising.
    z_nw = z.transpose(0, 2, 3, 1)                    # (M, N, w, C)
    e_nc = e.transpose(0, 2, 1, 3)                    # (M, N, C, w)
    # scores[t, t'] = z_t . e_t' — rows are decoder timestamps; the max
    # shift is the same non-differentiated stabiliser functional.softmax
    # uses (softmax is shift-invariant, so no gradient flows through it).
    scores = np.matmul(z_nw, e_nc)                    # (M, N, w, w)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    alpha = scores
    # c_t = Σ α_tt' e_t', back to channel-major layout.
    context = np.matmul(e_nc, alpha.swapaxes(-1, -2)).transpose(0, 2, 1, 3)
    out = d + context

    parents = (d_t, e_t, weight) if bias is None else (d_t, e_t, weight, bias)

    def backward(grad: np.ndarray, d_=d_t, e_=e_t, w_=weight, b_=bias,
                 z_=z, alpha_=alpha, e_nc_=e_nc) -> None:
        # out = d + context with alpha = softmax(zᵀ e, axis=-1).
        grad_nc = grad.transpose(0, 2, 1, 3)                  # (M, N, C, w)
        g_e = np.matmul(grad_nc, alpha_)                      # via context
        g_alpha = np.matmul(grad_nc.swapaxes(-1, -2), e_nc_)
        g_scores = g_alpha - (g_alpha * alpha_).sum(axis=-1, keepdims=True)
        g_scores *= alpha_
        z_nc = z_.transpose(0, 2, 1, 3)                       # (M, N, C, w)
        g_z = np.matmul(e_nc_, g_scores.swapaxes(-1, -2))     # (M, N, C, w)
        g_e += np.matmul(z_nc, g_scores)                      # via scores
        g_z_m = np.ascontiguousarray(g_z.transpose(0, 2, 1, 3)) \
            .reshape(m, c, n * w)
        if w_.requires_grad:
            w_._accumulate(np.matmul(g_z_m,
                                     d_.data.reshape(m, c, n * w)
                                     .swapaxes(-1, -2)))
        if b_ is not None and b_.requires_grad:
            b_._accumulate(g_z_m.sum(axis=2))
        if d_.requires_grad:
            gd = np.matmul(w_.data.swapaxes(-1, -2), g_z_m) \
                .reshape(m, c, n, w)
            d_._accumulate(grad + gd)
        if e_.requires_grad:
            e_._accumulate(g_e.transpose(0, 2, 1, 3))

    return Tensor._from_op(out, parents, backward)


def batched_relu_residual(pre: Tensor, skip: Tensor,
                          mix: Optional[Tensor] = None) -> Tensor:
    """Fused block tail: ``relu(pre [+ mix]) + skip`` in one graph node.

    Covers both Eq. 3 (encoder: no ``mix``) and Eq. 6 (decoder: ``mix`` is
    the same-layer encoder state) — add, ReLU and residual share a single
    backward closure instead of three.  Elementwise, so layout-agnostic.
    """
    pre, skip = as_tensor(pre), as_tensor(skip)
    mix = as_tensor(mix) if mix is not None else None
    activated = pre.data if mix is None else pre.data + mix.data
    out = np.maximum(activated, 0.0)
    out += skip.data

    parents = (pre, skip) if mix is None else (pre, skip, mix)

    def backward(grad: np.ndarray, pre_=pre, skip_=skip, mix_=mix,
                 act_=activated) -> None:
        gated = grad * (act_ > 0)
        if pre_.requires_grad:
            pre_._accumulate(gated)
        if mix_ is not None and mix_.requires_grad:
            mix_._accumulate(gated)
        if skip_.requires_grad:
            skip_._accumulate(grad)

    return Tensor._from_op(out, parents, backward)


def batched_shift_right(x: Tensor) -> Tensor:
    """Shift the temporal axis right by one, zero-filling the first step.

    The decoder-input construction ``<0, x_1, ..., x_{w-1}>`` of
    Figure 6, over ``(..., w)`` channel-first activations.
    """
    x = as_tensor(x)
    data = np.zeros_like(x.data)
    data[..., 1:] = x.data[..., :-1]

    def backward(grad: np.ndarray, x_=x) -> None:
        if x_.requires_grad:
            gx = np.zeros_like(grad)
            gx[..., :-1] = grad[..., 1:]
            x_._accumulate(gx)

    return Tensor._from_op(data, (x,), backward)


def fused_training_loss(prediction: Tensor, target: np.ndarray,
                        ensemble_output: Optional[np.ndarray] = None,
                        diversity_weight: float = 0.0,
                        saturation: float = 1.0
                        ) -> Tuple[Tensor, float, float]:
    """The diversity-driven objective as one graph node (Eqs. 11-13).

    Computes ``L = J − λ·sat(K)`` with ``J = mean((pred − target)²)``,
    ``K = mean((pred − F)²)`` and ``sat(K) = s·K/(K+s)``, exactly as
    :func:`repro.core.diversity.diversity_driven_loss`, but returns the
    already-reduced ``J`` and ``K`` values alongside the loss — so the
    training loop's epoch bookkeeping needs **no** extra detached forward
    re-evaluations — and backpropagates the closed-form gradient
    ``∂L/∂pred = (2/size)·(diff_J − λ·(s/(K+s))²·diff_K)`` in one pass.

    ``target`` and ``ensemble_output`` are plain arrays (both are
    non-differentiated: the target is detached by definition and previous
    basic models are frozen, Figure 8).

    Returns ``(loss, j_value, k_value)`` — the scalar loss tensor plus the
    float values of J and K for :class:`~repro.core.ensemble.EpochRecord`.
    """
    pred = prediction.data
    diff_j = pred - target
    j_value = float(np.mean(diff_j * diff_j))
    use_diversity = ensemble_output is not None and diversity_weight != 0.0
    if use_diversity:
        diff_k = pred - ensemble_output
        k_value = float(np.mean(diff_k * diff_k))
        loss_value = j_value - diversity_weight * \
            (k_value * saturation) / (k_value + saturation)
        # d sat/dK of s·K/(K+s) is (s/(K+s))².
        k_coeff = -diversity_weight * \
            (saturation / (k_value + saturation)) ** 2
    else:
        diff_k = None
        k_value = 0.0
        loss_value = j_value
        k_coeff = 0.0

    def backward(grad: np.ndarray, p=prediction, dj=diff_j, dk=diff_k,
                 ck=k_coeff) -> None:
        if not p.requires_grad:
            return
        # The closure fires once, so the residual buffers are reused.
        scale = float(grad) * 2.0 / dj.size
        g = np.multiply(dj, np.asarray(scale, dtype=dj.dtype), out=dj)
        if dk is not None:
            dk *= np.asarray(ck * scale, dtype=dk.dtype)
            g += dk
        p._accumulate(g)

    loss = Tensor._from_op(np.asarray(loss_value, dtype=pred.dtype),
                           (prediction,), backward)
    return loss, j_value, k_value

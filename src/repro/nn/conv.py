"""1-D convolution with autograd, implemented via im2col.

The paper replaces RNN recursion with 1-D convolutions precisely because a
convolution over a window is a single batched matrix multiplication — all
timestamps are processed in parallel (Section 3.1).  The im2col formulation
makes that explicit: the input ``(N, C_in, L)`` is unfolded into a matrix of
receptive-field columns and multiplied by the flattened kernel.

Two padding modes mirror the paper's encoder and decoder:

* ``'same'``  — pad both sides so the output length equals the input length
  (encoder, Figure 5);
* ``'causal'`` — pad only the left so position ``t`` never sees inputs after
  ``t`` (decoder, Figure 6).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Tensor, as_tensor

PaddingSpec = Union[str, int, Tuple[int, int]]


def resolve_padding(kernel_size: int, padding: PaddingSpec) -> Tuple[int, int]:
    """Translate a padding spec into explicit (left, right) pad amounts."""
    if isinstance(padding, str):
        if padding == "same":
            total = kernel_size - 1
            left = total // 2
            return left, total - left
        if padding == "causal":
            return kernel_size - 1, 0
        if padding == "valid":
            return 0, 0
        raise ValueError(f"unknown padding mode {padding!r}")
    if isinstance(padding, int):
        return padding, padding
    left, right = padding
    return int(left), int(right)


def _im2col(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """Unfold ``(..., C, L_pad)`` into ``(..., C * K, L_out)`` columns.

    Uses stride tricks, so no data is copied until the matmul reads it.
    Any number of leading batch axes is supported; the per-model path
    passes ``(N, C, L_pad)``.
    """
    *lead, c, l_pad = x.shape
    l_out = l_pad - kernel_size + 1
    stride_l = x.strides[-1]
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(*lead, c, kernel_size, l_out),
        strides=(*x.strides, stride_l),
        writeable=False,
    )
    return view.reshape(*lead, c * kernel_size, l_out)


def _col2im(cols: np.ndarray, c: int, kernel_size: int, l_pad: int) -> np.ndarray:
    """Inverse of :func:`_im2col`: scatter-add columns back to ``(..., C, L_pad)``.

    The overlapping scatter is vectorised with a diagonal strided view:
    a ``(..., C, K, L_pad)`` staging buffer is viewed with strides so that
    entry ``(..., c, k, j)`` lands on ``buffer[..., c, k, k + j]`` — each
    kernel offset's contribution shifted into place by one strided copy —
    and a single reduction over the ``K`` axis performs all the
    overlapping adds at once, replacing the per-offset Python loop.  The
    view is write-disjoint (every ``(k, j)`` maps to a distinct element),
    so the assignment is well defined; summation runs over ascending
    ``k``, bit-identical to the loop it replaces.  Leading batch axes
    mirror :func:`_im2col`.
    """
    *lead, _, l_out = cols.shape
    cols = cols.reshape(*lead, c, kernel_size, l_out)
    if kernel_size == 1:
        out = np.zeros((*lead, c, l_pad), dtype=cols.dtype)
        out[..., :l_out] = cols[..., 0, :]
        return out
    staged = np.zeros((*lead, c, kernel_size, l_pad), dtype=cols.dtype)
    s_k, s_l = staged.strides[-2], staged.strides[-1]
    shifted = np.lib.stride_tricks.as_strided(
        staged, shape=(*lead, c, kernel_size, l_out),
        strides=(*staged.strides[:-2], s_k + s_l, s_l))
    shifted[...] = cols
    return staged.sum(axis=-2)


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           padding: PaddingSpec = "same") -> Tensor:
    """1-D convolution (cross-correlation, as in deep-learning frameworks).

    Parameters
    ----------
    x:      input of shape ``(N, C_in, L)``.
    weight: kernels of shape ``(C_out, C_in, K)``.
    bias:   optional ``(C_out,)``.
    padding: ``'same'`` | ``'causal'`` | ``'valid'`` | int | (left, right).

    Returns
    -------
    Tensor of shape ``(N, C_out, L_out)`` where ``L_out = L + left + right - K + 1``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 3:
        raise ValueError(f"conv1d expects (N, C_in, L) input, got shape {x.shape}")
    if weight.ndim != 3:
        raise ValueError(f"conv1d expects (C_out, C_in, K) weight, got {weight.shape}")
    n, c_in, length = x.shape
    c_out, c_in_w, kernel_size = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")

    left, right = resolve_padding(kernel_size, padding)
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (left, right)))
    cols = _im2col(x_pad, kernel_size)                    # (N, C_in*K, L_out)
    w_mat = weight.data.reshape(c_out, c_in * kernel_size)
    # (C_out, K') @ (N, K', L_out) broadcasts to (N, C_out, L_out) — one
    # batched BLAS call per window batch, the parallelism the paper claims
    # over RNN recursion.
    out = np.matmul(w_mat, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray, x_=x, w_=weight, b_=bias,
                 cols_=cols, w_mat_=w_mat) -> None:
        # grad: (N, C_out, L_out)
        if w_.requires_grad:
            gw = np.matmul(grad, cols_.swapaxes(1, 2)).sum(axis=0)
            w_._accumulate(gw.reshape(w_.shape))
        if b_ is not None and b_.requires_grad:
            b_._accumulate(grad.sum(axis=(0, 2)))
        if x_.requires_grad:
            gcols = np.matmul(w_mat_.T, grad)
            gx_pad = _col2im(gcols, c_in, kernel_size, length + left + right)
            x_._accumulate(gx_pad[:, :, left:left + length])

    return Tensor._from_op(out, parents, backward)

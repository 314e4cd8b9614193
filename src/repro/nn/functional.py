"""Free-function neural-network operations built on the autograd engine.

These compose :class:`repro.nn.tensor.Tensor` primitives into the building
blocks the paper's models need: softmax/attention math, the reconstruction
loss of Eqs. 1 and 11, padding for the convolutional encoder/decoder and
the reparameterisation trick for the variational baselines (RNNVAE,
OmniAnomaly).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, as_tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (used by attention, Eq. 7)."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error — the autoencoder objective of Eq. 1 / Eq. 11."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def pad1d(x: Tensor, left: int, right: int, value: float = 0.0) -> Tensor:
    """Pad the last axis of ``x`` (``(..., L)``) with a constant.

    The encoder pads both sides ('same' output length); the decoder pads
    only the left so the convolution at time ``t`` never sees observations
    after ``t`` (causality, Section 3.1.3).
    """
    x = as_tensor(x)
    if left == 0 and right == 0:
        return x
    pad_width = [(0, 0)] * (x.ndim - 1) + [(left, right)]
    data = np.pad(x.data, pad_width, constant_values=value)
    length = x.shape[-1]

    def backward(grad: np.ndarray, a=x, lo=left, n=length) -> None:
        if a.requires_grad:
            index = [slice(None)] * grad.ndim
            index[-1] = slice(lo, lo + n)
            a._accumulate(grad[tuple(index)])

    return Tensor._from_op(data, (x,), backward)


def gaussian_reparameterize(mu: Tensor, logvar: Tensor,
                            rng: np.random.Generator) -> Tensor:
    """Sample ``z ~ N(mu, exp(logvar))`` differentiably (VAE baselines)."""
    eps = Tensor(rng.standard_normal(mu.shape))
    return mu + (logvar * 0.5).exp() * eps


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL( N(mu, exp(logvar)) || N(0, 1) ), averaged over all elements."""
    return ((mu * mu + logvar.exp() - logvar - 1.0) * 0.5).mean()


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (weight is (out, in))."""
    out = as_tensor(x) @ weight.T
    if bias is not None:
        out = out + bias
    return out


def batched_dot_attention(queries: Tensor, keys: Tensor,
                          values: Tensor) -> Tuple[Tensor, Tensor]:
    """Global dot-product attention (Luong), batched over the first axis.

    Parameters
    ----------
    queries: ``(N, w, D)`` state summaries ``z_t`` (decoder side).
    keys:    ``(N, w, D)`` encoder outputs ``e_t'``.
    values:  ``(N, w, D)`` vectors combined into the context (paper uses the
             encoder outputs themselves).

    Returns
    -------
    (context, weights): context ``(N, w, D)`` = Eq. 7 applied row-wise,
    attention weights ``(N, w, w)``.
    """
    scores = queries @ keys.transpose(0, 2, 1)          # (N, w, w)
    weights = softmax(scores, axis=-1)
    context = weights @ values                          # (N, w, D)
    return context, weights


def sequence_reconstruction_errors(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """Per-timestamp squared L2 reconstruction errors (Eq. 14).

    Both inputs have shape ``(..., w, D)``; the result drops the feature
    axis: ``(..., w)``.
    """
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    return ((x - x_hat) ** 2).sum(axis=-1)

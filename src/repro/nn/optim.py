"""Gradient-descent optimisers.

The paper trains every model with Adam (Kingma & Ba 2015) at a fixed
learning rate of 1e-3 (Section 4.1.5), so Adam is the only optimiser.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor


class FlatParameters:
    """Named parameters packed end to end into one flat array.

    ``data`` holds every parameter and ``grad`` their gradients in the
    same layout; :attr:`views` and :attr:`grads` are the per-parameter
    reshaped views into them, so a kernel can write a gradient in place
    and :class:`Adam` can step all parameters with one ufunc call per
    update term.
    """

    def __init__(self, shapes: Sequence[Tuple[str, Tuple[int, ...]]],
                 dtype):
        sizes = [math.prod(shape) for _, shape in shapes]
        self.data = np.zeros(sum(sizes), dtype=dtype)
        self.grad = np.zeros_like(self.data)
        self.slices: Dict[str, slice] = {}
        self.views: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        offset = 0
        for (name, shape), size in zip(shapes, sizes):
            part = slice(offset, offset + size)
            self.slices[name] = part
            self.views[name] = self.data[part].reshape(shape)
            self.grads[name] = self.grad[part].reshape(shape)
            offset += size

    def span(self, first: str, last: str) -> slice:
        """The flat range from parameter ``first`` through ``last``."""
        return slice(self.slices[first].start, self.slices[last].stop)


class Optimizer:
    """Base class: holds parameter references, provides ``zero_grad``."""

    def __init__(self, params: Iterable[Tensor]):
        self.params: List[Tensor] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) — the paper's optimiser, lr = 1e-3.

    ``params`` is either an iterable of tensors, stepped one at a time, or
    a :class:`FlatParameters` pack, stepped as one flat buffer.  Either
    way each parameter is clipped by its own gradient norm, and every
    element goes through the same ufunc sequence, so both forms produce
    bit-identical updates.
    """

    def __init__(self, params: Union[Iterable[Tensor], FlatParameters],
                 lr: float = 1e-3, betas: tuple = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 grad_clip: Optional[float] = None):
        self.flat = params if isinstance(params, FlatParameters) else None
        super().__init__(self.flat.views.values() if self.flat is not None
                         else params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if grad_clip is not None and grad_clip <= 0:
            # A clip scales by clip / norm: 0 would zero every update and
            # a negative clip would silently reverse it.
            raise ValueError(f"grad_clip must be positive or None, "
                             f"got {grad_clip}")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._step = 0
        # Moments, a scratch pair (update, denominator) and, for tensors,
        # a clipped-gradient scratch (a flat pack clips in place): step()
        # runs every training batch, so no temporaries are allocated.
        if self.flat is not None:
            self._state = [tuple(np.zeros_like(self.flat.data)
                                 for _ in range(4))]
        else:
            self._state = [tuple(np.zeros_like(p.data) for _ in range(5))
                           for p in self.params]

    def zero_grad(self) -> None:
        if self.flat is not None:
            self.flat.grad.fill(0.0)
        else:
            super().zero_grad()

    def _clipped(self, grad: np.ndarray, out: np.ndarray,
                 data: np.ndarray) -> np.ndarray:
        """``grad`` clipped to the norm bound and weight-decayed; writes
        into ``out`` only when a term applies (``out`` may be ``grad``)."""
        if self.grad_clip is not None:
            norm = float(np.linalg.norm(grad))
            if norm > self.grad_clip:
                grad = np.multiply(grad, self.grad_clip / (norm + 1e-12),
                                   out=out)
        if self.weight_decay:
            grad = np.add(grad, self.weight_decay * data, out=out)
        return grad

    def _update(self, data: np.ndarray, grad: np.ndarray,
                state: Tuple[np.ndarray, ...]) -> None:
        m, v, buf, denom = state[:4]
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=buf)
        m += buf
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=buf)
        buf *= grad
        v += buf
        np.divide(v, self._bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, self._bias1, out=buf)
        buf *= self.lr
        buf /= denom
        data -= buf

    def step(self) -> None:
        self._step += 1
        self._bias1 = 1.0 - self.beta1 ** self._step
        self._bias2 = 1.0 - self.beta2 ** self._step
        if self.flat is not None:
            # Each parameter's clip rewrites its own slice of the flat
            # gradient; the moments then update in one pass.
            for name, grad in self.flat.grads.items():
                self._clipped(grad, grad, self.flat.views[name])
            self._update(self.flat.data, self.flat.grad, self._state[0])
            return
        for param, state in zip(self.params, self._state):
            if param.grad is None:
                continue
            grad = self._clipped(param.grad, state[4], param.data)
            self._update(param.data, grad, state)

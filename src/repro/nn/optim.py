"""Gradient-descent optimisers.

The paper trains every model with Adam (Kingma & Ba 2015) at a fixed
learning rate of 1e-3 (Section 4.1.5), so Adam is the only optimiser.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .tensor import Tensor


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
    """Adam (Kingma & Ba 2015) — the paper's optimiser, lr = 1e-3."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0,
                 grad_clip: Optional[float] = None):
        super().__init__(params)
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
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Scratch pair per parameter: step() runs every training batch, so
        # the moment/update temporaries are reused instead of reallocated.
        # Every in-place expression below keeps the original evaluation
        # order — the update values are bit-identical to the naive form.
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data))
                         for p in self.params]

    def step(self) -> None:
        self._step += 1
        t = self._step
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for param, m, v, (buf, denom) in zip(self.params, self._m, self._v,
                                             self._scratch):
            if param.grad is None:
                continue
            grad = param.grad
            if self.grad_clip is not None:
                norm = float(np.linalg.norm(grad))
                if norm > self.grad_clip:
                    grad = grad * (self.grad_clip / (norm + 1e-12))
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=buf)
            m += buf
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=buf)
            buf *= grad
            v += buf
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, bias1, out=buf)
            buf *= self.lr
            buf /= denom
            param.data -= buf

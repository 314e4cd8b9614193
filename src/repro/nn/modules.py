"""Module / Parameter system: the structural layer of the NN substrate.

Provides the same ergonomics the paper's PyTorch implementation relies on —
``Module`` with recursive parameter discovery, ``state_dict`` round-trips
(needed by the ensemble's parameter-transfer step, Fig. 9) and a handful of
concrete layers (``Linear``, ``Conv1d``, ``Embedding``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import init as nn_init
from .conv import PaddingSpec, conv1d
from .functional import linear as f_linear
from .tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as trainable state of a :class:`Module`."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(np.array(data, dtype=np.float64), requires_grad=True,
                         name=name)


class Module:
    """Base class with recursive parameter/submodule bookkeeping.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically, in assignment order,
    by ``parameters`` / ``named_parameters`` / ``state_dict``.
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # -- attribute interception -----------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix + name + ".")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- state dict --------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays, keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray],
                        strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, values in state.items():
            if name in own:
                if own[name].shape != np.shape(values):
                    raise ValueError(f"shape mismatch for {name}: "
                                     f"{own[name].shape} vs {np.shape(values)}")
                own[name].data[...] = values

    # -- call --------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with PyTorch-default initialisation."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features)))
        nn_init.kaiming_uniform_(self.weight, rng)
        if bias:
            self.bias = Parameter(np.empty(out_features))
            nn_init.bias_uniform_(self.bias, in_features, rng)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return f_linear(x, self.weight, self.bias)


class Conv1d(Module):
    """1-D convolution layer over ``(N, C_in, L)`` inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, padding: PaddingSpec = "same",
                 bias: bool = True):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight = Parameter(np.empty((out_channels, in_channels, kernel_size)))
        nn_init.kaiming_uniform_(self.weight, rng)
        if bias:
            self.bias = Parameter(np.empty(out_channels))
            nn_init.bias_uniform_(self.bias, in_channels * kernel_size, rng)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, padding=self.padding)


class Embedding(Module):
    """Lookup table, used for the position embedding (Section 3.1.1)."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(np.empty((num_embeddings, embedding_dim)))
        nn_init.normal_(self.weight, 0.0, 1.0 / np.sqrt(embedding_dim), rng)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (indices.min() < 0 or
                             indices.max() >= self.num_embeddings):
            raise IndexError(f"embedding index out of range "
                             f"[0, {self.num_embeddings})")
        return self.weight[indices]

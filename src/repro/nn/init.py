"""Weight initialisers operating in place on parameter data.

Mirrors the PyTorch defaults the paper's public implementation relies on:
Kaiming-uniform fan-in for linear/conv weights and uniform bias ranges.
Every initialiser takes an explicit ``rng`` so experiments are seeded and
reproducible end to end.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .tensor import Tensor


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in / fan-out for linear ((out, in)) or conv ((out, in, k))."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def uniform_(param: Tensor, low: float, high: float,
             rng: np.random.Generator) -> Tensor:
    param.data[...] = rng.uniform(low, high, size=param.shape)
    return param


def normal_(param: Tensor, mean: float, std: float,
            rng: np.random.Generator) -> Tensor:
    param.data[...] = rng.normal(mean, std, size=param.shape)
    return param


def xavier_uniform_(param: Tensor, rng: np.random.Generator,
                    gain: float = 1.0) -> Tensor:
    fan_in, fan_out = _fan_in_out(param.shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return uniform_(param, -bound, bound, rng)


def kaiming_uniform_(param: Tensor, rng: np.random.Generator,
                     a: float = math.sqrt(5.0)) -> Tensor:
    """PyTorch's default Linear/Conv weight init (leaky-relu gain)."""
    fan_in, _ = _fan_in_out(param.shape)
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / max(fan_in, 1))
    return uniform_(param, -bound, bound, rng)


def bias_uniform_(param: Tensor, fan_in: int, rng: np.random.Generator) -> Tensor:
    """PyTorch's default bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return uniform_(param, -bound, bound, rng)

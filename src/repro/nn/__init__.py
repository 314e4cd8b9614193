"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

The paper's reference implementation is written against PyTorch; this
package provides the facilities the reproduction uses (reverse-mode
autograd, the layers its models are built from, the Adam optimiser and
state-dict serialisation) so it is fully self-contained.
"""

from . import functional, init
from .conv import conv1d, resolve_padding
from .gradcheck import gradcheck, numerical_gradient
from .modules import Conv1d, Embedding, Linear, Module, Parameter
from .optim import Adam, FlatParameters, Optimizer
from .rnn import GRUCell, LSTM, LSTMCell
from .serialization import load_state_dict, save_state_dict
from .tensor import (Tensor, as_tensor, concatenate, default_dtype,
                     inference_dtype, inference_precision, is_grad_enabled,
                     no_grad, ones, set_default_dtype, set_inference_dtype,
                     stack, tensor, where, zeros)

__all__ = [
    "Adam", "Conv1d", "Embedding", "FlatParameters", "GRUCell", "LSTM",
    "LSTMCell", "Linear", "Module", "Optimizer", "Parameter", "Tensor",
    "as_tensor", "concatenate", "conv1d", "default_dtype", "functional",
    "gradcheck", "inference_dtype", "inference_precision", "init",
    "is_grad_enabled", "load_state_dict", "no_grad", "numerical_gradient",
    "ones", "resolve_padding", "save_state_dict", "set_default_dtype",
    "set_inference_dtype", "stack", "tensor", "where", "zeros",
]

"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
implementation uses PyTorch; PyTorch is unavailable in this environment, so
we provide a small but complete autograd engine with the same semantics for
the subset of operations the models need:

* elementwise arithmetic with NumPy-style broadcasting,
* matrix multiplication, reshaping, transposition, slicing, concatenation,
* the nonlinearities used by the paper (sigmoid, tanh, ReLU, exp, log),
* reductions (sum, mean, max) with axis/keepdims support.

Gradients flow through a dynamically built tape.  ``Tensor.backward`` runs an
iterative topological sort so arbitrarily deep graphs (e.g. LSTM unrolled
over hundreds of steps) do not hit Python's recursion limit.

All gradient formulas are verified against numerical differentiation in
``tests/test_nn_autograd.py`` via :func:`repro.nn.gradcheck.gradcheck`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Arrayish = Union["Tensor", np.ndarray, float, int, list, tuple]

# Grad mode is per-thread (as in torch): a serving thread scoring inside
# no_grad() must not disable graph construction for a background thread
# that is training a replacement model at the same time.
_GRAD_MODE = threading.local()

# Dtype policy, likewise per-thread: training runs in float64 (the
# gradcheck-verified precision of the autograd substrate), inference fast
# paths default to float32 (half the memory traffic, same BLAS calls).
# Keeping both settings thread-local means a serving thread scoring in
# float32 never degrades a background thread that is training a
# replacement ensemble in float64, and vice versa.
_DTYPE_POLICY = threading.local()

TRAINING_DTYPE = np.float64
INFERENCE_DTYPE = np.float32


def default_dtype() -> np.dtype:
    """The dtype new tensors are created with on this thread (training
    precision; float64 unless overridden via :func:`set_default_dtype`)."""
    return getattr(_DTYPE_POLICY, "default", np.dtype(TRAINING_DTYPE))


def set_default_dtype(dtype) -> None:
    """Set this thread's tensor-construction dtype (must be a float kind)."""
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise ValueError(f"default dtype must be floating, got {dtype}")
    _DTYPE_POLICY.default = dtype


def inference_dtype() -> np.dtype:
    """The dtype no-grad fast paths (e.g. the fused ensemble scorer)
    compute in on this thread; float32 unless overridden."""
    return getattr(_DTYPE_POLICY, "inference", np.dtype(INFERENCE_DTYPE))


def set_inference_dtype(dtype) -> None:
    """Set this thread's inference dtype (float32 for speed, float64 for
    bit-exact parity with the per-model training substrate)."""
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise ValueError(f"inference dtype must be floating, got {dtype}")
    _DTYPE_POLICY.inference = dtype


@contextlib.contextmanager
def inference_precision(dtype):
    """Temporarily pin this thread's inference dtype.

    >>> import numpy as np
    >>> with inference_precision(np.float64):
    ...     inference_dtype() == np.float64
    True
    >>> inference_dtype() == np.float32
    True
    """
    previous = inference_dtype()
    set_inference_dtype(dtype)
    try:
        yield
    finally:
        set_inference_dtype(previous)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like torch.no_grad).

    Thread-local: only the entering thread stops recording gradients.
    """
    previous = is_grad_enabled()
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations on this thread currently record
    gradients."""
    return getattr(_GRAD_MODE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting replicates values along new leading axes and along axes of
    size one; the gradient of a broadcast is therefore a sum over the
    replicated axes.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray`` (non-float input is cast to
        the thread's :func:`default_dtype` — float64 unless overridden —
        while float source arrays keep their dtype).
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` on backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data: Arrayish, requires_grad: bool = False,
                 name: Optional[str] = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=default_dtype()) if not isinstance(
            data, np.ndarray) or data.dtype.kind != "f" else np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Build a result tensor wired into the autograd graph.

        ``backward`` receives the upstream gradient and is responsible for
        calling :meth:`_accumulate` on each parent that requires grad.
        """
        out = Tensor(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer."""
        grad = np.asarray(grad)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            # Own the buffer: the incoming grad may alias another tensor's.
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array_repr(self.data)}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def copy_(self, source: "Tensor") -> None:
        """In-place copy of another tensor's values (keeps identity/graph leaf)."""
        np.copyto(self.data, np.asarray(source.data, dtype=self.data.dtype))

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[Arrayish] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        If this tensor is not a scalar, ``grad`` (the upstream gradient,
        same shape as ``data``) must be supplied.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not "
                               "require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be specified for non-scalar "
                                   "tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order = self._topological_order()
        self._accumulate(grad)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> list:
        """Iterative post-order DFS, returned in reverse (root first)."""
        order: list = []
        visited = set()
        stack: list = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                a._accumulate(grad)
            if b.requires_grad:
                b._accumulate(grad)

        return Tensor._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray, a=self) -> None:
            if a.requires_grad:
                a._accumulate(-grad)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other: Arrayish) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                a._accumulate(grad * b.data)
            if b.requires_grad:
                b._accumulate(grad * a.data)

        return Tensor._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                a._accumulate(grad / b.data)
            if b.requires_grad:
                b._accumulate(-grad * a.data / (b.data ** 2))

        return Tensor._from_op(data, (self, other), backward)

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray, a=self, n=exponent) -> None:
            if a.requires_grad:
                a._accumulate(grad * n * a.data ** (n - 1))

        return Tensor._from_op(data, (self,), backward)

    def __matmul__(self, other: Arrayish) -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                if b.data.ndim == 1:
                    ga = np.multiply.outer(grad, b.data) if a.data.ndim > 1 \
                        else grad * b.data
                    if a.data.ndim == 1 and grad.ndim == 0:
                        ga = grad * b.data
                else:
                    ga = grad @ np.swapaxes(b.data, -1, -2) if grad.ndim else \
                        np.outer(grad, b.data)
                    if a.data.ndim == 1:
                        ga = _unbroadcast(ga, a.data.shape)
                a._accumulate(_unbroadcast(np.asarray(ga), a.data.shape))
            if b.requires_grad:
                if a.data.ndim == 1:
                    if b.data.ndim == 1:
                        gb = grad * a.data
                    else:
                        gb = np.multiply.outer(a.data, grad)
                else:
                    gb = np.swapaxes(a.data, -1, -2) @ grad
                b._accumulate(_unbroadcast(np.asarray(gb), b.data.shape))

        return Tensor._from_op(data, (self, other), backward)

    def matmul(self, other: Arrayish) -> "Tensor":
        return self @ other

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray, a=self, orig=original) -> None:
            if a.requires_grad:
                a._accumulate(grad.reshape(orig))

        return Tensor._from_op(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray, a=self, inv=tuple(inverse)) -> None:
            if a.requires_grad:
                a._accumulate(grad.transpose(inv))

        return Tensor._from_op(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray, a=self, idx=index) -> None:
            if a.requires_grad:
                full = np.zeros_like(a.data)
                np.add.at(full, idx, grad)
                a._accumulate(full)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self, ax=axis, kd=keepdims) -> None:
            if not a.requires_grad:
                return
            g = grad
            if ax is not None and not kd:
                axes = (ax,) if np.isscalar(ax) else tuple(ax)
                axes = tuple(x % a.data.ndim for x in axes)
                for x in sorted(axes):
                    g = np.expand_dims(g, x)
            a._accumulate(np.broadcast_to(g, a.data.shape))

        return Tensor._from_op(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.data.shape[x] for x in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self, ax=axis, kd=keepdims) -> None:
            if not a.requires_grad:
                return
            full_max = a.data.max(axis=ax, keepdims=True)
            mask = (a.data == full_max)
            # Share the gradient equally among ties (matches numerical grad).
            counts = mask.sum(axis=ax, keepdims=True)
            g = grad
            if ax is not None and not kd:
                axes = (ax,) if np.isscalar(ax) else tuple(ax)
                axes = tuple(x % a.data.ndim for x in axes)
                for x in sorted(axes):
                    g = np.expand_dims(g, x)
            a._accumulate(mask * g / counts)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray, a=self, out=data) -> None:
            if a.requires_grad:
                a._accumulate(grad * out)

        return Tensor._from_op(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray, a=self) -> None:
            if a.requires_grad:
                a._accumulate(grad / a.data)

        return Tensor._from_op(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray, a=self) -> None:
            if a.requires_grad:
                a._accumulate(grad * np.sign(a.data))

        return Tensor._from_op(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # scipy's expit is the numerically stable logistic, evaluated in C.
        from scipy.special import expit
        data = expit(self.data)

        def backward(grad: np.ndarray, a=self, out=data) -> None:
            if a.requires_grad:
                a._accumulate(grad * out * (1.0 - out))

        return Tensor._from_op(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray, a=self, out=data) -> None:
            if a.requires_grad:
                a._accumulate(grad * (1.0 - out ** 2))

        return Tensor._from_op(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray, a=self) -> None:
            if a.requires_grad:
                a._accumulate(grad * (a.data > 0))

        return Tensor._from_op(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray, a=self, lo=low, hi=high) -> None:
            if a.requires_grad:
                mask = (a.data >= lo) & (a.data <= hi)
                a._accumulate(grad * mask)

        return Tensor._from_op(data, (self,), backward)


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def as_tensor(value: Arrayish) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def tensor(value: Arrayish, requires_grad: bool = False) -> Tensor:
    """Create a new tensor, copying the input data."""
    return Tensor(np.array(value, dtype=np.float64), requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray, parts=tensors, offs=offsets, ax=axis) -> None:
        for part, start, stop in zip(parts, offs[:-1], offs[1:]):
            if part.requires_grad:
                index = [slice(None)] * grad.ndim
                index[ax] = slice(start, stop)
                part._accumulate(grad[tuple(index)])

    return Tensor._from_op(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray, parts=tensors, ax=axis) -> None:
        for i, part in enumerate(parts):
            if part.requires_grad:
                part._accumulate(np.take(grad, i, axis=ax))

    return Tensor._from_op(data, tensors, backward)


def where(condition: np.ndarray, a: Arrayish, b: Arrayish) -> Tensor:
    """Differentiable selection: gradient flows to the chosen branch."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray, x=a, y=b, c=cond) -> None:
        if x.requires_grad:
            x._accumulate(grad * c)
        if y.requires_grad:
            y._accumulate(grad * (~c))

    return Tensor._from_op(data, (a, b), backward)

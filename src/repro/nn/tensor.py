"""A small reverse-mode automatic differentiation engine on numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper's algorithms need gradients of a loss with respect to *model
parameters* (for gradient matching) and with respect to *input pixels* (for
updating synthetic images), and this engine provides both.

The design is define-by-run: every operation on a :class:`Tensor` records a
closure that knows how to propagate the output gradient to its parents.
Calling :meth:`Tensor.backward` performs a topological sort of the recorded
graph and accumulates gradients into ``Tensor.grad``.

All data is kept in ``float32`` for parity with the deep-learning frameworks
the paper used.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "is_grad_enabled",
]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return _GRAD_ENABLED


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32``.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op")
    __array_priority__ = 100  # so ndarray + Tensor dispatches to Tensor

    def __init__(self, data, requires_grad: bool = False, *,
                 _parents: tuple["Tensor", ...] = (), _op: str = "leaf"):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents = _parents
        self.op = _op

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
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
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], op: str,
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=tuple(parents) if requires else (),
                     _op=op)
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        ``own=True`` is a caller promise that ``grad`` is a freshly computed
        array no one else references, letting the first accumulation adopt
        it directly instead of defensively copying (the seed engine copied
        every first gradient, doubling backward-pass memory traffic).
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if own and grad.dtype == np.float32 and grad.flags.writeable:
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Seed gradient. Defaults to 1.0, which requires this tensor to be
            a scalar.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.shape:
            raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack_nodes: list[tuple[Tensor, bool]] = [(self, False)]
        while stack_nodes:
            node, processed = stack_nodes.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack_nodes.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack_nodes.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), "add", backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g, own=True)

        return Tensor._make(-self.data, (self,), "neg", backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(-g, other.shape))

        return Tensor._make(data, (self, other), "sub", backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape), own=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape), own=True)

        return Tensor._make(data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape), own=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape),
                    own=True)

        return Tensor._make(data, (self, other), "div", backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("only scalar exponents are supported")
        exponent = float(exponent)
        data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1.0), own=True)

        return Tensor._make(data, (self,), "pow", backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data, own=True)

        return Tensor._make(data, (self,), "exp", backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data, own=True)

        return Tensor._make(data, (self,), "log", backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * 0.5 / data, own=True)

        return Tensor._make(data, (self,), "sqrt", backward)

    def relu(self) -> "Tensor":
        # np.maximum keeps float32 without a where+astype copy; the
        # backward mask is derived lazily from the retained input.
        source = self.data
        data = np.maximum(source, 0.0)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (source > 0), own=True)

        return Tensor._make(data, (self,), "relu", backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = g
            if not keepdims and axis is not None:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                grad = np.expand_dims(grad, tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(grad, self.shape).astype(np.float32),
                             own=True)

        return Tensor._make(data, (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True) if axis is not None else data
        mask = (self.data == expanded)
        # Split gradient equally among ties, matching numpy/torch semantics
        # closely enough for optimization purposes.
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()

        def backward(g: np.ndarray) -> None:
            grad = g
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate((mask / counts * grad).astype(np.float32), own=True)

        return Tensor._make(data, (self,), "max", backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(self.shape))

        return Tensor._make(data, (self,), "reshape", backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return Tensor._make(data, (self,), "transpose", backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        data = self.data[idx]

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, idx, g)
            self._accumulate(grad, own=True)

        return Tensor._make(data, (self,), "getitem", backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two axes of an NCHW tensor by ``padding``."""
        if padding == 0:
            return self
        p = int(padding)
        data = np.pad(self.data, ((0, 0), (0, 0), (p, p), (p, p)))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g[:, :, p:-p, p:-p])

        return Tensor._make(data, (self,), "pad2d", backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                if other.ndim == 1:
                    grad_self = np.outer(g, other.data) if self.ndim == 2 else g * other.data
                else:
                    grad_self = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(grad_self, dtype=np.float32),
                                              self.shape), own=True)
            if other.requires_grad:
                if self.ndim == 1:
                    grad_other = np.outer(self.data, g) if other.ndim == 2 else g * self.data
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(np.asarray(grad_other, dtype=np.float32),
                                               other.shape), own=True)

        return Tensor._make(data, (self, other), "matmul", backward)

    __matmul__ = matmul


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)

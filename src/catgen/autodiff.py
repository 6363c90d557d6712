"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the recorded graph once and accumulates
gradients into every reachable leaf. The tape is the graph itself: it lives
on the Tensors of one forward pass and is garbage-collected with them, so
there is no global mutable state and independent forward passes never
interact.

Only the operations the model actually needs are implemented. Each backward
rule is exercised against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import NotOnTapeError, ShapeMismatchError

_SQRT_2_OVER_PI = 0.7978845608028654


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node of the computation graph; holds a float64 array and its gradient."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = self.data + other.data

        def backward(g, a=self, b=other):
            if a.requires_grad:
                a.grad += _unbroadcast(g, a.shape)
            if b.requires_grad:
                b.grad += _unbroadcast(g, b.shape)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g, a=self):
            if a.requires_grad:
                a.grad += -g

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = self.data * other.data

        def backward(g, a=self, b=other):
            if a.requires_grad:
                a.grad += _unbroadcast(g * b.data, a.shape)
            if b.requires_grad:
                b.grad += _unbroadcast(g * a.data, b.shape)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        return self * (other ** -1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._lift(other) * (self ** -1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        e = float(exponent)
        data = self.data ** e

        def backward(g, a=self):
            if a.requires_grad:
                a.grad += g * e * a.data ** (e - 1.0)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self.data, other.data
        if a.ndim > 2 or b.ndim > 2:
            # batched matmul: leading dims must agree exactly
            if a.shape[:-2] != b.shape[:-2]:
                raise ShapeMismatchError(
                    f"batched matmul with differing batch dims {a.shape} @ {b.shape}"
                )
        data = a @ b

        def backward(g, x=self, y=other):
            if x.data.ndim == 1:  # vector @ matrix
                if x.requires_grad:
                    x.grad += y.data @ g
                if y.requires_grad:
                    y.grad += np.outer(x.data, g)
            elif y.data.ndim == 1:  # matrix @ vector
                if x.requires_grad:
                    x.grad += np.outer(g, y.data)
                if y.requires_grad:
                    y.grad += x.data.T @ g
            else:
                if x.requires_grad:
                    x.grad += g @ np.swapaxes(y.data, -1, -2)
                if y.requires_grad:
                    y.grad += np.swapaxes(x.data, -1, -2) @ g

        return Tensor._make(data, (self, other), backward)

    # -- reductions and reshapes -------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, a=self, ax=axis, kd=keepdims):
            if not a.requires_grad:
                return
            if ax is None:
                a.grad += np.broadcast_to(g, a.shape)
            else:
                gg = g if kd else np.expand_dims(g, ax)
                a.grad += np.broadcast_to(gg, a.shape)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(g, a=self):
            if a.requires_grad:
                a.grad += g.reshape(a.shape)

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(g, a=self, inv=tuple(inv)):
            if a.requires_grad:
                a.grad += g.transpose(inv)

        return Tensor._make(data, (self,), backward)

    def rows(self, start: int, stop: int) -> "Tensor":
        """Contiguous row slice along the first axis."""
        data = self.data[start:stop]

        def backward(g, a=self, s=start, e=stop):
            if a.requires_grad:
                a.grad[s:e] += g

        return Tensor._make(data, (self,), backward)

    # -- elementwise nonlinearities ----------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g, a=self, out=data):
            if a.requires_grad:
                a.grad += g * out

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g, a=self, out=data):
            if a.requires_grad:
                a.grad += g * (1.0 - out * out)

        return Tensor._make(data, (self,), backward)

    def clamp(self, lo: float, hi: float) -> "Tensor":
        data = np.clip(self.data, lo, hi)
        inside = (self.data >= lo) & (self.data <= hi)

        def backward(g, a=self, m=inside):
            if a.requires_grad:
                a.grad += g * m

        return Tensor._make(data, (self,), backward)

    # -- backward pass -------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor."""
        if self.data.size != 1:
            raise ShapeMismatchError("backward() requires a scalar loss")
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        for node in order:
            if node.requires_grad:
                node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g, parts=tuple(tensors), sizes=tuple(sizes), ax=axis):
        offset = 0
        for part, n in zip(parts, sizes):
            if part.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[ax] = slice(offset, offset + n)
                part.grad += g[tuple(idx)]
            offset += n

    return Tensor._make(data, tuple(tensors), backward)


def masked_softmax(logits: Tensor, blocked: np.ndarray) -> Tensor:
    """Softmax over the last axis with ``blocked`` entries forced to weight 0.

    ``blocked`` is broadcast against ``logits`` (1/True = no attention). Every
    row must keep at least one allowed entry. Blocked positions receive exactly
    zero weight and exactly zero gradient, which is what makes the causality
    guarantees of the attention mask bitwise rather than approximate.
    """
    blocked = np.broadcast_to(np.asarray(blocked, dtype=bool), logits.shape)
    if bool(blocked.all(axis=-1).any()):
        raise ShapeMismatchError("masked_softmax: some row has every key blocked")
    z = np.where(blocked, -np.inf, logits.data)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g, a=logits, s=out):
        if a.requires_grad:
            inner = (g * s).sum(axis=-1, keepdims=True)
            a.grad += s * (g - inner)

    return Tensor._make(out, (logits,), backward)


def gelu(x: Tensor) -> Tensor:
    """tanh-form GELU, composed from differentiable primitives."""
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))  # float pow is ~50x slower
    return 0.5 * x * (1.0 + inner.tanh())


def collect_tape(loss: Tensor) -> set[int]:
    """ids of every tensor reachable from ``loss`` (used for on-tape checks)."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return seen


def gradients(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of ``loss`` for each named parameter.

    Raises NotOnTapeError for any parameter the recorded forward computation
    never consumed.
    """
    tape = collect_tape(loss)
    missing = [name for name, p in params.items() if id(p) not in tape]
    if missing:
        raise NotOnTapeError(f"parameters not on tape: {', '.join(sorted(missing))}")
    loss.backward()
    return {name: p.grad.copy() for name, p in params.items()}

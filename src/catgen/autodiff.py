"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor is a float64 value that a gradient can flow through: it wraps an
ndarray and remembers the operation and operands that produced it. Every
constant is a plain ``np.ndarray``. The model's forward functions are written
once, with operations that a Tensor and an ndarray share. Training calls them
on Tensor parameters and gets a graph to differentiate; inference calls them
on arrays and gets the same numbers, element by element, without recording
anything. A Tensor meeting an ndarray in a binary operation wins
(``__array_ufunc__ = None`` makes numpy defer), so mixing the two gives a
Tensor. Only ``+`` and ``*`` have reflected forms: an array on the left of
``-`` or ``@`` raises ``TypeError``. ``concat``, ``masked_softmax`` and the
fused layers return an array when given only arrays. The tape is the graph
itself: it lives on the Tensors of one forward pass and is garbage-collected
with them, so there is no global mutable state and independent forward
passes never interact.

The model's layers are fused nodes: ``linear`` (``x @ w + b``),
``layer_norm`` and ``gelu`` each record one node with an analytic backward
rule, instead of one node per arithmetic step. Given no Tensor operand, each
returns straight after its ``isinstance`` checks, through the same numpy
arithmetic that a Tensor call applies to its data, so inference pays for no
tape work and gets bitwise the numbers training sees.

``gradients`` is the one walk, and the one place that decides where a
gradient flows. It is given a scalar loss and the leaves whose gradients are
wanted, and it visits only the nodes that lead to one of them, so the
branches that feed only other leaves are skipped. A wanted leaf accumulates
into its view of one flat array. An inner node's gradient array is made by
its first contribution: a fresh C-contiguous result is adopted as it is,
anything else is copied, so no two nodes share an array and each gradient
has the memory layout of its node's data. An inner node's gradient is
dropped as soon as its rule has passed it on.

Only the operations the model actually needs are implemented. Each backward
rule is exercised against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import NotOnTapeError, ShapeMismatchError

_SQRT_2_OVER_PI = 0.7978845608028654
_LN_EPS = 1e-5


def _accumulate(node: "Tensor", g) -> None:
    """Add the contribution ``g`` to ``node.grad``.

    The first contribution becomes the gradient array. It is adopted when it
    owns its memory and is C-contiguous like the node's data: backward rules
    pass an incoming gradient on only through views, so such an array was
    computed for this contribution alone. Anything else is copied into an
    array laid out like the node's data.
    """
    if node.grad is not None:
        node.grad += g
    elif (
        isinstance(g, np.ndarray) and g.flags.owndata and g.flags.c_contiguous
        and node.data.flags.c_contiguous and g.shape == node.data.shape
    ):
        node.grad = g
    else:
        node.grad = np.empty_like(node.data)
        node.grad[...] = g


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
    """A float64 value a gradient can flow through; a node of the computation graph."""

    __slots__ = ("data", "grad", "_parents", "_backward", "_needed")
    __array_ufunc__ = None  # ndarray <op> Tensor defers to the Tensor's reflected operator

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._needed = False  # set by each walk: does a requested gradient lie behind it

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        out._parents = tuple(parents)
        out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = self.data + other.data

        def backward(g, a=self, b=other):
            if a._needed:
                _accumulate(a, _unbroadcast(g, a.shape))
            if b._needed:
                _accumulate(b, _unbroadcast(g, b.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g, a=self):
            if a._needed:
                _accumulate(a, -g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-other)  # a constant's negation stays an array and records no node

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = self.data * other.data

        def backward(g, a=self, b=other):
            if a._needed:
                _accumulate(a, _unbroadcast(g * b.data, a.shape))
            if b._needed:
                _accumulate(b, _unbroadcast(g * a.data, b.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __pow__(self, exponent: float) -> "Tensor":
        e = float(exponent)
        data = self.data ** e

        def backward(g, a=self):
            if a._needed:
                _accumulate(a, g * e * a.data ** (e - 1.0))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeMismatchError(f"matmul takes matrices, got {a.shape} @ {b.shape}")
        if a.ndim > 2 or b.ndim > 2:
            # batched matmul: leading dims must agree exactly
            if a.shape[:-2] != b.shape[:-2]:
                raise ShapeMismatchError(
                    f"batched matmul with differing batch dims {a.shape} @ {b.shape}"
                )
        data = a @ b

        def backward(g, x=self, y=other):
            if x._needed:
                _accumulate(x, g @ np.swapaxes(y.data, -1, -2))
            if y._needed:
                _accumulate(y, np.swapaxes(x.data, -1, -2) @ g)

        return Tensor._make(data, (self, other), backward)

    # -- reductions and reshapes -------------------------------------------------

    def sum(self) -> "Tensor":
        def backward(g, a=self):
            if a._needed:
                _accumulate(a, np.broadcast_to(g, a.shape))

        return Tensor._make(self.data.sum(), (self,), backward)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(shape)

        def backward(g, a=self):
            if a._needed:
                _accumulate(a, g.reshape(a.shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        inv = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(g, a=self, inv=tuple(inv)):
            if a._needed:
                _accumulate(a, g.transpose(inv))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, key: slice) -> "Tensor":
        """Contiguous row slice along the first axis, ``t[start:stop]``."""
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise ShapeMismatchError("a Tensor is indexed by one contiguous row slice only")
        start, stop, _ = key.indices(self.data.shape[0])
        data = self.data[start:stop]

        def backward(g, a=self, s=start, e=stop):
            if a._needed:
                if a.grad is None:  # g covers rows s:e only
                    a.grad = np.zeros_like(a.data)
                a.grad[s:e] += g

        return Tensor._make(data, (self,), backward)

Operand = Tensor | np.ndarray  # what a forward function takes and gives back


def concat(tensors: list[Operand], axis: int = 0) -> Operand:
    """Join along ``axis``; an array if every part is one, else a Tensor."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g, parts=tuple(tensors), sizes=tuple(sizes), ax=axis):
        offset = 0
        for part, n in zip(parts, sizes):
            if part._needed:
                idx = [slice(None)] * g.ndim
                idx[ax] = slice(offset, offset + n)
                _accumulate(part, g[tuple(idx)])
            offset += n

    return Tensor._make(data, tuple(tensors), backward)


def masked_softmax(logits: Operand, blocked: np.ndarray) -> Operand:
    """Softmax over the last axis with ``blocked`` entries forced to weight 0.

    ``blocked`` is broadcast against ``logits`` (1/True = no attention). Every
    row must keep at least one allowed entry. Blocked positions receive exactly
    zero weight and exactly zero gradient, which is what makes the causality
    guarantees of the attention mask bitwise rather than approximate. Array
    logits give an array.
    """
    blocked = np.broadcast_to(np.asarray(blocked, dtype=bool), logits.shape)
    if bool(blocked.all(axis=-1).any()):
        raise ShapeMismatchError("masked_softmax: some row has every key blocked")
    z = np.where(blocked, -np.inf, as_array(logits))
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)
    if not isinstance(logits, Tensor):
        return out

    def backward(g, a=logits, s=out):
        if a._needed:
            inner = (g * s).sum(axis=-1, keepdims=True)
            _accumulate(a, s * (g - inner))

    return Tensor._make(out, (logits,), backward)


def _needs(x: Operand) -> bool:
    """Is ``x`` a Tensor that the running walk passes a gradient to."""
    return isinstance(x, Tensor) and x._needed


def _recorded(*operands: Operand) -> tuple[Tensor, ...]:
    """The Tensors among ``operands``: the parents of a fused node."""
    return tuple(t for t in operands if isinstance(t, Tensor))


def linear(x: Operand, w: Operand, b: Operand) -> Operand:
    """``x @ w + b`` as one node, for (rows, in) ``x``, (in, out) ``w`` and (out,) ``b``.

    Arrays give an array, by the same arithmetic, and no shape check.
    """
    if not (isinstance(x, Tensor) or isinstance(w, Tensor) or isinstance(b, Tensor)):
        return x @ w + b
    xd, wd, bd = as_array(x), as_array(w), as_array(b)
    if xd.ndim != 2 or wd.ndim != 2 or bd.ndim != 1:
        raise ShapeMismatchError(
            "linear takes (rows, in) @ (in, out) + (out,), "
            f"got {xd.shape} @ {wd.shape} + {bd.shape}"
        )

    def backward(g):
        if _needs(x):
            _accumulate(x, g @ wd.T)
        if _needs(w):
            _accumulate(w, xd.T @ g)
        if _needs(b):
            _accumulate(b, g.sum(axis=0))

    return Tensor._make(xd @ wd + bd, _recorded(x, w, b), backward)


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` centered and scaled to unit variance over its last axis, and the scale."""
    inv_n = 1.0 / x.shape[-1]  # means as sum * (1/n); ndarray.mean divides
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    scale = (var + _LN_EPS) ** -0.5
    return centered * scale, scale


def layer_norm(x: Operand, gain: Operand, bias: Operand) -> Operand:
    """Layer normalization over the last axis as one node; arrays give an array."""
    if not (isinstance(x, Tensor) or isinstance(gain, Tensor) or isinstance(bias, Tensor)):
        xhat, _ = _normalize(x)
        return xhat * gain + bias
    xhat, scale = _normalize(as_array(x))
    gd = as_array(gain)

    def backward(g):
        if _needs(x):
            gx = g * gd  # the gradient of xhat
            inv_n = 1.0 / gx.shape[-1]
            along = (gx * xhat).sum(axis=-1, keepdims=True) * inv_n
            gx -= gx.sum(axis=-1, keepdims=True) * inv_n
            gx -= xhat * along
            gx *= scale
            _accumulate(x, gx)
        if _needs(gain):
            _accumulate(gain, _unbroadcast(g * xhat, gain.shape))
        if _needs(bias):
            _accumulate(bias, _unbroadcast(g, bias.shape))

    return Tensor._make(xhat * gd + as_array(bias), _recorded(x, gain, bias), backward)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x)))  # float pow is ~50x slower


def gelu(x: Operand) -> Operand:
    """tanh-form GELU as one node; arrays give an array."""
    if not isinstance(x, Tensor):
        return 0.5 * x * (1.0 + _gelu_tanh(x))
    xd = x.data
    t = _gelu_tanh(xd)

    def backward(g):
        if x._needed:
            slope = _SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * (xd * xd))
            _accumulate(x, g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * slope))

    return Tensor._make(0.5 * xd * (1.0 + t), (x,), backward)


def as_array(x: Operand) -> np.ndarray:
    """The numbers of ``x``: a Tensor's data, or the array itself.

    An ndarray's own ``.data`` is a memoryview, so code that takes either
    reads values through this.
    """
    return x.data if isinstance(x, Tensor) else x


def collect_tape(loss: Tensor) -> dict[int, Tensor]:
    """Every tensor reachable from ``loss``, by id, each after all of its parents.

    Iterating the result in reverse gives the order in which a walk applies
    the backward rules; ``id(t) in tape`` tells whether ``t`` is on it.
    """
    tape: dict[int, Tensor] = {}
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            tape[id(node)] = node
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return tape


class Gradients(dict):
    """Gradients by parameter name, each a view into the one array ``flat``.

    The views lie in ``flat`` back to back, in the order the parameters were
    requested.
    """

    def __init__(self, flat: np.ndarray, views: dict[str, np.ndarray]):
        super().__init__(views)
        self.flat = flat


def gradients(loss: Tensor, params: dict[str, Tensor]) -> Gradients:
    """Exact reverse-mode gradients of the scalar ``loss`` for each named parameter.

    Each parameter's gradient accumulates straight into its view of one
    zeroed flat array, laid out in the order of ``params``. A node is visited
    only if a requested parameter lies behind it, and an inner node's
    gradient is dropped once its rule has run, so afterwards only the
    requested parameters hold one. Raises ShapeMismatchError for a loss that
    is not a scalar, and NotOnTapeError for any parameter the recorded
    forward computation never consumed.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"gradients need a scalar loss, got shape {loss.shape}")
    tape = collect_tape(loss)
    missing = [name for name, p in params.items() if id(p) not in tape]
    if missing:
        raise NotOnTapeError(f"parameters not on tape: {', '.join(sorted(missing))}")
    flat = np.zeros(sum(p.data.size for p in params.values()))
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, p in params.items():
        views[name] = flat[offset : offset + p.data.size].reshape(p.shape)
        offset += p.data.size
    into = {id(params[name]): view for name, view in views.items()}
    for node in tape.values():  # parents first, so their marks are set
        node.grad = into.get(id(node))
        node._needed = id(node) in into or any(p._needed for p in node._parents)
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:  # the loss is itself a requested parameter
        loss.grad[...] = 1.0
    for node in reversed(tape.values()):
        if node._needed and node._backward is not None:
            node._backward(node.grad)
            node.grad = None
    return Gradients(flat, views)

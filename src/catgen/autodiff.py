"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor is a float64 value that a gradient can flow through: it wraps an
ndarray and remembers the operation and operands that produced it. Every
constant is a plain ``np.ndarray``. The model's forward functions are written
once, with operations that a Tensor and an ndarray share. Training calls them
on Tensor parameters and gets a graph to differentiate; inference calls them
on arrays and gets the same numbers, element by element, without recording
anything. A Tensor meeting an ndarray in a binary operation wins
(``__array_ufunc__ = None`` makes numpy defer), so mixing the two gives a
Tensor. A Tensor's arithmetic is ``+`` and ``*``, each with a reflected
form; ``@``, ``-``, unary ``-`` and ``**`` on a Tensor raise ``TypeError``.
A node's parents are its Tensor operands only: an array or number operand
is data its backward rule keeps, never a node of the tape. Every Tensor
operand of ``+`` and ``*`` must have the result's shape, so no rule sums a
gradient back down; an array operand may still broadcast into it.
``concat`` and the fused layers return an array when given only
arrays; ``masked_softmax`` takes and gives arrays only. The tape is the graph
itself: it lives on the Tensors of one forward pass and is garbage-collected
with them, so there is no global mutable state and independent forward
passes never interact.

The model's layers and its loss terms are fused nodes: ``linear`` (``x @ w +
b``), ``layer_norm``, ``gelu``, ``attention`` and ``mse`` each record one
node with an analytic backward rule, instead of one node per arithmetic
step. ``attention`` is the one code that splits (rows, d) queries, keys and
values by head. Each layer computes its output once, on the operands'
numbers, and returns that array when no operand is a Tensor, else records
it as the node's data; so inference pays for no tape work and gets bitwise
the numbers training sees. ``mse`` takes a Tensor and a constant target.

Forward and backward arithmetic runs in place, but only in arrays the
function made itself: it never writes into an operand, an incoming
gradient, or an array that a backward rule reads later (a layer norm's
``xhat``, GELU's ``t``, attention's weights), so a tape can be walked
twice with the same result. Each element still sees the operations of the
plain expression in its order; operands are swapped only where IEEE
arithmetic commutes (``a * b`` for ``b * a``), never regrouped.

``gradients`` is the one walk, and the one place that decides where a
gradient flows. It is given a scalar loss and the leaves whose gradients are
wanted, and it visits only the nodes that lead to one of them, so the
branches that feed only other leaves are skipped. It returns one flat float64
array with the wanted leaves' gradients back to back, in the order they were
asked for; each wanted leaf accumulates into its view of that array and keeps
the view as its ``.grad``. An inner node's gradient is dropped as soon as its
rule has passed it on, so a rule may hand that gradient itself to one parent;
every other parent gets a view of it or an array computed for it alone. An
inner node's gradient array is made by its first contribution: an array that
owns its memory and is C-contiguous is adopted as it is, a view is copied, so
no two nodes share an array and each gradient has the memory layout of its
node's data.

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
    owns its memory and is C-contiguous like the node's data: a rule hands
    such an array to one parent only, either one computed for that parent
    or the rule's own gradient, which the walk drops once the rule has run;
    any other parent that gradient reaches gets a view. Anything else is
    copied into an array laid out like the node's data.
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


def _elementwise(data: np.ndarray, *operands) -> tuple["Tensor", ...]:
    """The Tensors among the operands of ``+`` or ``*``, each of which must
    have the shape of the result ``data``: only arrays broadcast."""
    parents = _recorded(*operands)
    if any(t.shape != data.shape for t in parents):
        raise ShapeMismatchError(f"Tensors of shapes {[t.shape for t in parents]} -> {data.shape}")
    return parents


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
        data = self.data + as_array(other)
        parents = _elementwise(data, self, other)

        def backward(g):
            for parent in parents:
                if parent._needed:
                    _accumulate(parent, g)
                    g = g[...]  # the first needed parent may keep g itself, the next a view

        return Tensor._make(data, parents, backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        od = as_array(other)
        data = self.data * od
        parents = _elementwise(data, self, other)

        def backward(g):
            if self._needed:
                _accumulate(self, g * od)
            if _needs(other):
                _accumulate(other, g * self.data)

        return Tensor._make(data, parents, backward)

    __rmul__ = __mul__

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


def concat(tensors: list[Operand]) -> Operand:
    """Join rows; an array if every part is one, else a Tensor."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors)
    parts = tuple(tensors)
    data = np.concatenate([as_array(t) for t in parts])

    def backward(g):
        offset = 0
        for part in parts:
            n = len(as_array(part))
            if _needs(part):
                _accumulate(part, g[offset : offset + n])
            offset += n

    return Tensor._make(data, _recorded(*parts), backward)


def masked_softmax(logits: np.ndarray, blocked: np.ndarray | None) -> np.ndarray:
    """Softmax over the last axis with ``blocked`` entries forced to weight 0.

    ``blocked`` is broadcast against ``logits`` (1/True = no attention), and
    None blocks nothing: that is the plain softmax. Every row must keep at
    least one allowed entry. Blocked positions receive exactly zero weight,
    and through ``attention``'s backward exactly zero gradient, which is what
    makes the causality guarantees of the attention mask bitwise rather than
    approximate.
    """
    if blocked is not None:
        blocked = np.broadcast_to(np.asarray(blocked, dtype=bool), logits.shape)
        if bool(blocked.all(axis=-1).any()):
            raise ShapeMismatchError("masked_softmax: some row has every key blocked")
        logits = np.where(blocked, -np.inf, logits)
    # the reductions are ndarray.max and ndarray.sum without their Python wrappers
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _needs(x: Operand) -> bool:
    """Is ``x`` a Tensor that the running walk passes a gradient to."""
    return isinstance(x, Tensor) and x._needed


def _recorded(*operands: Operand) -> tuple[Tensor, ...]:
    """The Tensors among ``operands``: the parents of a fused node."""
    return tuple(t for t in operands if isinstance(t, Tensor))


def linear(x: Operand, w: Operand, b: Operand | None = None) -> Operand:
    """``x @ w + b`` as one node, for (rows, in) ``x``, (in, out) ``w`` and (out,)
    ``b``; with no ``b``, ``x @ w``.

    Arrays give an array, and no shape check.
    """
    xd, wd, bd = as_array(x), as_array(w), as_array(b)
    recording = isinstance(x, Tensor) or isinstance(w, Tensor) or isinstance(b, Tensor)
    if recording and (xd.ndim != 2 or wd.ndim != 2 or (bd is not None and bd.ndim != 1)):
        raise ShapeMismatchError(
            "linear takes (rows, in) @ (in, out) + (out,), "
            f"got {xd.shape} @ {wd.shape} + {None if bd is None else bd.shape}"
        )
    out = xd @ wd
    if bd is not None:
        out += bd
    if not recording:
        return out

    def backward(g):
        if _needs(x):
            _accumulate(x, g @ wd.T)
        if _needs(w):
            _accumulate(w, xd.T @ g)
        if _needs(b):
            _accumulate(b, g.sum(axis=0))

    return Tensor._make(out, _recorded(x, w, b), backward)


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` centered and scaled to unit variance over its last axis, and the scale."""
    inv_n = 1.0 / x.shape[-1]  # means as sum * (1/n); ndarray.mean divides
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) * inv_n
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var *= inv_n
    var += _LN_EPS
    scale = var ** -0.5
    centered *= scale
    return centered, scale


def layer_norm(x: Operand, gain: Operand, bias: Operand) -> Operand:
    """Layer normalization over the last axis as one node, with a gain and a
    bias per feature; arrays give an array, and no shape check."""
    xd, gd, bd = as_array(x), as_array(gain), as_array(bias)
    recording = isinstance(x, Tensor) or isinstance(gain, Tensor) or isinstance(bias, Tensor)
    if recording and not gd.shape == bd.shape == xd.shape[-1:]:
        raise ShapeMismatchError(f"layer_norm of {xd.shape} with gain {gd.shape}, bias {bd.shape}")
    xhat, scale = _normalize(xd)
    out = xhat * gd
    out += bd
    if not recording:
        return out

    def backward(g):
        if _needs(x):
            gx = g * gd  # the gradient of xhat
            inv_n = 1.0 / gx.shape[-1]
            along = (gx * xhat).sum(axis=-1, keepdims=True) * inv_n
            gx -= gx.sum(axis=-1, keepdims=True) * inv_n
            gx -= xhat * along
            gx *= scale
            _accumulate(x, gx)
        rows = tuple(range(g.ndim - 1))  # a gain and a bias sum over every leading axis
        if _needs(gain):
            _accumulate(gain, (g * xhat).sum(axis=rows))
        if _needs(bias):
            _accumulate(bias, g.sum(axis=rows))

    return Tensor._make(out, _recorded(x, gain, bias), backward)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(sqrt(2/pi) * (x + 0.044715 * x³))``, built in one new array."""
    t = x * x
    t *= x  # x * x * x: float pow is ~50x slower
    t *= 0.044715
    t += x
    t *= _SQRT_2_OVER_PI
    return np.tanh(t, out=t)


def gelu(x: Operand) -> Operand:
    """tanh-form GELU, ``0.5 * x * (1 + t)``, as one node; arrays give an array."""
    xd = as_array(x)
    t = _gelu_tanh(xd)
    out = t + 1.0
    out *= xd * 0.5
    if not isinstance(x, Tensor):
        return out

    def backward(g):
        if x._needed:
            # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * slope), one product at a time
            slope = xd * xd
            slope *= 3.0 * 0.044715
            slope += 1.0
            slope *= _SQRT_2_OVER_PI
            part = t * t
            np.subtract(1.0, part, out=part)
            gx = xd * 0.5
            gx *= part
            gx *= slope
            np.add(t, 1.0, out=part)
            part *= 0.5
            gx += part
            gx *= g
            _accumulate(x, gx)

    return Tensor._make(out, (x,), backward)


def attention(
    q: Operand, k: Operand, v: Operand, blocked: np.ndarray | None, heads: int
) -> Operand:
    """Masked softmax attention of (rows, d) queries over (keys, d) keys and
    values, each head on its own d/heads columns, as one node; arrays give an
    array. ``blocked`` is (rows, keys), True where a query may not see a key:
    that key gets exactly zero weight from it, and so exactly zero gradient.
    ``blocked=None`` lets every query see every key."""
    qd, kd, vd = as_array(q), as_array(k), as_array(v)
    d = qd.shape[-1]
    recording = isinstance(q, Tensor) or isinstance(k, Tensor) or isinstance(v, Tensor)
    if recording and (qd.ndim != 2 or kd.shape != vd.shape or kd.shape[1:] != (d,) or d % heads):
        raise ShapeMismatchError(f"attention on {qd.shape}, {kd.shape}, {vd.shape}, {heads} heads")
    scale = 1.0 / np.sqrt(d // heads)

    def split(t: np.ndarray) -> np.ndarray:  # (n, d) -> (heads, n, d/heads), a view
        return t.reshape(len(t), heads, d // heads).transpose(1, 0, 2)

    def join(t: np.ndarray) -> np.ndarray:  # (heads, n, d/heads) -> a new (n, d)
        out = np.empty((t.shape[1], d))
        split(out)[...] = t
        return out

    qh, kh, vh = split(qd), split(kd), split(vd)
    logits = qh @ kh.transpose(0, 2, 1)
    logits *= scale
    weights = masked_softmax(logits, blocked)
    out = join(weights @ vh)
    if not recording:
        return out

    def backward(g):
        gh = np.ascontiguousarray(split(g))
        if _needs(v):
            _accumulate(v, join(weights.transpose(0, 2, 1) @ gh))
        if _needs(q) or _needs(k):
            gl = gh @ vh.transpose(0, 2, 1)  # the gradient of the weights, then of the logits
            inner = (gl * weights).sum(axis=-1, keepdims=True)
            gl -= inner
            gl *= weights
            gl *= scale
            if _needs(q):
                _accumulate(q, join(gl @ kh))
            if _needs(k):
                _accumulate(k, join((qh.transpose(0, 2, 1) @ gl).transpose(0, 2, 1)))

    return Tensor._make(out, _recorded(q, k, v), backward)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """The mean of ``(pred - target) ** 2`` as one node, summed and then scaled
    by ``1/n``; ``target`` is a constant, so only ``pred`` receives a gradient."""
    if pred.shape != np.shape(target):
        raise ShapeMismatchError(f"mse of shape {pred.shape} against {np.shape(target)}")
    diff = pred.data - target
    inv_n = 1.0 / diff.size

    def backward(g):
        if pred._needed:
            _accumulate(pred, (g * inv_n * 2.0) * diff)

    return Tensor._make((diff ** 2.0).sum() * inv_n, (pred,), backward)


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


def gradients(loss: Tensor, params: dict[str, Tensor]) -> np.ndarray:
    """Exact reverse-mode gradients of the scalar ``loss`` as one flat float64 array.

    The array holds each parameter's gradient back to back, in the order of
    ``params``; each parameter accumulates into its view of it and keeps the
    view as its ``.grad``. A node is visited only if a requested parameter
    lies behind it, and an inner node's gradient is dropped once its rule
    has run, so afterwards only the requested parameters hold one. Raises
    ShapeMismatchError for a loss that is not a scalar, and NotOnTapeError
    for any parameter the recorded forward computation never consumed.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"gradients need a scalar loss, got shape {loss.shape}")
    tape = collect_tape(loss)
    missing = [name for name, p in params.items() if id(p) not in tape]
    if missing:
        raise NotOnTapeError(f"parameters not on tape: {', '.join(sorted(missing))}")
    flat = np.zeros(sum(p.data.size for p in params.values()))
    into: dict[int, np.ndarray] = {}
    offset = 0
    for p in params.values():
        into[id(p)] = flat[offset : offset + p.data.size].reshape(p.shape)
        offset += p.data.size
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
    return flat

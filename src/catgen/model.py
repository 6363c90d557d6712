"""The causality-aware transformer: two-headed deterministic encoder,
masked-attention blocks, sinusoidal time embedding, noise-prediction head and
decoder.

Tokens are d-dimensional gene latents. A training forward pass consumes a
TokenBatch laid out as [condition | clean | noisy]. ``TokenBatch.assemble``
is the one code that writes its rows, one condition row per noisy token and
the time embedding added to the noisy rows only, and it derives each token's
signal level and the attention mask from the AR plan, so no caller builds
any of them. Conditions and clean tokens carry no positional identity, and
the output rows are the predicted noise for the noisy tokens.

Each forward function is written once and runs on either kind of parameter.
Its layers are the fused nodes of ``autodiff``: ``linear``, ``layer_norm``,
``gelu`` and ``attention``, one autodiff node each. Training passes
``CatParameters`` whose tensors are autodiff leaves, so gradients come
straight off the recorded forward computation; inference passes
``params.detached()``, plain ndarray views of the same buffer, and the same
functions then compute the same numbers on arrays without recording a graph.

One block loop serves three callers: training runs every row under the full
mask; ``context_cache`` appends one AR step of context rows [condition |
clean] to a request's ``ContextCache``; and a cached step runs only noisy
rows against that cache (KV caching, Pope et al. 2022). Context rows carry no
time embedding and see no later AR step, so the cache only grows, a request
computes each context row once, and an append or a cached step passes no
mask (``blocked=None``): where training uses a mask, generation uses the
cache. A cache keeps each block's keys and values as numbers in array
buffers, whichever parameters built it, so no gradient flows through cached
rows. The last block carries only the rows its caller reads: in training
every row still gives it keys and values, but only the noisy rows ask
queries and pass through its feed-forward and the noise head; an append
reads nothing but keys and values, so its last block computes only those.

Checkpoints are a small binary container: magic ``CATG``, a format version,
then length-prefixed named float64 tensors (little-endian); model shape and
training metadata travel as scalar ``meta.*`` tensors in the same container.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import tempfile
import typing
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .arplan import ARStepPlan
from .autodiff import Operand, Tensor, as_array, attention, concat, gelu, layer_norm, linear
from .diffusion import DiffusionSchedule
from .errors import (
    DataFormatError,
    NumericFailureError,
    ShapeMismatchError,
)
from .mask import build_mask

CHECKPOINT_MAGIC = b"CATG"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    p: int  # spatial feature dimension (spots per gene profile)
    q: int  # single-cell feature dimension (cells per gene profile)
    d: int = 64
    heads: int = 4
    blocks: int = 3

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ShapeMismatchError("feature dimensions must be positive")
        if self.d < 1 or self.heads < 1 or self.blocks < 1:
            raise ShapeMismatchError("latent width, heads and blocks must be positive")
        if self.d % self.heads != 0:
            raise ShapeMismatchError(f"d={self.d} not divisible by heads={self.heads}")


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, hidden = cfg.d, 4 * cfg.d
    shapes: dict[str, tuple[int, ...]] = {
        "e1.w1": (cfg.p, d), "e1.b1": (d,), "e1.w2": (d, d), "e1.b2": (d,),
        "e2.w1": (cfg.q, d), "e2.b1": (d,), "e2.w2": (d, d), "e2.b2": (d,),
        "time.w": (d, d), "time.b": (d,),
        "out.ln.g": (d,), "out.ln.b": (d,), "out.w": (d, d), "out.b": (d,),
        "dec.w1": (d, d), "dec.b1": (d,), "dec.w2": (d, cfg.p), "dec.b2": (cfg.p,),
        # fixed rescaling of encoder latents to unit spread; set after warmup,
        # never touched by the optimizer (diffusion assumes unit-scale data)
        "latent.scale": (),
    }
    for i in range(cfg.blocks):
        b = f"blk{i}"
        shapes.update({
            f"{b}.ln1.g": (d,), f"{b}.ln1.b": (d,),
            f"{b}.wq": (d, d), f"{b}.bq": (d,),
            f"{b}.wk": (d, d),
            f"{b}.wv": (d, d), f"{b}.bv": (d,),
            f"{b}.wo": (d, d), f"{b}.bo": (d,),
            f"{b}.ln2.g": (d,), f"{b}.ln2.b": (d,),
            f"{b}.ff.w1": (d, hidden), f"{b}.ff.b1": (hidden,),
            f"{b}.ff.w2": (hidden, d), f"{b}.ff.b2": (d,),
        })
    return shapes


# Order of the name groups in the flat buffer: warmup trains e1 to e2 and
# diffusion e2 to time, so each is one contiguous slice; latent.scale is
# never trained.
_LAYOUT = ("e1.", "dec.", "e2.", "blk", "out.", "time.", "latent.")


@functools.lru_cache(maxsize=8)
def _bounds(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """(start, stop) of each tensor in the flat buffer, in buffer order."""
    shapes = parameter_shapes(cfg)
    rank = {name: next(i for i, g in enumerate(_LAYOUT) if name.startswith(g)) for name in shapes}
    bounds, offset = {}, 0
    for name in sorted(shapes, key=rank.__getitem__):  # stable: parameter_shapes order within a group
        size = math.prod(shapes[name])
        bounds[name] = (offset, offset + size)
        offset += size
    return bounds


@functools.lru_cache(maxsize=8)
def _block_names(cfg: ModelConfig) -> tuple[dict[str, str], ...]:
    """Per block, each parameter's full name by its name within the block
    (``ln1.g`` for ``blk0.ln1.g``): forwards look names up, never format them."""
    names: tuple[dict[str, str], ...] = tuple({} for _ in range(cfg.blocks))
    for name in parameter_shapes(cfg):
        block, _, part = name.partition(".")
        if block.startswith("blk"):
            names[int(block[len("blk"):])][part] = name
    return names


def _views(cfg: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each tensor's view into ``flat``, in buffer order."""
    shapes = parameter_shapes(cfg)
    return {name: flat[a:b].reshape(shapes[name]) for name, (a, b) in _bounds(cfg).items()}


@dataclass
class CatParameters:
    """All model parameters, addressed by dotted name.

    One float64 buffer, ``flat``, holds every parameter; each is a view into
    it, so writing through one writes the buffer, and the optimizer updates
    a trainable set as one slice of it (``span``). The parameters are
    autodiff leaves, except in ``detached()``, where they are plain arrays.
    """

    cfg: ModelConfig
    flat: np.ndarray
    tensors: dict[str, Operand]

    @classmethod
    def from_flat(cls, cfg: ModelConfig, flat: np.ndarray) -> "CatParameters":
        """Trainable parameters whose tensors are views into ``flat``, in buffer order."""
        tensors = {name: Tensor(view) for name, view in _views(cfg, flat).items()}
        return cls(cfg=cfg, flat=flat, tensors=tensors)

    @classmethod
    def empty(cls, cfg: ModelConfig) -> "CatParameters":
        """Parameters over a new buffer whose values are not yet set. The buffer
        is sized from the 1- and 2-block layouts and allocated first, so a block
        count no machine can hold fails before any per-block structure is built."""
        one, two = (
            sum(map(math.prod, parameter_shapes(replace(cfg, blocks=n)).values())) for n in (1, 2)
        )
        size = one + (cfg.blocks - 1) * (two - one)
        if size * 8 > np.iinfo(np.intp).max:  # float64 entries beyond numpy's index range
            raise ShapeMismatchError(
                f"{cfg.blocks} blocks of width {cfg.d} are beyond the largest array numpy can index"
            )
        return cls.from_flat(cfg, np.empty(size))

    def __getitem__(self, name: str) -> Operand:
        return self.tensors[name]

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def span(self, names: list[str]) -> slice:
        """The slice of ``flat`` that holds exactly ``names``, given in buffer order."""
        bounds = _bounds(self.cfg)
        parts = [bounds[n] for n in names]
        if not parts or any(a[1] != b[0] for a, b in zip(parts, parts[1:])):
            raise ShapeMismatchError("names do not lie back to back in the parameter buffer")
        return slice(parts[0][0], parts[-1][1])

    def copy(self) -> "CatParameters":
        return CatParameters.from_flat(self.cfg, self.flat.copy())

    def detached(self) -> "CatParameters":
        """The same buffer as plain ndarray views: the inference form.

        Every forward function given these computes on arrays and returns
        arrays, the same numbers a call on the Tensor parameters holds in
        its ``.data``, and records no graph. They are views only, so a later
        write to the buffer reaches them.
        """
        return CatParameters(cfg=self.cfg, flat=self.flat, tensors=_views(self.cfg, self.flat))


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> CatParameters:
    """Fresh parameters; weights are drawn in ``parameter_shapes`` order."""
    params = CatParameters.empty(cfg)
    for name, shape in parameter_shapes(cfg).items():
        value = params[name].data
        leaf = name.rsplit(".", 1)[-1]
        if name == "latent.scale" or leaf == "g":
            value[...] = 1.0
        elif leaf.startswith("b"):
            value[...] = 0.0
        else:
            rng.standard_normal(out=value)
            value /= math.sqrt(shape[0])
    return params


# -- encoder / decoder -----------------------------------------------------------


def encode(x, head: str, params: CatParameters) -> Operand:
    """Map expression profiles deterministically into the shared latent space.

    ``head`` selects the spatial (``st``) or single-cell (``sc``) input head.
    """
    if head not in ("st", "sc"):
        raise ShapeMismatchError(f"unknown encoder head {head!r}")
    prefix = "e1" if head == "st" else "e2"
    expected = params.cfg.p if head == "st" else params.cfg.q
    if x.shape[-1] != expected:
        raise ShapeMismatchError(
            f"encoder head {head} expects feature dim {expected}, got {x.shape[-1]}"
        )
    hidden = gelu(linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def decode(latent, params: CatParameters) -> Operand:
    """Deterministic map from latent space back to the spatial feature space."""
    if latent.shape[-1] != params.cfg.d:
        raise ShapeMismatchError(f"decoder expects width {params.cfg.d}, got {latent.shape[-1]}")
    hidden = gelu(linear(latent, params["dec.w1"], params["dec.b1"]))
    return linear(hidden, params["dec.w2"], params["dec.b2"])


# -- transformer core ---------------------------------------------------------------


def sinusoidal_basis(ts: np.ndarray, d: int) -> np.ndarray:
    """Classic sin/cos timestep features with base 10000."""
    ts = np.asarray(ts, dtype=np.float64).reshape(-1, 1)
    half = d // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half, 1))
    angles = ts * freqs
    basis = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
    if basis.shape[1] < d:  # odd widths pad with a zero column
        basis = np.pad(basis, ((0, 0), (0, d - basis.shape[1])))
    return basis


class ContextCache(NamedTuple):
    """One request's context rows: each block's attention keys and values for
    the conditions and the finished groups, in the order they were appended.

    Keys and values are array buffers with room after ``rows``, whichever
    parameters built them: the next append, or a cached step, writes its own
    rows there. They hold numbers, not a recorded graph, so no gradient flows
    through them, not even to a recorded cached step's own keys and values.
    """

    keys: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    rows: int = 0

    def block(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Block i's key and value buffers as views that end after ``n`` more rows."""
        keys, values = self.keys[i], self.values[i]
        if self.rows + n > len(keys):
            raise ShapeMismatchError(f"cache has room for {len(keys) - self.rows} rows, not {n}")
        return keys[: self.rows + n], values[: self.rows + n]


def _attention(
    x: Operand,
    blocked: np.ndarray | None,
    block: int,
    params: CatParameters,
    prefix: tuple[np.ndarray, np.ndarray] | None = None,
    keep: int = 0,
) -> Operand:
    """Masked multi-head attention of the rows of ``x`` in block number ``block``.

    ``prefix`` holds views of a cache's key and value buffers whose last rows
    are x's: x's own keys and values are written there, as numbers, and
    attention runs over the whole views. Only the rows of ``x`` from ``keep``
    on ask queries, so the output has one row for each of them and
    ``blocked`` one row for each and one column per key; every row still
    gives a key and a value. ``blocked=None`` blocks nothing.
    """
    names = _block_names(params.cfg)[block]
    q = linear(x[keep:] if keep else x, params[names["wq"]], params[names["bq"]])
    # keys take no bias: it would shift a query's whole row of logits, which softmax ignores
    k = linear(x, params[names["wk"]])
    v = linear(x, params[names["wv"]], params[names["bv"]])
    if prefix is not None:  # cached context rows come first
        keys, values = prefix
        keys[len(keys) - x.shape[0] :] = as_array(k)
        values[len(values) - x.shape[0] :] = as_array(v)
        k, v = keys, values
    context = attention(q, k, v, blocked, params.cfg.heads)
    return linear(context, params[names["wo"]], params[names["bo"]])


def _blocks(
    x: Operand,
    blocked: np.ndarray | None,
    params: CatParameters,
    cache: ContextCache | None = None,
    keep: int = 0,
) -> Operand:
    """The transformer blocks, shared by every forward pass.

    ``blocked`` is the attention mask over the rows of ``x``, or None with a
    ``cache``: then each block's attention also sees that block's cached
    context keys and values, unmasked, and x's own are written right after
    ``cache.rows``. The last block carries only the rows its caller reads,
    those from ``keep`` on: every row still gives it keys and values, but
    only those rows ask queries and pass through its feed-forward. Returns
    those output rows.
    """
    last = params.cfg.blocks - 1
    for i, names in enumerate(_block_names(params.cfg)):
        prefix = None if cache is None else cache.block(i, x.shape[0])
        rows = keep if i == last else 0
        h = layer_norm(x, params[names["ln1.g"]], params[names["ln1.b"]])
        out = _attention(h, None if blocked is None else blocked[rows:], i, params, prefix, rows)
        x = (x[rows:] if rows else x) + out
        h = layer_norm(x, params[names["ln2.g"]], params[names["ln2.b"]])
        hidden = gelu(linear(h, params[names["ff.w1"]], params[names["ff.b1"]]))
        x = x + linear(hidden, params[names["ff.w2"]], params[names["ff.b2"]])
    return x


def context_cache(
    x, params: CatParameters, cache: ContextCache | None = None, room: int = 0
) -> ContextCache:
    """``cache`` with one AR step of context rows ``x`` appended.

    Context rows carry no time embedding and attend only to context rows
    before them and in their own step, so each appended row attends to every
    cached row and to the other rows of ``x``, and no later row changes its
    keys and values: a request computes each context row once. Nothing but
    those is read, so the last block computes only keys and values. Without
    ``cache`` the rows start a new cache, whose buffers leave room for
    ``room`` rows after x's, for every later append and for the rows of a
    cached step; Tensor parameters fill them with the same numbers as
    ``detached()`` ones.
    """
    n, d = x.shape
    if d != params.cfg.d:
        raise ShapeMismatchError(f"context rows of width {d} do not fit model width {params.cfg.d}")
    if cache is None:
        buffers = np.empty((2, params.cfg.blocks, n + room, d))
        cache = ContextCache(tuple(buffers[0]), tuple(buffers[1]))
    _blocks(x, None, params, cache, keep=n)
    return cache._replace(rows=cache.rows + n)


@dataclass
class TokenBatch:
    """Assembled token sequence: conditions, clean latents, then noisy latents.

    ``assemble`` is the one constructor and writes every row: ``tokens`` is
    every row fed to the transformer, one condition row per noisy token and
    noisy slots with their gene's condition and time embedding added in;
    ``noisy`` keeps the raw diffused latents x_t and ``alpha_bars`` their
    cumulative signal levels, which the noise head needs for its analytic
    skip connection; ``blocked`` is the attention mask over ``tokens``.

    A cached step carries ``context``: the keys and values of context rows
    that precede the sequence. Its tokens are then noisy rows only (a one-step
    plan), which attend to every cached row and to each other, so its
    ``blocked`` is None: nothing is masked.
    """

    tokens: Operand  # (seq, d), time embedding added to the noisy rows
    plan: ARStepPlan
    noisy: Operand  # (S, d) raw x_t per noisy token
    alpha_bars: np.ndarray  # (S,) cumulative signal level at each token's timestep
    blocked: np.ndarray | None  # (seq, seq), True = no attention; None in a cached step
    context: ContextCache | None = None

    @classmethod
    def assemble(
        cls,
        plan: ARStepPlan,
        x_t: Operand,
        cond: Operand,
        timesteps,
        schedule: DiffusionSchedule,
        params: CatParameters,
        clean: Operand | None = None,
        context: ContextCache | None = None,
        time_features: np.ndarray | None = None,
    ) -> "TokenBatch":
        """Lay out [cond | clean | x_t + cond + temb] for ``plan``.

        ``x_t`` is one noisy latent per gene token and ``cond`` that gene's
        condition latent: its condition row, also added into its noisy slot
        to tie the slot to its gene. ``clean`` holds the plan's ``v`` clean
        rows, and ``temb`` projects each token's sinusoidal timestep features
        (``time_features``, if the caller holds them) through ``params``.
        Signal levels are looked up from ``schedule`` at the 1-based
        timesteps. A cached step passes ``context`` and no clean rows; the
        cache must have room for its rows, its tokens are the noisy rows
        only, and it gets no mask.
        """
        timesteps = np.asarray(timesteps, dtype=np.int64)
        s, d = plan.S, params.cfg.d
        if timesteps.shape != (s,):
            raise ShapeMismatchError(f"need one timestep per noisy token, got {timesteps.shape}")
        if timesteps.min() < 1:
            raise ShapeMismatchError("timesteps are 1-based")
        if x_t.shape != (s, d) or cond.shape != x_t.shape:
            raise ShapeMismatchError(
                f"need ({s}, {d}) noisy and condition latents, got {x_t.shape} and {cond.shape}"
            )
        if context is not None and (clean is not None or plan.v):
            raise ShapeMismatchError("a cached step feeds noisy rows only")
        if context is None and getattr(clean, "shape", None) != (plan.v, d):
            raise ShapeMismatchError(f"the plan needs ({plan.v}, {d}) clean latents")
        if time_features is None:
            time_features = sinusoidal_basis(timesteps, d)
        noisy = x_t + cond + linear(time_features, params["time.w"], params["time.b"])
        return cls(
            tokens=noisy if context is not None else concat([cond, clean, noisy]),
            plan=plan,
            noisy=x_t,
            alpha_bars=schedule.alpha_bars[timesteps - 1],
            blocked=build_mask(s, plan) if context is None else None,
            context=context,
        )


def cat_forward(batch: TokenBatch, params: CatParameters) -> Operand:
    """Predicted noise for every noisy token, shape (S, d).

    The transformer predicts the bounded v-target and the noise estimate is
    assembled through the analytic skip

        eps_hat = sqrt(1 - abar_t) * x_t + sqrt(abar_t) * v_hat,

    so at high noise the reverse process contracts regardless of how far the
    chain state drifts, while v_hat carries the conditional signal. The
    blocks run on ``batch.tokens`` as assembled; with ``batch.context`` the
    noisy rows also attend to the cached context rows.
    """
    seq, d = batch.tokens.shape
    if d != params.cfg.d:
        raise ShapeMismatchError(f"token width {d} does not match model width {params.cfg.d}")
    if batch.context is not None and len(batch.context.keys) != params.cfg.blocks:
        raise ShapeMismatchError(
            f"cache holds {len(batch.context.keys)} blocks, model has {params.cfg.blocks}"
        )
    x = _blocks(batch.tokens, batch.blocked, params, batch.context, keep=seq - batch.plan.S)

    x = layer_norm(x, params["out.ln.g"], params["out.ln.b"])
    v_hat = linear(x, params["out.w"], params["out.b"])
    signal = batch.alpha_bars[:, None]
    pred = batch.noisy * np.sqrt(1.0 - signal) + v_hat * np.sqrt(signal)
    if not np.isfinite(as_array(pred)).all():
        raise NumericFailureError(
            f"non-finite activations in forward pass (max |token| = "
            f"{np.abs(as_array(batch.tokens)).max():.3e})"
        )
    return pred


# -- checkpoints ----------------------------------------------------------------------


# the model's shape travels as one scalar ``meta.<field>`` per ModelConfig field
_CONFIG_FIELDS: dict[str, type] = typing.get_type_hints(ModelConfig)


def _meta_tensors(cfg: ModelConfig, extra: dict[str, float]) -> dict[str, np.ndarray]:
    meta = {f"meta.{name}": int(getattr(cfg, name)) for name in _CONFIG_FIELDS}
    meta["meta.format"] = CHECKPOINT_VERSION
    for key, value in extra.items():
        meta[f"meta.{key}"] = float(value)
    return {k: np.asarray(v, dtype=np.float64) for k, v in meta.items()}


def save_checkpoint(params: CatParameters, path, extra_meta: dict[str, float] | None = None) -> None:
    """Write all tensors atomically (temp file + rename)."""
    entries = dict(params.detached().tensors)
    entries.update(_meta_tensors(params.cfg, extra_meta or {}))
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".catg.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(entries)))
            for name in sorted(entries):
                arr = np.asarray(entries[name], dtype="<f8")  # keeps 0-dim scalars 0-dim
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q" if arr.ndim else "<0Q", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[CatParameters, dict[str, float]]:
    """Read a checkpoint; rejects unknown format versions.

    The headers are read first, skipping each tensor's data; then every
    parameter's bytes are read straight into its view of a new buffer. Each
    length a header gives is checked against the bytes left in the file
    before anything is read or skipped, and ``meta.blocks`` against the
    file's tensor count before the model's shapes are listed. A name that
    is not UTF-8, a model field that is not a whole number and a missing or
    misshapen tensor raise DataFormatError before the buffer exists. A
    tensor the model does not have is skipped, such as the attention key
    biases ``blk*.bk`` of files written before keys lost their bias and the
    variational head ``enc_var.*`` of files written before the encoder
    became deterministic; so is a meta entry that is not a model field, such
    as their ``meta.variational``.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def room(count: int) -> int:  # count, if that many bytes are left in the file
            if count > end - fh.tell():
                raise DataFormatError(f"{path}: truncated checkpoint")
            return count

        if fh.read(room(4)) != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a CATG checkpoint")
        (version,) = struct.unpack("<I", fh.read(room(4)))
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", fh.read(room(4)))
        meta: dict[str, float] = {}
        found: dict[str, tuple[tuple[int, ...], int]] = {}  # name -> (shape, data offset)
        for _ in range(count):
            (name_len,) = struct.unpack("<I", fh.read(room(4)))
            try:
                name = fh.read(room(name_len)).decode("utf-8")
            except UnicodeDecodeError:
                raise DataFormatError(f"{path}: a tensor name is not UTF-8") from None
            (ndim,) = struct.unpack("<I", fh.read(room(4)))
            shape = struct.unpack(f"<{ndim}Q", fh.read(room(8 * ndim)))
            size = math.prod(shape)
            if name.startswith("meta."):
                if size != 1:
                    raise DataFormatError(f"{path}: {name} is not a scalar")
                (meta[name[len("meta."):]],) = struct.unpack("<d", fh.read(room(8)))
            else:
                found[name] = (shape, fh.tell())
                fh.seek(room(8 * size), os.SEEK_CUR)

        for name in _CONFIG_FIELDS:
            if name not in meta:
                raise DataFormatError(f"{path}: checkpoint missing meta.{name}")
            if not meta[name].is_integer():  # nor are NaN and the infinities
                raise DataFormatError(f"{path}: meta.{name} is {meta[name]!r}, not a whole number")
        cfg = ModelConfig(**{name: kind(meta[name]) for name, kind in _CONFIG_FIELDS.items()})
        if cfg.blocks > len(found):  # every block holds a tensor
            raise DataFormatError(
                f"{path}: meta.blocks is {cfg.blocks}, but the file holds {len(found)} tensors"
            )
        shapes = parameter_shapes(cfg)
        for name, shape in shapes.items():  # before allocating what the file may not hold
            if name not in found:
                raise DataFormatError(f"{path}: checkpoint missing tensor {name}")
            if found[name][0] != shape:
                raise DataFormatError(
                    f"{path}: tensor {name} has shape {found[name][0]}, expected {shape}"
                )
        params = CatParameters.empty(cfg)
        for name in shapes:
            fh.seek(found[name][1])
            fh.readinto(memoryview(params[name].data.reshape(-1)).cast("B"))
    if not np.little_endian:  # the file stores little-endian float64
        params.flat.byteswap(inplace=True)
    return params, meta

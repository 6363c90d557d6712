"""The causality-aware transformer: two-headed deterministic encoder,
masked-attention blocks, sinusoidal time embedding, noise-prediction head and
decoder.

Tokens are d-dimensional gene latents. A forward pass consumes a TokenBatch
laid out as [condition | clean | noisy], and ``TokenBatch.assemble`` is the
one code that writes that layout: training and generation hand it their
parts, and ``context_cache`` takes the same prefix parts. It looks up each
token's signal level and derives the attention mask from the AR plan and the
condition count, so no caller builds either. The time
embedding is added to noisy tokens only, conditions and clean tokens carry no
positional identity, and the output rows are the predicted noise for the
noisy tokens.

Each forward function is written once and runs on either kind of parameter.
Its layers are the fused nodes of ``autodiff``: ``linear``, ``layer_norm``
and ``gelu``, one autodiff node each. Training passes ``CatParameters``
whose tensors are autodiff leaves, so gradients come straight off the
recorded forward computation; inference passes ``params.detached()``, plain
ndarray views of the same buffer, and the same functions then compute the
same numbers on arrays without recording a graph.

One block loop serves three callers: training runs every row under the full
mask; ``context_cache`` runs the context rows [condition | clean] alone and
keeps each block's keys and values; and a cached step runs only noisy rows,
with those keys and values ahead of its own (KV caching, Pope et al. 2022).

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arplan import ARStepPlan
from .autodiff import Operand, Tensor, as_array, concat, gelu, layer_norm, linear, masked_softmax
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
        """Parameters over a new buffer whose values are not yet set."""
        return cls.from_flat(cfg, np.empty(max(stop for _, stop in _bounds(cfg).values())))

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
        its ``.data``, and records no graph.
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


def time_embedding(ts: np.ndarray, params: CatParameters) -> Operand:
    return linear(sinusoidal_basis(ts, params.cfg.d), params["time.w"], params["time.b"])


class ContextCache(NamedTuple):
    """Each block's attention keys and values, (heads, ctx, dh), for fixed context rows."""

    keys: tuple[Operand, ...]
    values: tuple[Operand, ...]

    @property
    def rows(self) -> int:
        return self.keys[0].shape[1]


def _attention(
    x: Operand,
    blocked: np.ndarray,
    block: str,
    params: CatParameters,
    prefix: tuple[Operand, Operand] | None = None,
) -> tuple[Operand, tuple[Operand, Operand]]:
    """Masked multi-head attention of the rows of ``x``.

    ``prefix`` holds cached keys and values of context rows that come before
    ``x``; they are placed ahead of x's own, and ``blocked`` then has one
    column per prefix row first. Returns the output and x's own keys and
    values, split by head.
    """
    heads, d = params.cfg.heads, params.cfg.d
    dh = d // heads
    length = x.shape[0]

    def split(t: Operand) -> Operand:
        return t.reshape(length, heads, dh).transpose(1, 0, 2)

    q = split(linear(x, params[f"{block}.wq"], params[f"{block}.bq"]))
    # keys take no bias: it would shift a query's whole row of logits, which softmax ignores
    own = (
        split(x @ params[f"{block}.wk"]),
        split(linear(x, params[f"{block}.wv"], params[f"{block}.bv"])),
    )
    k, v = own
    if prefix is not None:  # cached context rows come first
        k, v = concat([prefix[0], k], axis=1), concat([prefix[1], v], axis=1)
    logits = (q @ k.transpose(0, 2, 1)) * (1.0 / math.sqrt(dh))
    weights = masked_softmax(logits, blocked)
    context = (weights @ v).transpose(1, 0, 2).reshape(length, d)
    return linear(context, params[f"{block}.wo"], params[f"{block}.bo"]), own


def _blocks(
    x: Operand, blocked: np.ndarray, params: CatParameters, cache: ContextCache | None = None
) -> tuple[Operand, list[tuple[Operand, Operand]]]:
    """The transformer blocks, shared by every forward pass.

    With ``cache`` each block's attention also sees that block's cached
    context keys and values. Returns the output rows and, per block, the keys
    and values of the rows of ``x``.
    """
    own = []
    for i in range(params.cfg.blocks):
        b = f"blk{i}"
        prefix = None if cache is None else (cache.keys[i], cache.values[i])
        attended, kv = _attention(
            layer_norm(x, params[f"{b}.ln1.g"], params[f"{b}.ln1.b"]), blocked, b, params, prefix
        )
        own.append(kv)
        x = x + attended
        h = layer_norm(x, params[f"{b}.ln2.g"], params[f"{b}.ln2.b"])
        hidden = gelu(linear(h, params[f"{b}.ff.w1"], params[f"{b}.ff.b1"]))
        x = x + linear(hidden, params[f"{b}.ff.w2"], params[f"{b}.ff.b2"])
    return x, own


def context_cache(prefix, plan: ARStepPlan, params: CatParameters) -> ContextCache:
    """Every block's keys and values for the context rows [condition | clean].

    Context rows carry no time embedding and, under the causal mask, attend
    only to context rows, so their keys and values do not depend on any noisy
    row or timestep: one cache serves every reverse step of an AR group.
    ``prefix`` holds the context rows in parts, laid out as a TokenBatch lays
    out its own; ``plan`` is the group's plan (the finished groups, then the
    group still to generate), whose clean rows end the prefix.
    """
    tokens = concat(list(prefix), axis=0)
    rows = tokens.shape[0]
    c = rows - plan.v
    if tokens.shape[-1] != params.cfg.d or c < 0:
        raise ShapeMismatchError(
            f"context of shape {tokens.shape} does not fit plan {plan.to_text()} "
            f"and width {params.cfg.d}"
        )
    _, own = _blocks(tokens, build_mask(c, plan)[:rows, :rows], params)
    return ContextCache(keys=tuple(k for k, _ in own), values=tuple(v for _, v in own))


@dataclass
class TokenBatch:
    """Assembled token sequence: conditions, clean latents, then noisy latents.

    ``assemble`` is the one constructor. ``tokens`` is every row fed to the
    transformer (noisy slots carry their gene's condition added in);
    ``noisy`` keeps the raw diffused latents x_t and ``alpha_bars`` their
    cumulative signal levels, which the noise head needs for its analytic
    skip connection; ``blocked`` is the attention mask over ``tokens``.

    A cached step carries ``context``: the keys and values of context rows
    that precede the sequence. Its tokens are then noisy rows only (a one-step
    plan), which attend to every cached row and to each other.
    """

    tokens: Operand  # (seq, d), time embedding not yet applied
    plan: ARStepPlan
    timesteps: np.ndarray  # (S,) 1-based diffusion step per noisy token
    noisy: Operand  # (S, d) raw x_t per noisy token
    alpha_bars: np.ndarray  # (S,) cumulative signal level at each token's timestep
    blocked: np.ndarray  # (seq, context rows + seq), True = no attention
    context: ContextCache | None = None

    @classmethod
    def assemble(
        cls,
        plan: ARStepPlan,
        x_t: Operand,
        cond: Operand,
        timesteps,
        schedule: DiffusionSchedule,
        prefix=(),
        context: ContextCache | None = None,
    ) -> "TokenBatch":
        """Lay out [*prefix | x_t + cond] for ``plan``.

        ``prefix`` holds the condition rows, then the plan's ``v`` clean
        rows, in any number of parts; ``x_t`` is one noisy latent per gene
        token and ``cond`` that gene's condition latent, added in to tie the
        noisy slot to its gene. Each token's signal level is looked up from
        ``schedule`` at its 1-based timestep. A cached step passes
        ``context`` and no prefix rows.
        """
        timesteps = np.asarray(timesteps, dtype=np.int64)
        s = plan.S
        if timesteps.shape != (s,):
            raise ShapeMismatchError(f"need one timestep per noisy token, got {timesteps.shape}")
        if timesteps.min() < 1:
            raise ShapeMismatchError("timesteps are 1-based")
        if x_t.shape != (s, x_t.shape[-1]) or cond.shape != x_t.shape:
            raise ShapeMismatchError(
                f"need ({s}, d) noisy and condition latents, got {x_t.shape} and {cond.shape}"
            )
        ctx = sum(part.shape[0] for part in prefix)
        if context is not None and ctx:
            raise ShapeMismatchError("a cached step feeds noisy rows only")
        if ctx < plan.v:
            raise ShapeMismatchError("token batch layout does not match the plan")
        if context is None:
            blocked = build_mask(ctx - plan.v, plan)
        else:  # one step of noisy rows: each sees every cached row and every other row
            blocked = np.zeros((s, context.rows + s), dtype=bool)
        return cls(
            tokens=concat([*prefix, x_t + cond], axis=0) if prefix else x_t + cond,
            plan=plan,
            timesteps=timesteps,
            noisy=x_t,
            alpha_bars=schedule.alpha_bars[timesteps - 1],
            blocked=blocked,
            context=context,
        )


def cat_forward(batch: TokenBatch, params: CatParameters) -> Operand:
    """Predicted noise for every noisy token, shape (S, d).

    The transformer predicts the bounded v-target and the noise estimate is
    assembled through the analytic skip

        eps_hat = sqrt(1 - abar_t) * x_t + sqrt(abar_t) * v_hat,

    so at high noise the reverse process contracts regardless of how far the
    chain state drifts, while v_hat carries the conditional signal. With
    ``batch.context`` the noisy rows also attend to the cached context rows.
    """
    seq, d = batch.tokens.shape
    if d != params.cfg.d:
        raise ShapeMismatchError(f"token width {d} does not match model width {params.cfg.d}")
    if batch.context is not None and len(batch.context.keys) != params.cfg.blocks:
        raise ShapeMismatchError(
            f"cache holds {len(batch.context.keys)} blocks, model has {params.cfg.blocks}"
        )
    ctx = seq - batch.plan.S
    temb = time_embedding(batch.timesteps, params)
    x = batch.tokens + concat([np.zeros((ctx, d)), temb], axis=0)
    x, _ = _blocks(x, batch.blocked, params, batch.context)

    x = layer_norm(x, params["out.ln.g"], params["out.ln.b"])
    v_hat = linear(x, params["out.w"], params["out.b"])[ctx:seq]
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


def _read_exact(fh, count: int, path) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise DataFormatError(f"{path}: truncated checkpoint")
    return buf


def load_checkpoint(path) -> tuple[CatParameters, dict[str, float]]:
    """Read a checkpoint; rejects unknown format versions.

    The headers are read first, skipping each tensor's data; then every
    parameter's bytes are read straight into its view of a new buffer. A
    tensor the model does not have is skipped, such as the attention key
    biases ``blk*.bk`` of files written before keys lost their bias and the
    variational head ``enc_var.*`` of files written before the encoder
    became deterministic; so is a meta entry that is not a model field, such
    as their ``meta.variational``.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a CATG checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path))
        meta: dict[str, float] = {}
        found: dict[str, tuple[tuple[int, ...], int]] = {}  # name -> (shape, data offset)
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
            name = _read_exact(fh, name_len, path).decode("utf-8")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, path))
            shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, path)) if ndim else ()
            size = int(np.prod(shape)) if shape else 1
            if name.startswith("meta."):
                if size != 1:
                    raise DataFormatError(f"{path}: {name} is not a scalar")
                (meta[name[len("meta."):]],) = struct.unpack("<d", _read_exact(fh, 8, path))
            else:
                found[name] = (shape, fh.tell())
                fh.seek(8 * size, os.SEEK_CUR)
        if fh.tell() > os.fstat(fh.fileno()).st_size:
            raise DataFormatError(f"{path}: truncated checkpoint")

        for required in _CONFIG_FIELDS:
            if required not in meta:
                raise DataFormatError(f"{path}: checkpoint missing meta.{required}")
        cfg = ModelConfig(**{name: kind(meta[name]) for name, kind in _CONFIG_FIELDS.items()})
        params = CatParameters.empty(cfg)
        for name, shape in parameter_shapes(cfg).items():
            if name not in found:
                raise DataFormatError(f"{path}: checkpoint missing tensor {name}")
            if found[name][0] != shape:
                raise DataFormatError(
                    f"{path}: tensor {name} has shape {found[name][0]}, expected {shape}"
                )
            fh.seek(found[name][1])
            fh.readinto(memoryview(params[name].data.reshape(-1)).cast("B"))
    if not np.little_endian:  # the file stores little-endian float64
        params.flat.byteswap(inplace=True)
    return params, meta

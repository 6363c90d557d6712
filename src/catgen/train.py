"""Training: reconstruction warmup for the latent space, then the blended
autoregressive-diffusion objective.

Each diffusion step draws a fresh AR plan, noises every gene token at its own
sampled timestep, hands the noisy latents, their conditions and the clean
latents, once each, to ``TokenBatch.assemble``, which writes every row of
[condition | clean | noisy] under the causal mask, and minimizes
noise-prediction MSE. Clean tokens are never noised; conditions are never
noised either. The encoder is deterministic, so a gene's latent is a function
of its profile alone. The warmup phase trains the two encoder heads and the
decoder so the latent space is fixed before diffusion training starts; the
spatial head and decoder stay frozen afterwards so generation always decodes
from the space the model was trained in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .arplan import ARStepPlan, generate_ar_steps
from .autodiff import Tensor, gradients, mse
from .data import ExpressionMatrix, SplitAssignment
from .diffusion import (
    DiffusionSchedule,
    linear_schedule,
    noising_coefficients,
    parse_strategy,
    sample_timesteps,
)
from .errors import NumericFailureError, ShapeMismatchError
from .generate import generate_genes
from .granger import tested_pairs
from .metrics import pcc, score_rows
from .model import (
    CatParameters,
    ModelConfig,
    TokenBatch,
    cat_forward,
    decode,
    encode,
    init_params,
)

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_genes: int = 16
    lr: float = 2e-3
    ar_decay: float = 0.8
    sampling: str = "full"
    seed: int = 42
    T: int = 2000
    beta_start: float = 1e-4
    beta_end: float = 2e-2
    recon_epochs: int = 150
    recon_lr: float = 3e-3
    warmup_latent_noise: float = 0.25
    val_every: int = 1
    val_sampling: str = "frac:20"
    gene_order: str = "random"  # random | granger
    grad_clip: float = 1.0

    def __post_init__(self):
        if self.epochs < 0 or self.recon_epochs < 0:
            raise ShapeMismatchError("epoch counts must not be negative")
        # NaN fails every comparison; a grad_clip of 0 or less would turn clipping off
        if not all(0.0 < v < math.inf for v in (self.lr, self.recon_lr, self.grad_clip)):
            raise ShapeMismatchError("lr, recon_lr and grad_clip must be finite and positive")
        if not 0.0 <= self.warmup_latent_noise < math.inf:
            raise ShapeMismatchError("warmup_latent_noise must be finite and non-negative")
        if not 0.0 < self.ar_decay <= 1.0:
            raise ShapeMismatchError(f"ar_decay must be in (0, 1], got {self.ar_decay}")
        if self.gene_order not in ("random", "granger"):
            raise ShapeMismatchError(f"unknown gene_order {self.gene_order!r}")
        if self.batch_genes < 1 or self.val_every < 1:
            raise ShapeMismatchError("batch_genes and val_every must be at least 1")
        # the schedule's own check of T and the betas; T first, else the specs would be blamed
        linear_schedule(self.T, self.beta_start, self.beta_end)
        for spec in (self.sampling, self.val_sampling):
            parse_strategy(spec).check(self.T)


# values per block of Adam's update: 256 KiB of float64 per array, so the six
# arrays a block touches (m, v, gradient, values, two scratch) take 1.5 MiB
# and stay in cache from the block's first operation to its last
_ADAM_BLOCK = 32768


class Adam:
    """Adam with bias correction over one flat slice of parameters.

    ``m``, ``v`` and one step counter are made at the first step for the
    slice it is given; every later step must update a slice of that size.
    Each step computes Algorithm 1 of Kingma & Ba (2015) in the order their
    section 2 gives for efficiency: with ``alpha_t = lr * sqrt(1 - beta2^t) /
    (1 - beta1^t)`` and ``eps_hat = eps * sqrt(1 - beta2^t)``, the update is
    ``alpha_t * m / (sqrt(v) + eps_hat)``. That is Algorithm 1's ``lr * m_hat
    / (sqrt(v_hat) + eps)``, because ``sqrt(v_hat) + eps = (sqrt(v) +
    eps_hat) / sqrt(1 - beta2^t)``, with one square root and one division
    per value where Algorithm 1 takes a square root and three divisions.
    Every element still comes out bitwise as a per-tensor update in this
    order would give it. The slice is walked in blocks of ``_ADAM_BLOCK``
    values, and each block runs every operation of the update before the
    next block starts, through two block-sized scratch arrays; so the step
    makes no array after the first, and each block's arrays are read from
    memory once rather than once per operation.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._t = 0
        self._m = self._v = self._a = self._b = None  # m, v and two block-sized scratch arrays

    def step(self, values: np.ndarray, grad: np.ndarray) -> None:
        """Update ``values`` in place from its gradient ``grad`` (same shape)."""
        if self._m is None:
            self._m, self._v = np.zeros_like(grad), np.zeros_like(grad)
            self._a, self._b = (np.empty(min(grad.size, _ADAM_BLOCK)) for _ in range(2))
        elif grad.shape != self._m.shape:
            raise ShapeMismatchError(
                f"Adam state is for {self._m.size} values, got a gradient of {grad.size}"
            )
        self._t += 1
        fresh1, fresh2 = 1.0 - self.beta1, 1.0 - self.beta2
        root2 = math.sqrt(1.0 - self.beta2**self._t)
        alpha = self.lr * root2 / (1.0 - self.beta1**self._t)
        eps_hat = self.eps * root2
        for start in range(0, grad.size, _ADAM_BLOCK):
            block = slice(start, start + _ADAM_BLOCK)
            m, v, g, x = self._m[block], self._v[block], grad[block], values[block]
            a, b = self._a[: len(g)], self._b[: len(g)]
            m *= self.beta1
            m += np.multiply(g, fresh1, out=a)
            v *= self.beta2
            np.multiply(g, fresh2, out=a)
            v += np.multiply(a, g, out=a)
            np.sqrt(v, out=b)
            b += eps_hat
            np.multiply(m, alpha, out=a)
            x -= np.divide(a, b, out=a)


def clip_global_norm(grads: np.ndarray, max_norm: float) -> None:
    """Scale the flat gradient array ``grads`` in place to a norm of at most ``max_norm``.

    The squared norm is one reduction over ``grads``. It is ``einsum``'s
    own loop, not ``np.dot``: OpenBLAS splits a long dot product across its
    threads, so its last bits, and with them training, would depend on the
    BLAS thread count.
    """
    total = math.sqrt(np.einsum("i,i->", grads, grads))
    if total > max_norm > 0:
        grads *= max_norm / total


def _update(
    loss: Tensor, params: CatParameters, names: list[str], opt: Adam, max_norm: float
) -> None:
    """Backward walk, clipping and one Adam step on the buffer slice holding ``names``."""
    grads = gradients(loss, {n: params[n] for n in names})
    clip_global_norm(grads, max_norm)
    opt.step(params.flat[params.span(names)], grads)


def diffusion_trainable(params: CatParameters, cfg: TrainConfig) -> list[str]:
    """Names updated during diffusion training, in parameter-buffer order.

    The spatial head and decoder define the latent space diffusion runs in,
    so the warmup-fitted space stays frozen. ``cfg`` is not used; it stays
    because the benchmark's ``train`` workload passes it.
    """
    return [n for n in params.tensors if not n.startswith(("latent.", "e1.", "dec."))]


def warmup_trainable(params: CatParameters) -> list[str]:
    """The encoder heads and the decoder, in parameter-buffer order."""
    return [n for n in params.tensors if n.startswith(("e1.", "e2.", "dec."))]


def training_loss(
    st_values: np.ndarray,
    sc_values: np.ndarray,
    plan: ARStepPlan,
    token_ts: np.ndarray,
    eps: np.ndarray,
    params: CatParameters,
    schedule: DiffusionSchedule,
) -> Tensor:
    """Blended objective for one already-permuted gene batch: one ``mse`` node."""
    inv_scale = 1.0 / float(params["latent.scale"].data)
    z_st = encode(st_values, "st", params) * inv_scale
    z_sc = encode(sc_values, "sc", params) * inv_scale
    sqrt_ab, sqrt_om = noising_coefficients(schedule, token_ts)
    noised = z_st * sqrt_ab[:, None] + eps * sqrt_om[:, None]
    batch = TokenBatch.assemble(
        plan, noised, z_sc, token_ts, schedule, params, clean=z_st[: plan.v]
    )
    pred = cat_forward(batch, params)
    return mse(pred, eps)


def train_step(
    st_batch: np.ndarray,
    sc_batch: np.ndarray,
    params: CatParameters,
    cfg: TrainConfig,
    rng: np.random.Generator,
    schedule: DiffusionSchedule,
    opt: Adam,
    trainable: list[str] | None = None,
) -> tuple[CatParameters, float]:
    """One optimizer update on a gene batch; returns (params, loss value).

    Draw order per step is fixed (gene permutation, AR plan, one timestep per
    token, then diffusion noise; the forward pass draws nothing) so a given
    seed replays bit-identically.
    """
    st_batch = np.asarray(st_batch, dtype=np.float64)
    sc_batch = np.asarray(sc_batch, dtype=np.float64)
    if st_batch.shape[0] != sc_batch.shape[0]:
        raise ShapeMismatchError("ST and SC batches must cover the same genes")
    S = st_batch.shape[0]
    if cfg.gene_order == "random":
        perm = rng.permutation(S)
        st_batch, sc_batch = st_batch[perm], sc_batch[perm]
    plan = generate_ar_steps(S, cfg.ar_decay, rng)
    token_ts = sample_timesteps(schedule, parse_strategy(cfg.sampling), S, rng)
    eps = rng.standard_normal((S, params.cfg.d))

    loss = training_loss(st_batch, sc_batch, plan, token_ts, eps, params, schedule)
    value = loss.item()
    if not math.isfinite(value):
        raise NumericFailureError(
            f"non-finite training loss (plan {plan.to_text()}, "
            f"max |input| = {np.abs(st_batch).max():.3e})"
        )
    names = diffusion_trainable(params, cfg) if trainable is None else trainable
    _update(loss, params, names, opt, cfg.grad_clip)
    return params, value


def _warmup_step(
    st_batch: np.ndarray,
    sc_batch: np.ndarray,
    params: CatParameters,
    cfg: TrainConfig,
    rng: np.random.Generator,
    opt: Adam,
    trainable: list[str],
) -> float:
    """Autoencoder warmup: reconstruction, cross-modal alignment, and the
    single-cell-to-spatial regression path the conditions must support.

    Reconstruction runs through latents perturbed with Gaussian noise so the
    decoder learns to contract off-manifold directions; generated latents
    land near the manifold, never exactly on it. The loss adds four ``mse``
    nodes: decoding ``z_st``, ``z_st`` plus noise and ``z_sc`` plus noise, and
    ``z_sc`` against the constant ``z_st``.
    """
    z_st = encode(st_batch, "st", params)
    z_sc = encode(sc_batch, "sc", params)
    sigma = cfg.warmup_latent_noise * float(z_st.data.std())
    jitter = sigma * rng.standard_normal(z_st.shape)
    loss = mse(decode(z_st, params), st_batch)
    loss = loss + mse(decode(z_st + jitter, params), st_batch)
    loss = loss + mse(z_sc, z_st.data)
    loss = loss + mse(decode(z_sc + jitter, params), st_batch)
    value = loss.item()
    if not math.isfinite(value):
        raise NumericFailureError("non-finite warmup loss")
    _update(loss, params, trainable, opt, cfg.grad_clip)
    return value


@dataclass
class FitResult:
    params: CatParameters
    history: list[dict] = field(default_factory=list)
    best_val_pcc: float = float("nan")
    best_epoch: int = -1


def _granger_gene_order(st: ExpressionMatrix, genes: list[int]) -> list[int]:
    """Order genes by descending outgoing causal strength: each driver's
    largest ``test_pair`` F over its targets, degenerate pairs skipped. The
    batched ``f_statistics`` only choose which targets to test, those whose F,
    within its slack, could be the driver's largest, so the order is the
    exhaustive loop's."""

    def best(f: np.ndarray, slack: np.ndarray) -> np.ndarray:  # a degenerate pair's bound is 0
        return f + slack >= np.fmax(f - slack, 0.0).max(axis=1)[:, None]

    strength = dict.fromkeys(genes, 0.0)
    for (i, _), result in tested_pairs(st.subset_genes(genes), best, lag=1).items():
        strength[genes[i]] = max(strength[genes[i]], result.f_stat)
    return sorted(genes, key=lambda g: (-strength[g], g))


def _epoch_batches(
    train_genes: list[int], cfg: TrainConfig, rng: np.random.Generator
) -> list[list[int]]:
    """One epoch's gene batches: in the fixed granger order, or in a fresh
    permutation drawn from ``rng``."""
    order = train_genes if cfg.gene_order == "granger" else [
        train_genes[i] for i in rng.permutation(len(train_genes))
    ]
    return [order[i : i + cfg.batch_genes] for i in range(0, len(order), cfg.batch_genes)]


def fit(
    st: ExpressionMatrix,
    sc: ExpressionMatrix,
    split: SplitAssignment,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
) -> FitResult:
    """Warmup + diffusion training with per-epoch validation.

    Validation regenerates the held-out validation genes from the single-cell
    reference and scores mean per-gene correlation; the best-scoring
    parameters are retained.
    """
    if st.gene_ids != sc.gene_ids:
        raise ShapeMismatchError("fit expects matrices aligned on the same gene list")
    rng = np.random.default_rng(cfg.seed)
    schedule = linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
    params = init_params(model_cfg, rng)
    result = FitResult(params=params)

    train_genes = list(split.train_genes)
    val_genes = list(split.val_genes)
    if cfg.gene_order == "granger":
        train_genes = _granger_gene_order(st, train_genes)

    warmup_opt = Adam(cfg.recon_lr)
    warm_names = warmup_trainable(params)
    for epoch in range(cfg.recon_epochs):
        losses = [
            _warmup_step(st.values[b], sc.values[b], params, cfg, rng, warmup_opt, warm_names)
            for b in _epoch_batches(train_genes, cfg, rng)
        ]
        if epoch % 50 == 0:
            log.info("warmup epoch %d: recon loss %.5f", epoch, float(np.mean(losses)))

    # pin the diffusion substrate to unit spread (the noise head's analytic
    # skip assumes data at the same scale as the injected Gaussian noise)
    train_latents = encode(st.values[train_genes], "st", params.detached())
    params["latent.scale"].data[()] = max(float(train_latents.std()), 1e-6)
    log.info("latent scale set to %.4f", float(params["latent.scale"].data))

    opt = Adam(cfg.lr)
    trainable = diffusion_trainable(params, cfg)
    for epoch in range(cfg.epochs):
        losses = []
        for batch in _epoch_batches(train_genes, cfg, rng):
            _, value = train_step(
                st.values[batch], sc.values[batch], params, cfg, rng, schedule, opt, trainable
            )
            losses.append(value)
        row: dict = {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_pcc": float("nan")}
        if val_genes and (epoch + 1) % cfg.val_every == 0:
            row["val_pcc"] = _validation_pcc(st, sc, val_genes, params, schedule, cfg, epoch)
            if math.isnan(result.best_val_pcc) or row["val_pcc"] > result.best_val_pcc:
                result.params = params.copy()
                result.best_val_pcc, result.best_epoch = row["val_pcc"], epoch
        result.history.append(row)
        if epoch % 20 == 0:
            log.info(
                "epoch %d: loss %.5f val_pcc %s", epoch, row["train_loss"], row["val_pcc"]
            )
    return result


def _validation_pcc(
    st: ExpressionMatrix,
    sc: ExpressionMatrix,
    val_genes: list[int],
    params: CatParameters,
    schedule: DiffusionSchedule,
    cfg: TrainConfig,
    epoch: int,
) -> float:
    gene_ids = [st.gene_ids[i] for i in val_genes]
    predicted = generate_genes(
        sc,
        gene_ids,
        params,
        schedule,
        strategy=parse_strategy(cfg.val_sampling),
        seed=cfg.seed + epoch + 1,
    )
    (scores,) = score_rows(predicted.values, st.values[val_genes], [pcc])
    # an undefined PCC (constant early-training output) scores zero
    return float(np.mean([0.0 if math.isnan(s) else s for s in scores]))

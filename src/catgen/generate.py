"""Reverse-diffusion inference conditioned on single-cell latents.

Target genes are split into equal-width ordered groups (one group by default,
i.e. pure conditional diffusion). Each group starts from Gaussian noise in
latent space and is fully denoised before its finalized latents join the
clean context of later groups, so generation order mirrors the causal
structure the mask enforced during training. Every group runs on its own
seeded random stream derived from (seed, group index), which keeps earlier
groups bit-identical when later groups are re-seeded.

The context rows of a request are the conditions of all requested genes,
then the finalized latents of each finished group. They carry no time
embedding and see no later group, so their keys and values in every block
never change once computed. The noisy rows of finished groups are invisible
to later groups under the mask, so they are not fed at all. Work is done at
the outermost level it depends on:

- per request: ``params.detached()`` (plain array views of the model's
  parameter buffer), the condition latents, the AR plan, the sinusoidal
  features of every timestep of the reverse chain, the chain's step
  coefficients, which its schedule computes once (``reverse_coefficients``),
  and one context cache (``model.context_cache``) of the conditions, whose
  key and value buffers leave room for the latents of every group but the
  last and for one group's noisy rows;
- per group: its random stream and its one-step plan; a finished group but
  the last is appended to the cache, once, its last block computing keys
  and values only;
- per step: one forward of the current group's noisy rows only, laid out
  by ``TokenBatch.assemble``, with its keys and values written right after
  the cached rows, where the group's finished latents go later, then one
  reverse step. The step projects its timestep's features into the time
  embedding itself, over one copy per row: a table of projections would
  round differently for a one-row group, whose product takes BLAS's
  matrix-vector path.

This module stacks no rows for the model. Generation records no autodiff
graph; training runs the same model functions on Tensors.

Fractional sampling strategies denoise along their anchored timestep grid
using a respaced schedule whose cumulative signal levels match the base
schedule at every grid point, to rounding.
"""

from __future__ import annotations

import collections

import numpy as np

from .arplan import ARStepPlan
from .data import ExpressionMatrix
from .diffusion import DiffusionSchedule, Fractional, respaced_chain
from .errors import DataFormatError, ScheduleMismatchError, ShapeMismatchError, UnknownGeneError
from .model import (
    CatParameters,
    ContextCache,
    TokenBatch,
    cat_forward,
    context_cache,
    decode,
    encode,
    sinusoidal_basis,
)


def reverse_step(
    xt: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """One ancestral denoising step from t to t-1.

    Posterior mean mu = (x_t - beta_t / sqrt(1 - abar_t) * eps_hat) / sqrt(alpha_t);
    fresh noise scaled by the posterior variance
    beta_t * (1 - abar_{t-1}) / (1 - abar_t) is added except at the final step.
    The coefficients come from ``schedule.reverse_coefficients``.
    """
    xt = np.asarray(xt, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if xt.shape != eps_hat.shape:
        raise ShapeMismatchError(f"x_t {xt.shape} and eps_hat {eps_hat.shape} differ in shape")
    if not 1 <= t <= schedule.T:
        raise ShapeMismatchError(f"timestep {t} outside [1, {schedule.T}]")
    eps_coef, sqrt_alpha, std = schedule.reverse_coefficients
    mu = (xt - eps_coef[t - 1] * eps_hat) / sqrt_alpha[t - 1]
    if t == 1:
        return mu
    return mu + std[t - 1] * rng.standard_normal(xt.shape)


def equal_width_groups(n: int, groups: int) -> list[int]:
    """Split n >= 1 genes into at most ``groups`` >= 1 contiguous groups of near-equal size."""
    k = min(groups, n)
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def _group_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), index)))


def generate_genes(
    sc: ExpressionMatrix,
    target_genes,
    params: CatParameters,
    schedule: DiffusionSchedule,
    groups: int = 1,
    strategy: Fractional = Fractional(1),
    seed: int = 0,
    trained_T: int | None = None,
) -> ExpressionMatrix:
    """Generate spatial profiles for ``target_genes`` conditioned on ``sc``."""
    target_genes = list(target_genes)
    if not target_genes:
        raise ShapeMismatchError("no target genes requested")
    if groups < 1:
        raise ShapeMismatchError(f"need at least 1 AR group, got {groups}")
    if trained_T is not None and trained_T != schedule.T:
        raise ScheduleMismatchError(
            f"checkpoint was trained with T={trained_T}, schedule has T={schedule.T}"
        )
    index = sc.gene_index()
    missing = [g for g in target_genes if g not in index]
    if missing:
        raise UnknownGeneError(f"genes absent from the SC matrix: {', '.join(missing)}")
    repeated = [g for g, n in collections.Counter(target_genes).items() if n > 1]
    if repeated:
        raise DataFormatError(f"target genes requested more than once: {', '.join(repeated)}")

    frozen = params.detached()
    d = frozen.cfg.d
    scale = float(frozen["latent.scale"])
    rows = [index[g] for g in target_genes]
    # (S, d), deterministic; scaled with training's arithmetic, so bitwise its conditions
    cond = encode(sc.values[rows], "sc", frozen) * (1.0 / scale)

    plan = ARStepPlan(tuple(equal_width_groups(len(target_genes), groups)))
    grid, chain = respaced_chain(schedule, strategy)
    features = sinusoidal_basis(grid, d)  # row k - 1 holds step k's timestep features

    # room for every finished group but the last, then the last group's noisy rows
    context = context_cache(cond, frozen, room=plan.S)
    finalized: list[np.ndarray] = []
    for g, size in enumerate(plan.sz):
        rng = _group_rng(seed, g)
        lo, hi = plan.cs[g], plan.cs[g + 1]
        step = ARStepPlan((size,))
        x = rng.standard_normal((size, d))
        for k in range(len(grid), 0, -1):
            t_raw, row = int(grid[k - 1]), features[k - 1]
            eps_hat = _predict_noise(x, t_raw, row, schedule, cond[lo:hi], step, context, frozen)
            x = reverse_step(x, k, eps_hat, chain, rng)
        finalized.append(x)
        if g < plan.N - 1:
            context = context_cache(x, frozen, context)

    latents = np.vstack(finalized) * scale
    values = np.clip(decode(latents, frozen), 0.0, None)
    obs_ids = [f"spot{j}" for j in range(frozen.cfg.p)]
    return ExpressionMatrix(gene_ids=target_genes, obs_ids=obs_ids, values=values)


def _predict_noise(
    x: np.ndarray,
    t_raw: int,
    features: np.ndarray,
    schedule: DiffusionSchedule,
    cond: np.ndarray,
    step: ARStepPlan,
    context: ContextCache,
    frozen: CatParameters,
) -> np.ndarray:
    """CAT noise prediction for the current group's noisy latents ``x``.

    Only the group's own rows are fed: x_t plus each gene's condition latent,
    as the one AR step ``step``, so they attend to each other and to every
    row of ``context``, the cached keys and values of the condition and clean
    rows; the noisy rows of finished groups, which the mask hides from this
    group, are not fed. ``features`` are the sinusoidal features of ``t_raw``;
    every row gets its own copy, so the time projection is the product of as
    many rows as when the batch computes them.
    """
    size = x.shape[0]
    batch = TokenBatch.assemble(
        step, x, cond, np.full(size, t_raw), schedule, frozen, context=context,
        time_features=np.repeat(features[None], size, axis=0),
    )
    return cat_forward(batch, frozen)

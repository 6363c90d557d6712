"""Reverse diffusion: step algebra, chain determinism, AR-group causality."""

import numpy as np
import pytest

from catgen import autodiff
from catgen import generate as generate_module
from catgen.arplan import ARStepPlan
from catgen.autodiff import Tensor
from catgen.data import prepare_pair, split_genes
from catgen.diffusion import (
    DiffusionSchedule,
    Fractional,
    linear_schedule,
    parse_strategy,
    respaced_chain,
)
from catgen.errors import ScheduleMismatchError, ShapeMismatchError, UnknownGeneError
from catgen.generate import equal_width_groups, generate_genes, reverse_step
from catgen.model import ModelConfig, TokenBatch, cat_forward, context_cache, decode, encode
from catgen.synth import chain_config, generate
from catgen.train import TrainConfig, fit, training_loss

RNG = np.random.default_rng(0)


def test_reverse_step_recovers_x0_exactly_at_t1():
    schedule = linear_schedule(10)
    x0 = RNG.standard_normal((4, 6))
    eps = RNG.standard_normal((4, 6))
    ab1 = schedule.alpha_bars[0]
    x1 = np.sqrt(ab1) * x0 + np.sqrt(1 - ab1) * eps
    out = reverse_step(x1, 1, eps, schedule, np.random.default_rng(1))
    np.testing.assert_allclose(out, x0, atol=1e-10)


def test_reverse_step_noop_in_zero_beta_limit():
    schedule = DiffusionSchedule.from_betas(np.full(5, 1e-12), validate=False)
    xt = RNG.standard_normal((3, 4))
    eps_hat = RNG.standard_normal((3, 4))
    out = reverse_step(xt, 3, eps_hat, schedule, np.random.default_rng(2))
    np.testing.assert_allclose(out, xt, atol=1e-4)


def posterior_variance(schedule, t):
    """Reference beta_t * (1 - abar_{t-1}) / (1 - abar_t) of the step from t to t-1 > 0."""
    ab_prev = schedule.alpha_bars[t - 2]
    ab = schedule.alpha_bars[t - 1]
    return float(schedule.betas[t - 1] * (1.0 - ab_prev) / (1.0 - ab))


def test_reverse_step_variance_matches_posterior():
    schedule = linear_schedule(100)
    t = 60
    xt = RNG.standard_normal(8)
    eps_hat = RNG.standard_normal(8)
    rng = np.random.default_rng(3)
    draws = np.array([reverse_step(xt, t, eps_hat, schedule, rng) for _ in range(10_000)])
    target = posterior_variance(schedule, t)
    measured = draws.var(axis=0).mean()
    assert abs(measured - target) < 0.05 * target


def test_reverse_step_validation():
    schedule = linear_schedule(10)
    x = np.zeros((2, 3))
    with pytest.raises(ShapeMismatchError):
        reverse_step(x, 0, x, schedule, RNG)
    with pytest.raises(ShapeMismatchError):
        reverse_step(x, 11, x, schedule, RNG)
    with pytest.raises(ShapeMismatchError):
        reverse_step(x, 3, np.zeros((2, 2)), schedule, RNG)


def test_equal_width_groups():
    assert equal_width_groups(7, 1) == [7]
    assert equal_width_groups(7, 3) == [3, 2, 2]
    assert equal_width_groups(3, 5) == [1, 1, 1]
    assert equal_width_groups(4, 2) == [2, 2]


@pytest.fixture(scope="module")
def trained():
    st, sc, _ = generate(chain_config(n_genes=16, n_spots=8, n_cells=24, seed=2))
    pair = prepare_pair(st, sc, top_fraction=1.0, min_genes_sc=1, min_genes_st=1)
    split = split_genes(range(len(pair.genes)), seed=0)
    mcfg = ModelConfig(p=pair.st.n_obs, q=pair.sc.n_obs, d=8, heads=2, blocks=1)
    cfg = TrainConfig(epochs=3, recon_epochs=5, T=30, seed=1, batch_genes=8, val_every=100)
    result = fit(pair.st, pair.sc, split, mcfg, cfg)
    schedule = linear_schedule(30)
    return pair, result.params, schedule


def test_generate_shape_and_determinism(trained):
    pair, params, schedule = trained
    genes = pair.genes[:5]
    a = generate_genes(pair.sc, genes, params, schedule, seed=7)
    b = generate_genes(pair.sc, genes, params, schedule, seed=7)
    assert a.gene_ids == genes
    assert a.values.shape == (5, pair.st.n_obs)
    assert np.isfinite(a.values).all()
    assert (a.values >= 0).all()
    np.testing.assert_array_equal(a.values, b.values)
    c = generate_genes(pair.sc, genes, params, schedule, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_generate_unknown_gene(trained):
    pair, params, schedule = trained
    with pytest.raises(UnknownGeneError, match="NOPE"):
        generate_genes(pair.sc, ["NOPE"], params, schedule, seed=0)


def test_generate_schedule_mismatch(trained):
    pair, params, schedule = trained
    with pytest.raises(ScheduleMismatchError):
        generate_genes(pair.sc, pair.genes[:2], params, schedule, seed=0, trained_T=2000)


def test_generate_empty_request(trained):
    pair, params, schedule = trained
    with pytest.raises(ShapeMismatchError):
        generate_genes(pair.sc, [], params, schedule, seed=0)


def test_ar_group_causality_bitwise(trained, monkeypatch):
    """Re-seeding a later group leaves earlier groups' outputs bit-identical."""
    pair, params, schedule = trained
    genes = pair.genes[:6]

    def generate_with(group_seeds):
        monkeypatch.setattr(
            generate_module, "_group_rng",
            lambda seed, index: np.random.default_rng(group_seeds[index]),
        )
        return generate_genes(pair.sc, genes, params, schedule, groups=2)

    a = generate_with([11, 22])
    b = generate_with([11, 99])
    assert np.array_equal(a.values[:3], b.values[:3])
    assert not np.array_equal(a.values[3:], b.values[3:])


def test_multi_group_generation_runs(trained):
    """Groups of 2, 2 and 1 genes; the parameters and the SC matrix come out
    byte-identical."""
    pair, params, schedule = trained
    genes = pair.genes[:5]
    kept = params.flat.tobytes(), pair.sc.values.tobytes()
    out = generate_genes(pair.sc, genes, params, schedule, groups=3, seed=5)
    assert out.values.shape == (5, pair.st.n_obs)
    assert (params.flat.tobytes(), pair.sc.values.tobytes()) == kept


def test_fractional_inference_runs(trained):
    pair, params, schedule = trained
    genes = pair.genes[:4]
    out = generate_genes(pair.sc, genes, params, schedule, strategy=Fractional(5), seed=5)
    assert out.values.shape == (4, pair.st.n_obs)
    assert np.isfinite(out.values).all()


def test_frac_1_generates_bitwise_what_full_generates(trained):
    pair, params, schedule = trained
    genes = pair.genes[:5]
    full = generate_genes(pair.sc, genes, params, schedule, strategy=parse_strategy("full"), seed=3)
    frac = generate_genes(pair.sc, genes, params, schedule, strategy=parse_strategy("frac:1"), seed=3)
    assert np.array_equal(frac.values, full.values)


def test_generation_constructs_no_tensor(trained, monkeypatch):
    pair, params, schedule = trained
    made = []
    init = autodiff.Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(autodiff.Tensor, "__init__", counting)
    out = generate_genes(pair.sc, pair.genes[:4], params, schedule, groups=2, seed=1)
    assert out.values.shape == (4, pair.st.n_obs)
    assert made == []
    encode(pair.sc.values[:1], "sc", params)  # the counter sees a recorded forward
    assert made


def _full_sequence_generate(sc, genes, params, schedule, groups, strategy, seed):
    """Reference sampler without a context cache: every reverse step feeds the
    whole [c | v | S] layout of the accumulated plan, with zeros in the noisy
    slots of finished groups, and keeps only the current group's rows. It runs
    on the Tensor parameters, so it also checks the array forwards against
    the recorded ones."""
    d = params.cfg.d
    scale = float(params["latent.scale"].data)
    index = sc.gene_index()
    cond = encode(sc.values[[index[g] for g in genes]], "sc", params).data / scale
    sizes = equal_width_groups(len(genes), groups)
    grid, chain = respaced_chain(schedule, strategy)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    finalized = []
    for g, size in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence((seed, g)))
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        plan = ARStepPlan(tuple(sizes[: g + 1]))
        clean = np.vstack(finalized) if finalized else np.zeros((0, d))
        x = rng.standard_normal((size, d))
        for k in range(len(grid), 0, -1):
            t = int(grid[k - 1])
            raw = np.zeros((hi, d))
            raw[lo:hi] = x
            batch = TokenBatch.assemble(
                plan, Tensor(raw), cond[:hi], np.full(hi, t), schedule,
                prefix=(Tensor(cond), Tensor(clean)),
            )
            eps_hat = cat_forward(batch, params).data[lo:hi]
            x = reverse_step(x, k, eps_hat, chain, rng)
        finalized.append(x)
    return np.clip(decode(np.vstack(finalized) * scale, params).data, 0.0, None)


@pytest.mark.parametrize("strategy", [Fractional(1), Fractional(5)], ids=["full", "frac5"])
@pytest.mark.parametrize("groups", [1, 2, 3])
def test_cached_generation_matches_full_sequence(trained, groups, strategy):
    pair, params, schedule = trained
    genes = pair.genes[:7]
    out = generate_genes(pair.sc, genes, params, schedule, groups=groups, strategy=strategy, seed=4)
    ref = _full_sequence_generate(pair.sc, genes, params, schedule, groups, strategy, seed=4)
    assert np.abs(out.values - ref).max() <= 1e-12


def _formula_reverse_step(xt, t, eps_hat, schedule, rng):
    """The reverse step computed from the schedule's own arrays at step t."""
    beta, alpha, ab = schedule.betas[t - 1], schedule.alphas[t - 1], schedule.alpha_bars[t - 1]
    mu = (xt - (beta / np.sqrt(1.0 - ab)) * eps_hat) / np.sqrt(alpha)
    if t == 1:
        return mu
    var = beta * (1.0 - schedule.alpha_bars[t - 2]) / (1.0 - ab)
    return mu + np.sqrt(var) * rng.standard_normal(xt.shape)


def _stepwise_generate(sc, genes, params, schedule, groups, strategy, seed):
    """Reference group loop on the Tensor parameters, with nothing computed
    ahead of a step: each step embeds its own timestep, joins its keys and
    values to the recorded cache with ``concat``, projects q, k and v with
    three matmuls and takes the reverse step from the scalar formula."""
    d = params.cfg.d
    scale = float(params["latent.scale"].data)
    index = sc.gene_index()
    cond = encode(sc.values[[index[g] for g in genes]], "sc", params).data * (1.0 / scale)
    sizes = equal_width_groups(len(genes), groups)
    grid, chain = respaced_chain(schedule, strategy)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    finalized = []
    for g, size in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence((seed, g)))
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        context = context_cache((cond, *finalized), ARStepPlan(tuple(sizes[: g + 1])), params)
        x = rng.standard_normal((size, d))
        for k in range(len(grid), 0, -1):
            batch = TokenBatch.assemble(
                ARStepPlan((size,)), x, cond[lo:hi], np.full(size, grid[k - 1]), schedule,
                context=context,
            )
            x = _formula_reverse_step(x, k, cat_forward(batch, params).data, chain, rng)
        finalized.append(x)
    return np.clip(decode(np.vstack(finalized) * scale, params).data, 0.0, None)


@pytest.mark.parametrize("strategy", [Fractional(1), Fractional(5)], ids=["full", "frac5"])
@pytest.mark.parametrize("groups", [1, 2, 3, 7])  # 7: groups of one row each
def test_generation_matches_the_stepwise_reference_bitwise(trained, groups, strategy):
    pair, params, schedule = trained
    genes = pair.genes[:7]
    out = generate_genes(pair.sc, genes, params, schedule, groups=groups, strategy=strategy, seed=4)
    ref = _stepwise_generate(pair.sc, genes, params, schedule, groups, strategy, seed=4)
    assert np.array_equal(out.values, ref)


@pytest.mark.parametrize("strategy", [Fractional(1), Fractional(20)], ids=["full", "frac20"])
def test_reverse_coefficients_match_the_scalar_formula(strategy):
    """Every entry of the table equals the scalar arithmetic at its step, bitwise."""
    _, chain = respaced_chain(linear_schedule(2000), strategy)
    eps_coef, sqrt_alpha, std = chain.reverse_coefficients
    assert std[0] == 0.0
    for t in range(1, chain.T + 1):
        beta, alpha, ab = chain.betas[t - 1], chain.alphas[t - 1], chain.alpha_bars[t - 1]
        assert eps_coef[t - 1] == beta / np.sqrt(1.0 - ab)
        assert sqrt_alpha[t - 1] == np.sqrt(alpha)
        if t > 1:
            assert std[t - 1] == np.sqrt(beta * (1.0 - chain.alpha_bars[t - 2]) / (1.0 - ab))


def test_each_step_feeds_only_the_current_group(trained, monkeypatch):
    """Each step feeds the group's rows, and every step of a group shares
    one plan and one mask, which its context cache holds."""
    pair, params, schedule = trained
    fed, shared = [], []

    def recording(batch, frozen):
        rows = batch.tokens.shape[0]  # the key buffers hold the context rows, then these
        fed.append((rows, len(batch.context.keys[0]) - rows))
        shared.append((batch.plan, batch.blocked))
        return cat_forward(batch, frozen)

    monkeypatch.setattr(generate_module, "cat_forward", recording)
    genes = pair.genes[:7]
    generate_genes(pair.sc, genes, params, schedule, groups=3, strategy=Fractional(5), seed=4)
    steps = len(respaced_chain(schedule, Fractional(5))[0])
    # groups of 3, 2 and 2 genes; the context is the 7 conditions plus finished groups
    expected = [(3, 7)] * steps + [(2, 10)] * steps + [(2, 12)] * steps
    assert fed == expected
    for first in range(0, len(shared), steps):
        plan, blocked = shared[first]
        assert all(p is plan and b is blocked for p, b in shared[first : first + steps])
        rows, context_rows = fed[first]
        assert plan.sz == (rows,) and blocked.shape == (rows, context_rows + rows)
        assert not blocked.any()


def test_generation_conditions_on_the_latents_training_sees(trained, monkeypatch):
    """With a latent scale other than 1, the conditions generation hands to
    ``TokenBatch.assemble`` are bitwise the ones training hands it."""
    pair, params, schedule = trained
    params = params.copy()
    params["latent.scale"].data[()] = 0.37
    genes = pair.genes[:6]
    rows = [pair.genes.index(g) for g in genes]
    conds = []
    assemble = TokenBatch.assemble.__func__

    def recording(cls, plan, x_t, cond, *args, **kwargs):
        conds.append(np.array(getattr(cond, "data", cond)))
        return assemble(cls, plan, x_t, cond, *args, **kwargs)

    monkeypatch.setattr(TokenBatch, "assemble", classmethod(recording))
    generate_genes(pair.sc, genes, params, schedule, strategy=Fractional(5), seed=0)
    generated, conds[:] = conds[0], []
    S, d = len(genes), params.cfg.d
    training_loss(
        pair.st.values[rows], pair.sc.values[rows], ARStepPlan((S,)), np.full(S, 5),
        np.zeros((S, d)), params, schedule,
    )
    assert generated.tobytes() == conds[0].tobytes()

"""Training step and fit loop: objective structure, determinism, freezing."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from catgen import granger, train
from catgen.arplan import ARStepPlan, generate_ar_steps
from catgen.autodiff import Tensor, collect_tape, concat, gradients, linear, mse
from catgen.cli import THREAD_ENV
from catgen.data import ExpressionMatrix, split_genes
from catgen.diffusion import (
    DiffusionSchedule,
    candidate_grid,
    linear_schedule,
    noising_coefficients,
    parse_strategy,
    sample_timesteps,
)
from catgen.errors import ConfigError, ShapeMismatchError
from catgen.mask import build_mask
from catgen.metrics import pcc
from catgen.model import (
    ModelConfig,
    TokenBatch,
    cat_forward,
    encode,
    init_params,
    sinusoidal_basis,
)
from catgen.synth import chain_config, generate
from catgen.train import (
    Adam,
    TrainConfig,
    _granger_gene_order,
    _warmup_step,
    clip_global_norm,
    diffusion_trainable,
    fit,
    train_step,
    training_loss,
    warmup_trainable,
)
from catgen.data import prepare_pair


class ZeroNoiseRng:
    """Delegates to a real generator but returns zeros for normal draws.

    Realizes the edge case "target noise = 0": every diffusion epsilon is
    exactly zero.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, *args, **kwargs):
        return np.zeros_like(self._rng.standard_normal(*args, **kwargs))

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture(scope="module")
def tiny_setup():
    rng = np.random.default_rng(0)
    S, p, q = 8, 6, 10
    st = rng.uniform(0.1, 2.0, size=(S, p))
    sc = rng.uniform(0.1, 2.0, size=(S, q))
    mcfg = ModelConfig(p=p, q=q, d=8, heads=2, blocks=2)
    return st, sc, mcfg


def make_step_args(mcfg, cfg, seed=1):
    params = init_params(mcfg, np.random.default_rng(seed))
    schedule = linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
    opt = Adam(cfg.lr)
    return params, schedule, opt


def test_zero_noise_edge_loss_is_pure_prediction_power(tiny_setup):
    st, sc, mcfg = tiny_setup
    cfg = TrainConfig(T=5, seed=0, val_sampling="full")  # the default frac:20 needs T >= 20
    params = init_params(mcfg, np.random.default_rng(1))
    # beta ~ 0 edge schedule: x_t = x0 exactly when eps = 0
    schedule = DiffusionSchedule.from_betas(np.full(5, 1e-12), validate=False)
    opt = Adam(cfg.lr)
    rng = ZeroNoiseRng(3)
    losses = [
        train_step(st, sc, params, cfg, rng, schedule, opt)[1] for _ in range(60)
    ]
    # with target noise identically zero, loss = mean squared predicted noise
    assert losses[0] > 0
    assert np.mean(losses[-10:]) < 0.25 * losses[0]  # converges toward zero


def test_loss_decreases_on_frozen_batch(tiny_setup):
    st, sc, mcfg = tiny_setup
    cfg = TrainConfig(T=50, seed=0, lr=5e-3)
    params, schedule, opt = make_step_args(mcfg, cfg)
    rng = np.random.default_rng(4)
    # At T=50 every alpha_bar is >= 0.60, so within ~20 steps the noise head
    # learns to predict v ~ 0 and the loss sits on a plateau near 0.8 for
    # about 100 steps; getting below it needs each gene's latent pinned from
    # its condition, which takes hundreds of steps. Five 20-step blocks lie
    # on the plateau, so the window is 600 steps in five 120-step blocks.
    losses = []
    for _ in range(600):
        _, value = train_step(st, sc, params, cfg, rng, schedule, opt)
        losses.append(value)
    blocks = [np.mean(losses[i : i + 120]) for i in range(0, 600, 120)]
    assert all(a > b for a, b in zip(blocks, blocks[1:]))


def draw_token_timesteps(strategy, schedule, n_plans, seed, S=16, decay=0.8):
    """Per-token timesteps of many plans, drawn the way ``train_step`` draws them."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_plans):
        plan = generate_ar_steps(S, decay, rng)
        out.append(sample_timesteps(schedule, strategy, plan.S, rng))
    return np.concatenate(out)


def test_full_token_timesteps_are_marginally_uniform():
    schedule = linear_schedule(2000)
    ts = draw_token_timesteps(parse_strategy("full"), schedule, n_plans=4000, seed=11)
    assert ts.min() >= 1 and ts.max() <= schedule.T
    # 10 equal bins over [1, T]; chi-square with 9 degrees of freedom has its
    # 99.99th percentile near 33.7, and a fair draw exceeds 40 with
    # probability below 1e-5. A sampler that favours low-noise timesteps
    # (36% of tokens at t <= T/4) scores in the thousands here.
    counts = np.bincount((ts - 1) * 10 // schedule.T, minlength=10)
    expected = ts.size / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 40.0
    assert abs(ts.mean() - (schedule.T + 1) / 2) < 0.01 * (schedule.T + 1) / 2


def test_fractional_token_timesteps_stay_on_grid():
    schedule = linear_schedule(200)
    strategy = parse_strategy("frac:7")
    ts = draw_token_timesteps(strategy, schedule, n_plans=300, seed=12)
    assert np.isin(ts, candidate_grid(schedule, strategy)).all()


def test_deterministic_replay_bit_identical(tiny_setup):
    st, sc, mcfg = tiny_setup
    cfg = TrainConfig(T=20, seed=0)

    def run():
        params, schedule, opt = make_step_args(mcfg, cfg, seed=9)
        rng = np.random.default_rng(123)
        return [train_step(st, sc, params, cfg, rng, schedule, opt)[1] for _ in range(10)]

    assert run() == run()


def test_decoder_frozen_bitwise_when_not_trained(tiny_setup):
    st, sc, mcfg = tiny_setup
    cfg = TrainConfig(T=20, seed=0)
    params, schedule, opt = make_step_args(mcfg, cfg)
    before = {n: params[n].data.copy() for n in params.names() if n.startswith("dec.")}
    rng = np.random.default_rng(5)
    for _ in range(5):
        train_step(st, sc, params, cfg, rng, schedule, opt)
    for name, value in before.items():
        assert np.array_equal(params[name].data, value)


def test_loss_invariant_to_within_group_permutation(tiny_setup):
    st, sc, mcfg = tiny_setup
    params = init_params(mcfg, np.random.default_rng(2))
    schedule = linear_schedule(30)
    plan = ARStepPlan((3, 5))
    ts = np.array([4, 9, 2, 25, 18, 11, 30, 7])
    eps = np.random.default_rng(8).standard_normal((8, 8))

    base = training_loss(st, sc, plan, ts, eps, params, schedule).item()
    perm = np.array([2, 0, 1, 5, 3, 4, 7, 6])  # permutes within each AR group
    permuted = training_loss(
        st[perm], sc[perm], plan, ts[perm], eps[perm], params, schedule
    ).item()
    assert abs(base - permuted) < 1e-12


def reference_assemble_training_batch(z_st, z_sc, plan, token_ts, eps, schedule, params):
    """The training layout as the trainer once wrote it by hand: [z_sc | clean | noisy],
    with the time embedding added to the noisy rows."""
    sqrt_ab, sqrt_om = noising_coefficients(schedule, token_ts)
    noised = z_st * sqrt_ab[:, None] + Tensor(eps * sqrt_om[:, None])
    temb = linear(sinusoidal_basis(token_ts, params.cfg.d), params["time.w"], params["time.b"])
    tokens = concat([z_sc, z_st[: plan.v], noised + z_sc + temb])
    return TokenBatch(
        tokens=tokens,
        plan=plan,
        noisy=noised,
        alpha_bars=schedule.alpha_bars[token_ts - 1],
        blocked=build_mask(tokens.shape[0] - plan.v - plan.S, plan),
    )


def reference_training_loss(st_values, sc_values, plan, token_ts, eps, params, schedule):
    """``training_loss`` on the hand-written layout."""
    inv_scale = 1.0 / float(params["latent.scale"].data)
    batch = reference_assemble_training_batch(
        encode(st_values, "st", params) * inv_scale,
        encode(sc_values, "sc", params) * inv_scale,
        plan, token_ts, eps, schedule, params,
    )
    return mse(cat_forward(batch, params), eps)


def test_assembled_layout_matches_the_hand_written_reference():
    """Over 20 random plans, TokenBatch.assemble gives bitwise the reference
    tokens, noisy rows, signal levels and mask, and training_loss bitwise its
    value and gradients."""
    mcfg = ModelConfig(p=6, q=10, d=8, heads=2, blocks=2)
    cfg = TrainConfig(T=30, seed=0)
    params = init_params(mcfg, np.random.default_rng(4))
    params["latent.scale"].data[()] = 0.37
    schedule = linear_schedule(cfg.T)
    names = diffusion_trainable(params, cfg)
    rng = np.random.default_rng(20)
    for _ in range(20):
        S = int(rng.integers(1, 11))
        plan = generate_ar_steps(S, 0.8, rng)
        ts = rng.integers(1, cfg.T + 1, S)
        eps = rng.standard_normal((S, mcfg.d))
        z_st = Tensor(rng.standard_normal((S, mcfg.d)))
        z_sc = Tensor(rng.standard_normal((S, mcfg.d)))
        ref = reference_assemble_training_batch(z_st, z_sc, plan, ts, eps, schedule, params)
        sqrt_ab, sqrt_om = noising_coefficients(schedule, ts)
        noised = z_st * sqrt_ab[:, None] + Tensor(eps * sqrt_om[:, None])
        got = TokenBatch.assemble(plan, noised, z_sc, ts, schedule, params, clean=z_st[: plan.v])
        for a, b in ((got.tokens, ref.tokens), (got.noisy, ref.noisy)):
            assert a.data.tobytes() == b.data.tobytes()
        assert got.alpha_bars.tobytes() == ref.alpha_bars.tobytes()
        assert np.array_equal(got.blocked, ref.blocked)

        st_values = rng.uniform(0.1, 2.0, (S, mcfg.p))
        sc_values = rng.uniform(0.1, 2.0, (S, mcfg.q))
        losses = [
            loss_fn(st_values, sc_values, plan, ts, eps, params, schedule)
            for loss_fn in (training_loss, reference_training_loss)
        ]
        assert losses[0].item() == losses[1].item()
        grads = [gradients(loss, {n: params[n] for n in names}) for loss in losses]
        assert grads[0].tobytes() == grads[1].tobytes()


def test_trainable_sets(tiny_setup):
    _, _, mcfg = tiny_setup
    params = init_params(mcfg, np.random.default_rng(0))
    names = diffusion_trainable(params, TrainConfig())
    assert not any(n.startswith(("e1.", "dec.", "latent.")) for n in names)
    assert any(n.startswith("e2.") for n in names)
    warm = warmup_trainable(params)
    assert {n.split(".")[0] for n in warm} == {"e1", "e2", "dec"}
    assert set(names) | set(warm) == set(params.names()) - {"latent.scale"}


def test_clip_global_norm():
    flat = np.array([3.0, 4.0])
    clip_global_norm(flat, 1.0)
    np.testing.assert_allclose(np.linalg.norm(flat), 1.0)
    same = np.array([0.1])
    clip_global_norm(same, 1.0)
    np.testing.assert_array_equal(same, [0.1])


class ReferenceAdam:
    """Adam with its state kept per parameter name, in the efficient order of
    Kingma & Ba's section 2: the reference for the flat Adam."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m, self._v, self._t = {}, {}, {}

    def step(self, params, grads):
        for name, g in grads.items():
            m = self._m.setdefault(name, np.zeros_like(g))
            v = self._v.setdefault(name, np.zeros_like(g))
            t = self._t.get(name, 0) + 1
            self._t[name] = t
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            root2 = math.sqrt(1.0 - self.beta2**t)
            alpha = self.lr * root2 / (1.0 - self.beta1**t)
            params[name].data -= alpha * m / (np.sqrt(v) + self.eps * root2)


def reference_clip(grads, max_norm):
    """One sum of squares over every gradient, joined in the order of ``grads``."""
    joined = np.concatenate([g.ravel() for g in grads.values()])
    total = math.sqrt(np.einsum("i,i->", joined, joined))
    if total > max_norm > 0:
        scale = max_norm / total
        return {k: g * scale for k, g in grads.items()}, True
    return grads, False


@pytest.mark.parametrize("grad_clip", [1e-3, 1e3])
def test_flat_update_matches_per_tensor_reference(tiny_setup, monkeypatch, grad_clip):
    """30 warmup and 30 diffusion steps give bitwise the parameters of an
    unpruned walk, a clip over the gradients joined in buffer order and a
    per-tensor Adam."""
    st, sc, mcfg = tiny_setup
    cfg = TrainConfig(T=20, seed=0, grad_clip=grad_clip)
    clipped = []

    def reference_update(loss, params, names, opt, max_norm):
        tape = collect_tape(loss)  # every parameter on the tape, not only the trainable ones
        gradients(loss, {n: t for n, t in params.tensors.items() if id(t) in tape})
        grads, scaled = reference_clip({n: params[n].grad.copy() for n in names}, max_norm)
        clipped.append(scaled)
        opt.step(params, grads)

    def run(optimizer):
        params, schedule, _ = make_step_args(mcfg, cfg)
        rng = np.random.default_rng(7)
        warm_opt, opt = optimizer(cfg.recon_lr), optimizer(cfg.lr)
        losses = [
            _warmup_step(st, sc, params, cfg, rng, warm_opt, warmup_trainable(params))
            for _ in range(30)
        ]
        losses += [train_step(st, sc, params, cfg, rng, schedule, opt)[1] for _ in range(30)]
        return params, losses

    flat, flat_losses = run(Adam)
    with monkeypatch.context() as patched:
        patched.setattr(train, "_update", reference_update)
        ref, ref_losses = run(ReferenceAdam)
    assert clipped == [grad_clip < 1.0] * 60
    assert flat_losses == ref_losses
    for name in ref.names():
        assert np.array_equal(flat[name].data, ref[name].data), name


class WholeArrayAdam:
    """The flat Adam's update as whole-array passes, one operation over every
    value before the next: the reference for the blocked walk."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._t = 0
        self._m = None

    def step(self, values, grad):
        if self._m is None:
            self._m, self._v, self._a, self._b = (np.zeros_like(grad) for _ in range(4))
        self._t += 1
        m, v, a, b = self._m, self._v, self._a, self._b
        root2 = math.sqrt(1.0 - self.beta2**self._t)
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=a)
        v += np.multiply(a, grad, out=a)
        np.sqrt(v, out=b)
        b += self.eps * root2
        np.multiply(m, self.lr * root2 / (1.0 - self.beta1**self._t), out=a)
        values -= np.divide(a, b, out=a)


def test_blocked_adam_matches_whole_array_passes_bitwise():
    """About 2.5 blocks and a ragged tail, over 5 steps of varied gradients."""
    rng = np.random.default_rng(11)
    size = 2 * train._ADAM_BLOCK + train._ADAM_BLOCK // 2 + 37
    start = rng.standard_normal(size)
    blocked, whole = start.copy(), start.copy()
    opt, ref = Adam(3e-3), WholeArrayAdam(3e-3)
    for _ in range(5):
        grad = rng.standard_normal(size) * rng.uniform(1e-6, 10.0, size)
        kept = grad.copy()
        opt.step(blocked, grad)
        ref.step(whole, grad)
        assert np.array_equal(grad, kept)
        assert np.array_equal(blocked, whole)
    assert not np.array_equal(blocked, start)


def test_adam_matches_algorithm_1_of_kingma_and_ba():
    """20 steps on three tensors match Algorithm 1, written out per tensor, to
    rounding; the third tensor's gradients near 1e-9 leave eps to dominate
    the denominator, so a wrongly scaled eps_hat fails here."""
    lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(17)
    scales = {"a": 1.0, "b": 1e3, "tiny": 1e-9}
    shapes = {"a": (7, 5), "b": (40,), "tiny": (30,)}
    # the values start at 0, so each is the sum of its updates
    values = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    ref = {n: np.zeros(shape) for n, shape in shapes.items()}
    m = {n: np.zeros(shape) for n, shape in shapes.items()}
    v = {n: np.zeros(shape) for n, shape in shapes.items()}
    opt = Adam(lr, beta1, beta2, eps)
    for t in range(1, 21):
        grads = {n: scales[n] * rng.standard_normal(shape) for n, shape in shapes.items()}
        opt.step(values, np.concatenate([g.ravel() for g in grads.values()]))
        for n, g in grads.items():
            m[n] = beta1 * m[n] + (1.0 - beta1) * g
            v[n] = beta2 * v[n] + (1.0 - beta2) * g**2
            m_hat = m[n] / (1.0 - beta1**t)
            v_hat = v[n] / (1.0 - beta2**t)
            ref[n] = ref[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(
            values, np.concatenate([r.ravel() for r in ref.values()]), rtol=1e-12, atol=0
        )
    assert np.sqrt(v["tiny"] / (1.0 - beta2**20)).max() < eps / 3


_CLIP_IN_A_SUBPROCESS = """
import hashlib
import numpy as np
from catgen.train import clip_global_norm

flat = np.random.default_rng(5).standard_normal(166528) * 400.0
clip_global_norm(flat, 1.0)
print(hashlib.sha256(flat.tobytes()).hexdigest())
"""


def test_clip_norm_does_not_depend_on_the_blas_thread_count():
    """The squared norm is one reduction outside BLAS, whose dot product
    splits a long vector across threads; so one and two BLAS threads give a
    bit-equal clip, here on a vector of the benchmark model's size."""
    src = os.path.dirname(os.path.dirname(train.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src}
        env.update(dict.fromkeys(THREAD_ENV, threads))
        done = subprocess.run(
            [sys.executable, "-c", _CLIP_IN_A_SUBPROCESS], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


def test_adam_rejects_a_slice_of_another_size():
    opt = Adam(1e-3)
    opt.step(np.zeros(4), np.ones(4))
    with pytest.raises(ShapeMismatchError):
        opt.step(np.zeros(3), np.ones(3))


def test_train_config_validation():
    with pytest.raises(ShapeMismatchError):
        TrainConfig(epochs=-1)
    with pytest.raises(ShapeMismatchError):
        TrainConfig(recon_epochs=-1)
    with pytest.raises(ShapeMismatchError):
        TrainConfig(lr=0.0)
    with pytest.raises(ShapeMismatchError):
        TrainConfig(ar_decay=0.0)
    with pytest.raises(ShapeMismatchError):
        TrainConfig(gene_order="alphabetical")
    with pytest.raises(ShapeMismatchError):
        TrainConfig(val_every=0)
    with pytest.raises(ShapeMismatchError):
        TrainConfig(batch_genes=0)
    with pytest.raises(ConfigError):
        TrainConfig(sampling="adaptive")
    with pytest.raises(ConfigError):
        TrainConfig(val_sampling="frac:x")
    with pytest.raises(ShapeMismatchError, match="T must be >= 1"):
        TrainConfig(T=0)
    with pytest.raises(ShapeMismatchError, match="fractional n=21 outside"):
        TrainConfig(T=20, val_sampling="frac:21")
    for bad in (
        {"lr": math.nan}, {"recon_lr": math.inf}, {"recon_lr": -1.0},
        {"grad_clip": 0.0}, {"grad_clip": -1.0}, {"grad_clip": math.nan},
        {"warmup_latent_noise": -0.25}, {"warmup_latent_noise": math.nan},
        {"warmup_latent_noise": math.inf},
    ):
        with pytest.raises(ShapeMismatchError):
            TrainConfig(**bad)
    TrainConfig(warmup_latent_noise=0.0)  # a warmup without jitter


def test_batch_gene_count_mismatch(tiny_setup):
    st, sc, mcfg = tiny_setup
    cfg = TrainConfig(T=10, seed=0, val_sampling="full")  # the default frac:20 needs T >= 20
    params, schedule, opt = make_step_args(mcfg, cfg)
    with pytest.raises(ShapeMismatchError):
        train_step(st[:4], sc, params, cfg, np.random.default_rng(0), schedule, opt)


def prepared_dataset(n_genes=16, seed=0):
    st, sc, _ = generate(chain_config(n_genes=n_genes, n_spots=8, n_cells=24, seed=seed))
    pair = prepare_pair(st, sc, top_fraction=1.0, min_genes_sc=1, min_genes_st=1)
    split = split_genes(range(len(pair.genes)), seed=seed)
    return pair, split


def test_fit_zero_epochs_runs_the_warmup_only():
    pair, split = prepared_dataset()
    mcfg = ModelConfig(p=pair.st.n_obs, q=pair.sc.n_obs, d=8, heads=2, blocks=1)
    cfg = TrainConfig(epochs=0, recon_epochs=3, seed=3)
    result = fit(pair.st, pair.sc, split, mcfg, cfg)
    reference = init_params(mcfg, np.random.default_rng(3))
    assert result.history == [] and result.best_epoch == -1 and math.isnan(result.best_val_pcc)
    for name in reference.names():
        if name.startswith(("blk", "out.", "time.")):  # diffusion-only tensors
            np.testing.assert_array_equal(result.params[name].data, reference[name].data)
        elif name.startswith(("e1.", "e2.", "dec.")):  # the warmup's tensors
            assert not np.array_equal(result.params[name].data, reference[name].data), name
    assert float(result.params["latent.scale"].data) != 1.0


def test_fit_smoke_records_history_and_validates():
    pair, split = prepared_dataset()
    mcfg = ModelConfig(p=pair.st.n_obs, q=pair.sc.n_obs, d=8, heads=2, blocks=1)
    cfg = TrainConfig(
        epochs=4, recon_epochs=5, T=40, seed=3, batch_genes=6,
        val_every=2, val_sampling="frac:10",
    )
    result = fit(pair.st, pair.sc, split, mcfg, cfg)
    assert len(result.history) == 4
    assert all("train_loss" in row for row in result.history)
    validated = [row for row in result.history if not np.isnan(row["val_pcc"])]
    assert len(validated) == 2
    assert result.best_epoch in (1, 3)
    assert float(result.params["latent.scale"].data) != 1.0


def test_fit_granger_gene_order_runs():
    pair, split = prepared_dataset()
    mcfg = ModelConfig(p=pair.st.n_obs, q=pair.sc.n_obs, d=8, heads=2, blocks=1)
    cfg = TrainConfig(
        epochs=2, recon_epochs=2, T=20, seed=3, batch_genes=6,
        val_every=10, gene_order="granger",
    )
    result = fit(pair.st, pair.sc, split, mcfg, cfg)
    assert len(result.history) == 2


def test_granger_gene_order_ranks_drivers_by_their_strongest_f():
    pair, split = prepared_dataset()
    genes = list(split.train_genes)
    strength = dict.fromkeys(genes, 0.0)  # reference: the pairwise loop, written out
    for gi in genes:
        for gj in genes:
            if gi != gj:
                f_stat = granger.test_pair(pair.st.values[gi], pair.st.values[gj], lag=1).f_stat
                strength[gi] = max(strength[gi], f_stat)
    expected = sorted(genes, key=lambda g: (-strength[g], g))
    assert _granger_gene_order(pair.st, genes) == expected


def test_fit_requires_aligned_matrices():
    pair, split = prepared_dataset()
    other = ExpressionMatrix(
        [g + "_x" for g in pair.sc.gene_ids], pair.sc.obs_ids, pair.sc.values
    )
    mcfg = ModelConfig(p=pair.st.n_obs, q=pair.sc.n_obs, d=8, heads=2, blocks=1)
    with pytest.raises(ShapeMismatchError):
        fit(pair.st, other, split, mcfg, TrainConfig(epochs=1))


def test_validation_scores_a_constant_prediction_zero(monkeypatch):
    """An undefined PCC, from a constant early-training output, counts as 0."""
    rng = np.random.default_rng(4)
    st = ExpressionMatrix(
        gene_ids=["a", "b", "c", "d"], obs_ids=["s0", "s1", "s2", "s3", "s4"],
        values=rng.uniform(0.0, 3.0, (4, 5)),
    )
    predicted = rng.uniform(0.0, 3.0, (3, 5))
    predicted[1] = 1.5
    val_genes = [3, 0, 2]

    def fake_generate(sc, gene_ids, *args, **kwargs):
        assert gene_ids == ["d", "a", "c"]
        return ExpressionMatrix(gene_ids, list(st.obs_ids), predicted)

    monkeypatch.setattr(train, "generate_genes", fake_generate)
    got = train._validation_pcc(st, st, val_genes, None, None, TrainConfig(), 0)
    scores = [pcc(predicted[0], st.values[3]), 0.0, pcc(predicted[2], st.values[2])]
    assert got == float(np.mean(scores))

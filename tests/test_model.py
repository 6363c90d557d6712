"""CAT network: encoder/decoder contracts, masked attention causality,
gradient fidelity, checkpoint round-trips."""

import dataclasses
import math
import struct
import types

import numpy as np
import pytest

from catgen import model, train
from catgen.arplan import ARStepPlan
from catgen.autodiff import Tensor, as_array, concat, gradients, layer_norm, linear, mse
from catgen.diffusion import linear_schedule
from catgen.errors import DataFormatError, NotOnTapeError, ShapeMismatchError
from catgen.mask import build_mask
from catgen.model import (
    CatParameters,
    ModelConfig,
    TokenBatch,
    cat_forward,
    context_cache,
    decode,
    encode,
    init_params,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
    sinusoidal_basis,
)

RNG = np.random.default_rng(123)
SCHEDULE = linear_schedule(50)  # covers every timestep the tests draw


@pytest.fixture(scope="module")
def small():
    cfg = ModelConfig(p=6, q=9, d=8, heads=2, blocks=2)
    return cfg, init_params(cfg, np.random.default_rng(0))


def assemble(params, plan, cond, clean, noisy, timesteps):
    """[cond | clean | noisy + temb] for any number of condition rows: the
    layout of ``TokenBatch.assemble`` with only the time embedding added to
    the noisy slots."""
    temb = linear(sinusoidal_basis(timesteps, params.cfg.d), params["time.w"], params["time.b"])
    noisy = Tensor(noisy)
    return TokenBatch(
        tokens=concat([Tensor(cond), Tensor(clean), noisy + temb]),
        plan=plan,
        noisy=noisy,
        alpha_bars=SCHEDULE.alpha_bars[np.asarray(timesteps) - 1],
        blocked=build_mask(len(cond), plan),
    )


def make_batch(params, plan, c=None, rng=None, timesteps=None):
    """A batch of ``c`` condition rows (S by default) and random latents,
    with the parts it was built from: (cond, clean, noisy, timesteps)."""
    rng = rng or np.random.default_rng(7)
    d = params.cfg.d
    S = plan.S
    c = S if c is None else c
    v = S - plan.sz[-1]
    cond = rng.standard_normal((c, d))
    clean = rng.standard_normal((v, d))
    noisy = rng.standard_normal((S, d))
    ts = np.full(S, 3) if timesteps is None else timesteps
    return assemble(params, plan, cond, clean, noisy, ts), (cond, clean, noisy, ts)


def test_encode_deterministic_and_shapes(small):
    cfg, params = small
    x = RNG.standard_normal((4, cfg.p))
    a = encode(x, "st", params)
    b = encode(x, "st", params)
    np.testing.assert_array_equal(a.data, b.data)
    assert a.shape == (4, cfg.d)

    sc = encode(RNG.standard_normal((3, cfg.q)), "sc", params)
    assert sc.shape == (3, cfg.d)


def test_encode_zero_input_propagates_bias(small):
    cfg, params = small
    out = encode(np.zeros((1, cfg.p)), "st", params)
    hidden_bias = params["e1.b1"].data
    from catgen.autodiff import gelu

    expected = gelu(Tensor(hidden_bias)).data @ params["e1.w2"].data + params["e1.b2"].data
    np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)


def test_encode_dimension_mismatch(small):
    cfg, params = small
    with pytest.raises(ShapeMismatchError):
        encode(np.zeros((2, cfg.p + 1)), "st", params)
    with pytest.raises(ShapeMismatchError):
        encode(np.zeros((2, cfg.q)), "nope", params)


def test_decode_shapes_and_zero_latent(small):
    cfg, params = small
    out = decode(np.zeros((3, cfg.d)), params)
    assert out.shape == (3, cfg.p)
    assert (out.data == out.data[0]).all()  # bias-propagated constant rows
    with pytest.raises(ShapeMismatchError):
        decode(np.zeros((3, cfg.d + 1)), params)


def test_sinusoidal_basis_shape_and_range():
    basis = sinusoidal_basis(np.array([1, 10, 100]), 8)
    assert basis.shape == (3, 8)
    assert (np.abs(basis) <= 1.0).all()
    assert not np.array_equal(basis[0], basis[1])


def test_cat_forward_output_rows_are_noisy_positions(small):
    cfg, params = small
    plan = ARStepPlan((2, 3))
    batch, _ = make_batch(params, plan)
    out = cat_forward(batch, params)
    assert out.shape == (5, cfg.d)
    assert np.isfinite(out.data).all()


def test_condition_permutation_invariance(small):
    """Attention over condition tokens is set-like (no positional identity)."""
    cfg, params = small
    plan = ARStepPlan((4,))
    rng = np.random.default_rng(3)
    batch, (cond, clean, noisy, ts) = make_batch(params, plan, c=4, rng=rng)
    out = cat_forward(batch, params).data

    perm = np.array([2, 0, 3, 1])
    batch_p = assemble(params, plan, cond[perm], clean, noisy, ts)
    out_p = cat_forward(batch_p, params).data
    np.testing.assert_allclose(out, out_p, atol=1e-6)


def test_mask_causality_bitwise(small):
    """Noisy step i is bitwise invariant to clean tokens of steps >= i and
    noisy tokens of steps != i."""
    cfg, params = small
    rng = np.random.default_rng(17)
    for trial in range(25):
        S = int(rng.integers(2, 7))
        from catgen.arplan import generate_ar_steps

        plan = generate_ar_steps(S, 0.8, rng)
        if plan.N == 1:
            continue
        batch, (cond, clean, noisy, ts) = make_batch(params, plan, rng=rng)
        base = cat_forward(batch, params).data

        i = int(rng.integers(0, plan.N))
        lo, hi = plan.cs[i], plan.cs[i + 1]
        v = S - plan.sz[-1]

        clean2 = clean.copy()
        clean2[plan.cs[i] : v] += rng.standard_normal((v - plan.cs[i], cfg.d))
        noisy2 = noisy.copy()
        other = np.ones(S, dtype=bool)
        other[lo:hi] = False
        noisy2[other] += rng.standard_normal((other.sum(), cfg.d))

        batch2 = assemble(params, plan, cond, clean2, noisy2, ts)
        out2 = cat_forward(batch2, params).data
        assert np.array_equal(base[lo:hi], out2[lo:hi])


def _random_plan(N, rng):
    S = N + int(rng.integers(0, 6))
    cuts = np.sort(rng.choice(np.arange(1, S), N - 1, replace=False))
    return ARStepPlan(tuple(int(n) for n in np.diff([0, *cuts, S])))


def _cached_last_step(params, plan, cond, clean, noisy, timesteps):
    """The last AR step's noisy rows run against a cache of the context rows:
    the conditions, then the clean rows appended one AR step at a time."""
    v = clean.shape[0]
    context = context_cache(cond, params, room=plan.S)
    for lo, hi in zip(plan.cs[:-2], plan.cs[1:-1]):
        context = context_cache(clean[lo:hi], params, context)
    step = ARStepPlan((plan.S - v,))
    batch = TokenBatch.assemble(
        step, noisy[v:], np.zeros(noisy[v:].shape), timesteps[v:], SCHEDULE, params,
        context=context,
    )
    return as_array(cat_forward(batch, params))


def test_cached_step_matches_full_layout(small):
    """A cached step on arrays reproduces the last AR step's rows of the
    full-layout forward, which runs every context row under the full mask."""
    cfg, params = small
    frozen = params.detached()
    rng = np.random.default_rng(29)
    worst = 0.0
    for N in range(1, 5):
        for _ in range(6):
            plan = _random_plan(N, rng)
            S, v = plan.S, plan.S - plan.sz[-1]
            c = int(rng.choice([k for k in range(1, S + 4) if k != S]))
            ts = rng.integers(1, 50, S)
            batch, (cond, clean, noisy, _) = make_batch(params, plan, c=c, rng=rng, timesteps=ts)
            full = cat_forward(batch, params).data[v:]
            cached = _cached_last_step(frozen, plan, cond, clean, noisy, ts)
            assert cached.shape == full.shape
            worst = max(worst, float(np.abs(cached - full).max()))
    assert worst <= 1e-12


def _full_row_forward(batch, params):
    """``cat_forward`` with every row through every block and the head, and
    the noisy rows sliced off the end: the reference for the last block's
    pruned rows."""
    seq = batch.tokens.shape[0]
    x = model._blocks(batch.tokens, batch.blocked, params, keep=0)
    x = layer_norm(x, params["out.ln.g"], params["out.ln.b"])
    v_hat = linear(x, params["out.w"], params["out.b"])[seq - batch.plan.S :]
    signal = batch.alpha_bars[:, None]
    return batch.noisy * np.sqrt(1.0 - signal) + v_hat * np.sqrt(signal)


@pytest.mark.parametrize("blocks", [1, 2])
def test_last_block_on_the_noisy_rows_matches_the_full_row_forward(monkeypatch, blocks):
    """Predictions and every diffusion-trainable gradient of a training loss
    agree with the full-row forward's, on random plans with and without clean rows."""
    cfg = ModelConfig(p=6, q=9, d=8, heads=2, blocks=blocks)
    params = init_params(cfg, np.random.default_rng(blocks))
    names = train.diffusion_trainable(params, None)
    schedule = linear_schedule(50)
    rng = np.random.default_rng(31)
    plans = [ARStepPlan((1,)), ARStepPlan((5,))]  # N = 1, so no clean row
    plans += [_random_plan(int(rng.integers(1, 6)), rng) for _ in range(22)]
    assert sum(p.v == 0 for p in plans) >= 2 and sum(p.v > 0 for p in plans) >= 15
    for plan in plans:
        S = plan.S
        st, sc = rng.standard_normal((S, cfg.p)), rng.standard_normal((S, cfg.q))
        ts, eps = rng.integers(1, 51, S), rng.standard_normal((S, cfg.d))
        results = []
        for forward in (model.cat_forward, _full_row_forward):
            preds = []

            def recorded(batch, p, forward=forward):
                preds.append(forward(batch, p))
                return preds[0]

            with monkeypatch.context() as patched:
                patched.setattr(train, "cat_forward", recorded)
                loss = train.training_loss(st, sc, plan, ts, eps, params, schedule)
            gradients(loss, {n: params[n] for n in names})
            results.append((preds[0].data, {n: params[n].grad for n in names}))
        (pred, grads), (ref_pred, ref_grads) = results
        assert pred.shape == (S, cfg.d)
        assert np.abs(pred - ref_pred).max() <= 1e-12, plan
        for name in names:
            worst = np.abs(grads[name] - ref_grads[name]).max()
            assert worst <= 1e-12 * np.abs(ref_grads[name]).max(), (plan, name)


def test_only_the_last_block_drops_the_rows_nobody_reads(small, monkeypatch):
    """Each block's feed-forward GELU sees every row, but the last block's
    sees the noisy rows only; an append reads only keys and values, so its
    last block's feed-forward sees no row."""
    rows = []

    def counting(x):
        rows.append(as_array(x).shape[0])
        return gelu(x)

    gelu = model.gelu
    monkeypatch.setattr(model, "gelu", counting)
    cfg = ModelConfig(p=6, q=9, d=8, heads=2, blocks=3)
    params = init_params(cfg, np.random.default_rng(4))
    plan = ARStepPlan((2, 3, 2))
    batch, (cond, clean, _, _) = make_batch(params, plan, c=5)
    cat_forward(batch, params)
    assert rows == [5 + 5 + 7, 5 + 5 + 7, 7]
    rows.clear()
    frozen = params.detached()
    context = context_cache(cond, frozen, room=plan.S)
    context_cache(clean[:2], frozen, context)
    assert rows == [5, 5, 0, 2, 2, 0]


def test_cached_step_feeds_noisy_rows_only(small):
    cfg, params = small
    plan = ARStepPlan((2, 2))
    batch, (cond, clean, noisy, ts) = make_batch(params, plan, c=3)
    context = context_cache(clean, params, context_cache(cond, params, room=len(clean)))
    with pytest.raises(ShapeMismatchError, match="noisy rows only"):
        TokenBatch.assemble(
            plan, batch.noisy, np.zeros(noisy.shape), ts, SCHEDULE, params,
            clean=clean, context=context,
        )
    with pytest.raises(ShapeMismatchError, match=r"needs \(2, 8\) clean latents"):
        TokenBatch.assemble(plan, noisy, noisy, ts, SCHEDULE, params, clean=clean[:1])
    # a wrong latent width is caught before the noisy slots add the time embedding
    with pytest.raises(ShapeMismatchError, match=r"need \(4, 8\) noisy and condition latents"):
        TokenBatch.assemble(plan, noisy[:, 1:], noisy[:, 1:], ts, SCHEDULE, params, clean=clean)
    with pytest.raises(ShapeMismatchError, match="do not fit model width"):
        context_cache(cond[:, 1:], params)
    full = context_cache(cond, params.detached(), room=2)
    with pytest.raises(ShapeMismatchError, match="room for 2 rows, not 3"):
        context_cache(cond, params.detached(), full)


def test_appends_and_cached_steps_leave_earlier_context_rows_unchanged(small):
    """Each block's keys and values of a context row are written once: a
    later append, or a cached step, changes none of them."""
    cfg, params = small
    rng = np.random.default_rng(13)
    cond, steps = rng.standard_normal((4, cfg.d)), [rng.standard_normal((n, cfg.d)) for n in (2, 3)]
    noisy = rng.standard_normal((2, cfg.d))
    for p in (params.detached(), params):
        context = context_cache(cond, p, room=7)
        for rows in steps:
            kept = [part[: context.rows].copy() for part in context.keys + context.values]
            context = context_cache(rows, p, context)
            batch = TokenBatch.assemble(
                ARStepPlan((2,)), noisy, np.zeros(noisy.shape), np.full(2, 9), SCHEDULE, p,
                context=context,
            )
            cat_forward(batch, p)
            for old, part in zip(kept, context.keys + context.values):
                assert np.array_equal(part[: len(old)], old)


def test_a_cache_holds_numbers_whichever_parameters_built_it(small):
    """Tensor parameters build a cache of plain array buffers, bitwise those
    of ``detached()`` up to ``rows``; a recorded cached step writes even its
    own rows' keys into them as numbers, so no gradient reaches ``wk``."""
    cfg, params = small
    rng = np.random.default_rng(17)
    cond, clean, noisy = (rng.standard_normal((n, cfg.d)) for n in (4, 3, 2))
    recorded, buffered = (
        context_cache(clean, p, context_cache(cond, p, room=5)) for p in (params, params.detached())
    )
    assert recorded.rows == buffered.rows == 7
    for tensor_built, array_built in zip(
        recorded.keys + recorded.values, buffered.keys + buffered.values
    ):
        assert type(tensor_built) is np.ndarray
        assert np.array_equal(tensor_built[:7], array_built[:7])

    batch = TokenBatch.assemble(
        ARStepPlan((2,)), Tensor(noisy), np.zeros(noisy.shape), np.full(2, 9), SCHEDULE, params,
        context=recorded,
    )
    loss = mse(cat_forward(batch, params), np.zeros(noisy.shape))
    assert np.abs(gradients(loss, {"blk0.wq": params["blk0.wq"]})).max() > 0
    with pytest.raises(NotOnTapeError, match="blk0.wk"):
        gradients(loss, {"blk0.wk": params["blk0.wk"]})


def test_all_finite_for_bounded_inputs(small):
    cfg, params = small
    plan = ARStepPlan((3,))
    rng = np.random.default_rng(5)
    d = cfg.d
    big = 1e3 * rng.standard_normal((3, d))
    cond = 1e3 * rng.standard_normal((3, d))
    batch = assemble(params, plan, cond, np.zeros((0, d)), big, np.full(3, 7))
    out = cat_forward(batch, params)
    assert np.isfinite(out.data).all()


def test_gradients_match_finite_differences(small):
    """Every parameter of the d=8, H=2, 2-block model against central differences.

    The diffusion loss does not reach the decoder, so a reconstruction term
    through ``decode`` is added to cover it."""
    cfg, params = small
    from catgen.train import training_loss

    schedule = linear_schedule(20)
    rng = np.random.default_rng(2)
    S = 4
    st = rng.standard_normal((S, cfg.p))
    sc = rng.standard_normal((S, cfg.q))
    plan = ARStepPlan((2, 2))
    ts = np.array([3, 9, 14, 20])
    eps = rng.standard_normal((S, cfg.d))

    def objective():
        diffusion = training_loss(st, sc, plan, ts, eps, params, schedule)
        recon = decode(encode(st, "st", params), params)
        return diffusion + mse(recon, st)

    def value():
        return objective().item()

    loss = objective()
    names = [n for n in params.names() if n != "latent.scale"]
    gradients(loss, {n: params[n] for n in names})

    h = 1e-4
    checked = 0
    for name in names:
        flat = params[name].data.reshape(-1)
        sample = np.linspace(0, flat.size - 1, min(4, flat.size)).astype(int)
        for idx in sample:
            orig = flat[idx]
            flat[idx] = orig + h
            up = value()
            flat[idx] = orig - h
            down = value()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            ad = params[name].grad.reshape(-1)[idx]
            assert abs(fd - ad) <= 1e-7 + 1e-4 * max(abs(fd), abs(ad)), (name, idx, fd, ad)
            checked += 1
    assert checked > 100


def test_array_forwards_match_tensor_forwards_bitwise():
    """On ``detached()`` each forward gives arrays equal to the Tensor call's ``.data``."""
    # a width of 12 makes 1/n inexact, so a mean that divides would differ
    cfg = ModelConfig(p=6, q=9, d=12, heads=3, blocks=2)
    params = init_params(cfg, np.random.default_rng(3))
    frozen = params.detached()
    rng = np.random.default_rng(5)

    def same(array_out, tensor_out):
        assert type(array_out) is np.ndarray and isinstance(tensor_out, Tensor)
        assert np.array_equal(array_out, tensor_out.data)

    for head, width in (("st", cfg.p), ("sc", cfg.q)):
        x = rng.standard_normal((5, width))
        same(encode(x, head, frozen), encode(x, head, params))
    latent = rng.standard_normal((3, cfg.d))
    same(decode(latent, frozen), decode(latent, params))

    plan = ARStepPlan((2, 2, 3))
    context = rng.standard_normal((plan.S + plan.v, cfg.d))  # conditions, then clean rows
    cached = context_cache(context[: plan.S], frozen, room=plan.S)
    reference = context_cache(context[: plan.S], params, room=plan.S)
    for lo, hi in ((7, 9), (9, 11)):  # the clean rows, one AR step at a time
        cached = context_cache(context[lo:hi], frozen, cached)
        reference = context_cache(context[lo:hi], params, reference)
    assert cached.rows == reference.rows == len(context)
    for buffer, recorded_kv in zip(cached.keys + cached.values, reference.keys + reference.values):
        # both caches leave room for the last group's 3 rows after the context's
        assert buffer.shape == recorded_kv.shape == (len(context) + 3, cfg.d)
        assert np.array_equal(buffer[: len(context)], recorded_kv[: len(context)])

    ts = rng.integers(1, 50, plan.S)

    def forward(p, step_plan, noisy, cond, timesteps, clean=None, kv=None, features=None):
        batch = TokenBatch.assemble(
            step_plan, noisy, cond, timesteps, SCHEDULE, p, clean, kv, time_features=features
        )
        return cat_forward(batch, p)

    noisy = rng.standard_normal((plan.S, cfg.d))
    cond = context[: plan.S]  # full mask, three AR steps
    same(
        forward(frozen, plan, noisy, cond, ts, context[plan.S :]),
        forward(params, plan, noisy, cond, ts, context[plan.S :]),
    )
    # the last group's noisy rows after the cached context, at one timestep as
    # in generation: the array step writes its keys and values right after
    # the cached rows and copies its timestep's row of a feature table; the
    # recorded step writes its keys and values after its own cache's rows and
    # computes its features. A second step through the same buffers
    # overwrites those rows, a step of fewer rows than the room leaves the
    # rest unread, and a one-row step takes BLAS's matrix-vector path.
    table = sinusoidal_basis(np.arange(1, 50), cfg.d)
    steps = ((ts[-1], noisy[-3:]), (7, rng.standard_normal((3, cfg.d))), (9, noisy[-2:]))
    for t, rows in steps:
        n = len(rows)
        copies = np.repeat(table[t - 1 : t], n, axis=0)
        same(
            forward(frozen, ARStepPlan((n,)), rows, cond[-n:], np.full(n, t), kv=cached,
                    features=copies),
            forward(params, ARStepPlan((n,)), rows, cond[-n:], np.full(n, t), kv=reference),
        )
    buffered = context_cache(context[:-2], frozen, room=1)
    recorded = context_cache(context[:-2], params, room=1)
    t = ts[-1]
    same(
        forward(frozen, ARStepPlan((1,)), noisy[-1:], cond[-1:], ts[-1:], kv=buffered,
                features=table[t - 1 : t]),
        forward(params, ARStepPlan((1,)), noisy[-1:], cond[-1:], ts[-1:], kv=recorded),
    )
    with pytest.raises(ShapeMismatchError, match="room for 3 rows, not 4"):
        forward(frozen, ARStepPlan((4,)), noisy[-4:], cond[-4:], np.full(4, 7), kv=cached)


def test_gradient_of_blocked_attention_path_is_zero(small):
    """Perturbing a key the mask blocks leaves the loss untouched."""
    cfg, params = small
    plan = ARStepPlan((2, 2))
    batch, (cond, clean, noisy, ts) = make_batch(params, plan)
    target = np.random.default_rng(6).standard_normal((2, cfg.d))
    base = mse(cat_forward(batch, params)[0:2], target).item()
    # noisy tokens of step 2 are blocked for step-1 rows; perturb them hugely
    noisy2 = noisy.copy()
    noisy2[2:] += 1e3
    batch2 = assemble(params, plan, cond, clean, noisy2, ts)
    perturbed = mse(cat_forward(batch2, params)[0:2], target).item()
    assert base == perturbed


def test_not_on_tape(small):
    cfg, params = small
    x = RNG.standard_normal((2, cfg.p))
    loss = mse(encode(x, "st", params), np.zeros((2, cfg.d)))
    with pytest.raises(NotOnTapeError):
        gradients(loss, {"dec.w1": params["dec.w1"]})


def test_checkpoint_round_trip(tmp_path, small):
    cfg, params = small
    path = tmp_path / "model.catg"
    save_checkpoint(params, path, {"T": 2000, "beta_start": 1e-4, "beta_end": 2e-2})
    loaded, meta = load_checkpoint(path)
    assert loaded.cfg == cfg
    assert meta["T"] == 2000
    for name in params.names():
        np.testing.assert_array_equal(loaded[name].data, params[name].data)


def test_checkpoint_round_trip_is_bitwise(tmp_path, small):
    cfg, params = small
    path = tmp_path / "model.catg"
    save_checkpoint(params, path, {"T": 2000})
    loaded, _ = load_checkpoint(path)
    assert loaded.flat.tobytes() == params.flat.tobytes()
    again = tmp_path / "again.catg"
    save_checkpoint(loaded, again, {"T": 2000})
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_with_key_biases_still_loads(tmp_path, small):
    """Older files load to the same parameters: those written while attention
    keys had a bias hold ``blk*.bk``, and those written with a variational
    encoder hold ``enc_var.*`` and ``meta.variational``; both are skipped."""
    cfg, params = small
    current = tmp_path / "current.catg"
    save_checkpoint(params, current, {"T": 2000})
    key_biases = {f"blk{i}.bk": np.full(cfg.d, 1e-12) for i in range(cfg.blocks)}
    variational_head = {"enc_var.w": np.ones((cfg.d, cfg.d)), "enc_var.b": np.full(cfg.d, -8.0)}
    for extra, meta_key, dropped in (
        (key_biases, None, "blk0.bk"), (variational_head, "variational", "enc_var.w"),
    ):
        older = tmp_path / f"older_{dropped}.catg"
        tensors = {**params.detached().tensors, **extra}
        written = types.SimpleNamespace(
            cfg=cfg, detached=lambda t=tensors: types.SimpleNamespace(tensors=t)
        )
        save_checkpoint(written, older, {"T": 2000, **({meta_key: 1} if meta_key else {})})
        assert older.read_bytes().count(dropped.encode()) == 1
        loaded, meta = load_checkpoint(older)
        assert loaded.flat.tobytes() == load_checkpoint(current)[0].flat.tobytes()
        assert meta["T"] == 2000 and dropped not in loaded.names()
        assert meta.get("variational") == (1.0 if meta_key else None)


def test_checkpoint_meta_covers_every_model_field(tmp_path):
    """Each ModelConfig field round-trips, and a file without its meta is refused by name."""
    cfg = ModelConfig(p=5, q=7, d=12, heads=3, blocks=2)
    path = tmp_path / "model.catg"
    save_checkpoint(init_params(cfg, np.random.default_rng(1)), path, {})
    loaded, _ = load_checkpoint(path)
    assert loaded.cfg == cfg
    raw = path.read_bytes()
    for field in dataclasses.fields(ModelConfig):
        key = f"meta.{field.name}".encode()
        entry = struct.pack("<I", len(key)) + key
        assert raw.count(entry) == 1
        renamed = tmp_path / f"without_{field.name}.catg"
        renamed.write_bytes(raw.replace(entry, struct.pack("<I", len(key)) + key.upper()))
        with pytest.raises(DataFormatError, match=rf"missing meta\.{field.name}$"):
            load_checkpoint(renamed)


def reference_init(cfg, rng):
    """Each tensor drawn as an array of its own, in ``parameter_shapes`` order."""
    values = {}
    for name, shape in parameter_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if name == "latent.scale" or leaf == "g":
            values[name] = np.ones(shape)
        elif leaf.startswith("b"):
            values[name] = np.zeros(shape)
        else:
            values[name] = rng.standard_normal(shape) / math.sqrt(shape[0])
    return values


def test_init_params_draws_each_tensor_as_its_own_array():
    cfg = ModelConfig(p=6, q=9, d=8, heads=2, blocks=2)
    params = init_params(cfg, np.random.default_rng(5))
    reference = reference_init(cfg, np.random.default_rng(5))
    assert sorted(reference) == params.names()
    for name, value in reference.items():
        assert params[name].data.tobytes() == value.tobytes(), name


def test_parameters_are_views_into_one_buffer(small):
    cfg, source = small
    params = source.copy()
    assert params.flat.size == sum(t.data.size for t in params.tensors.values())
    params["latent.scale"].data[()] = 2.5
    assert 2.5 in params.flat
    copy = params.copy()
    copy.flat[:] = 0.0
    assert not np.shares_memory(copy.flat, params.flat)
    assert params["latent.scale"].data == 2.5 and copy["latent.scale"].data == 0.0
    detached = params.detached()
    assert detached.flat is params.flat and type(detached["e2.w1"]) is np.ndarray
    detached["e2.w1"][0, 0] = 7.0
    assert params["e2.w1"].data[0, 0] == 7.0


def test_a_detached_form_sees_later_writes_to_the_buffer(small):
    """``detached()`` holds views only: one taken before a write to a query
    projection computes the same context keys and values as a fresh one."""
    cfg, source = small
    params = source.copy()
    early = params.detached()
    cond = np.random.default_rng(19).standard_normal((4, cfg.d))
    before = context_cache(cond, early)
    params["blk0.wq"].data[...] *= 2.0  # block 0's queries feed block 1's keys
    stale, fresh = (context_cache(cond, p) for p in (early, params.detached()))
    assert not np.array_equal(before.keys[1], fresh.keys[1])
    for kept, written in zip(stale.keys + stale.values, fresh.keys + fresh.values):
        assert np.array_equal(kept, written)


def test_the_buffer_is_sized_before_any_layout_of_the_full_block_count(monkeypatch):
    """``CatParameters.empty`` sizes its buffer from the 1- and 2-block
    layouts: the full layout's size, and a block count no machine can hold
    fails before a layout of that count is built."""
    for blocks in (1, 2, 3, 5):
        cfg = ModelConfig(p=6, q=9, d=8, heads=2, blocks=blocks)
        shapes = parameter_shapes(cfg).values()
        assert CatParameters.empty(cfg).flat.size == sum(math.prod(shape) for shape in shapes)
    built = []
    monkeypatch.setattr(model, "parameter_shapes", lambda cfg: built.append(cfg.blocks) or parameter_shapes(cfg))
    with pytest.raises(MemoryError, match="Unable to allocate"):
        CatParameters.empty(ModelConfig(p=6, q=9, d=8, heads=2, blocks=10**12))
    with pytest.raises(ShapeMismatchError, match=f"{10**20} blocks of width 8 are beyond the largest array"):
        CatParameters.empty(ModelConfig(p=6, q=9, d=8, heads=2, blocks=10**20))
    assert set(built) == {1, 2}


def test_trainable_sets_are_slices_of_the_buffer(small):
    cfg, params = small
    warmup = [n for n in params.tensors if n.startswith(("e1.", "dec.", "e2."))]
    diffusion = [n for n in params.tensors if not n.startswith(("e1.", "dec.", "latent."))]
    for names in (warmup, diffusion):
        span = params.span(names)
        assert span.stop - span.start == sum(params[n].data.size for n in names)
    with pytest.raises(ShapeMismatchError):
        params.span(["e1.w1", "e2.w1"])


def test_checkpoint_rejects_bad_magic_and_version(tmp_path, small):
    cfg, params = small
    path = tmp_path / "model.catg"
    save_checkpoint(params, path, {})
    raw = bytearray(path.read_bytes())
    bad_magic = tmp_path / "bad1.catg"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(DataFormatError, match="not a CATG"):
        load_checkpoint(bad_magic)
    bad_version = tmp_path / "bad2.catg"
    bad_version.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(DataFormatError, match="version"):
        load_checkpoint(bad_version)
    truncated = tmp_path / "bad3.catg"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(truncated)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("ndim", 2**32 - 1, "truncated"),
        ("name", 2**32 - 1, "truncated"),
        ("shape", 2**40, "truncated"),
        ("blocks", 10**5, "meta.blocks is 100000, but the file holds"),
    ],
    ids=["ndim", "name", "shape", "blocks"],
)
def test_checkpoint_rejects_header_lengths_the_file_cannot_hold(
    tmp_path, small, field, value, match
):
    """A name length, a dimension count or a shape that the rest of the file
    cannot hold is refused before anything is read or skipped, and a block
    count above the file's tensor count before the model's shapes are listed."""
    cfg, params = small
    path = tmp_path / "model.catg"
    save_checkpoint(params, path, {})
    raw = bytearray(path.read_bytes())
    (name_len,) = struct.unpack_from("<I", raw, 12)  # the first entry's header starts at 12
    blocks = raw.index(b"meta.blocks") + len(b"meta.blocks") + 4  # after its name and ndim 0
    at = {
        "name": (12, "<I"),
        "ndim": (16 + name_len, "<I"),
        "shape": (20 + name_len, "<Q"),
        "blocks": (blocks, "<d"),
    }
    offset, fmt = at[field]
    struct.pack_into(fmt, raw, offset, value)
    bad = tmp_path / "bad.catg"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match=match):
        load_checkpoint(bad)


def test_checkpoint_rejects_non_scalar_meta(tmp_path):
    path = tmp_path / "bad.catg"
    name = b"meta.p"
    path.write_bytes(
        b"CATG" + struct.pack("<II", 1, 1) + struct.pack("<I", len(name)) + name
        + struct.pack("<IQ", 1, 2) + struct.pack("<2d", 4.0, 4.0)
    )
    with pytest.raises(DataFormatError, match="not a scalar"):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path, small):
    cfg, params = small
    path = tmp_path / "model.catg"
    save_checkpoint(params, path, {})
    first = path.read_bytes()
    save_checkpoint(params, path, {})
    assert path.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["model.catg"]  # no temp litter


def test_model_config_validation():
    with pytest.raises(ShapeMismatchError):
        ModelConfig(p=4, q=4, d=10, heads=4)
    with pytest.raises(ShapeMismatchError):
        ModelConfig(p=0, q=4)

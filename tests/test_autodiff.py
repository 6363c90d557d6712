"""Finite-difference checks for every autodiff operation plus engine behavior."""

import functools
import inspect
import math
import sys

import numpy as np
import pytest

from catgen import autodiff
from catgen.arplan import generate_ar_steps
from catgen.autodiff import (
    Tensor,
    attention,
    collect_tape,
    concat,
    gelu,
    gradients,
    layer_norm,
    linear,
    masked_softmax,
    mse,
)
from catgen.data import prepare_pair, split_genes
from catgen.diffusion import linear_schedule
from catgen.errors import NotOnTapeError, ShapeMismatchError
from catgen.generate import generate_genes
from catgen.model import ModelConfig, init_params
from catgen.synth import chain_config, generate
from catgen.train import TrainConfig, _warmup_step, diffusion_trainable, fit, training_loss

RNG = np.random.default_rng(20240817)


def finite_diff(fn, arrays, index, h=1e-6):
    """Central difference of fn(arrays) wrt arrays[index], element by element."""
    grad = np.zeros_like(arrays[index])
    flat = arrays[index].reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(arrays)
        flat[i] = orig - h
        down = fn(arrays)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def check_grads(build, shapes, h=1e-6, atol=1e-7, rtol=1e-5):
    """build(tensors) -> Tensor; compares the gradients of its ``mse`` against a
    fixed random target with central differences.

    The target makes the gradient reaching ``build``'s output differ from
    element to element, so every rule is checked with a non-uniform upstream
    gradient."""
    arrays = [RNG.standard_normal(s) for s in shapes]
    tensors = [Tensor(a) for a in arrays]
    out = build(tensors)
    target = RNG.standard_normal(out.shape)

    def value(arrs):
        return mse(build([Tensor(a) for a in arrs]), target).item()

    gradients(mse(out, target), {str(k): t for k, t in enumerate(tensors)})
    for k, t in enumerate(tensors):
        fd = finite_diff(value, arrays, k, h=h)
        np.testing.assert_allclose(t.grad, fd, atol=atol, rtol=rtol)


def test_add_mul_broadcast():
    column, row = RNG.standard_normal((3, 1)), RNG.standard_normal(4)
    check_grads(lambda ts: (ts[0] + ts[1]) * ts[2] * column + row, [(3, 4), (3, 4), (3, 4)])
    check_grads(lambda ts: 2.0 * ts[0] + 3.0, [(5,)])
    matrix, vector = Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
    for op in (lambda: matrix + vector, lambda: vector * matrix, lambda: vector + np.zeros((3, 4))):
        with pytest.raises(ShapeMismatchError):  # only an array broadcasts
            op()


def test_rows_and_concat():
    check_grads(lambda ts: concat([ts[0], ts[1]])[1:4], [(3, 2), (2, 2)])


def test_row_slice_takes_one_contiguous_slice_only():
    t = Tensor(np.zeros((4, 2)))
    assert t[-3:].shape == (3, 2)
    with pytest.raises(ShapeMismatchError):
        _ = t[0]
    with pytest.raises(ShapeMismatchError):
        _ = t[::2]


def test_ndarray_on_the_left_lifts_into_the_tensor():
    w, b = RNG.standard_normal((3, 3)), RNG.standard_normal((3, 4))
    check_grads(lambda ts: b + ts[0] * ts[0] + b * ts[0], [(3, 4)])
    with pytest.raises(TypeError):  # only + and * have reflected forms
        _ = w @ Tensor(b)


def test_a_tensor_has_no_subtraction_negation_or_power():
    t, x = Tensor(RNG.standard_normal(3)), RNG.standard_normal(3)
    for op in (lambda: x - t, lambda: t - x, lambda: t - t, lambda: -t, lambda: t ** 2.0):
        with pytest.raises(TypeError):
            op()


def test_array_inputs_give_the_same_arrays_and_record_nothing():
    x = RNG.standard_normal((2, 3, 4))
    t = Tensor(x)
    # a width of 12 makes 1/n inexact, so a mean that divides would differ
    rows, w, b = RNG.standard_normal((5, 12)), RNG.standard_normal((12, 3)), RNG.standard_normal(3)
    gain, bias = RNG.standard_normal(12), RNG.standard_normal(12)
    keys, values = RNG.standard_normal((7, 12)), RNG.standard_normal((7, 12))
    blocked = np.zeros((5, 7), dtype=bool)
    blocked[:, 0] = True
    attended = attention(rows, keys, values, blocked, 3)
    for array_out, tensor_out in (
        (gelu(x), gelu(t)),
        (attended, attention(Tensor(rows), keys, values, blocked, 3)),
        (attended, attention(rows, Tensor(keys), Tensor(values), blocked, 3)),
        (concat([x, x]), concat([t, x])),
        (linear(rows, w, b), linear(rows, Tensor(w), b)),
        (linear(rows, w, b), linear(Tensor(rows), w, Tensor(b))),
        (layer_norm(rows, gain, bias), layer_norm(Tensor(rows), gain, bias)),
        (layer_norm(rows, gain, bias), layer_norm(rows, Tensor(gain), Tensor(bias))),
    ):
        assert type(array_out) is np.ndarray and isinstance(tensor_out, Tensor)
        assert np.array_equal(array_out, tensor_out.data)


def test_layers_leave_every_input_untouched():
    """Each fused layer, on arrays and recorded with its backward walk,
    ``masked_softmax`` and ``mse`` leave their operands, masks and targets
    byte-identical."""
    rows, w, b = RNG.standard_normal((5, 12)), RNG.standard_normal((12, 3)), RNG.standard_normal(3)
    gain, bias = RNG.standard_normal(12), RNG.standard_normal(12)
    keys, values = RNG.standard_normal((7, 12)), RNG.standard_normal((7, 12))
    blocked = RNG.random((5, 7)) < 0.4
    blocked[:, 0] = False
    logits = RNG.standard_normal((3, 5, 7))
    cases = [
        (linear, (rows, w, b)),
        (layer_norm, (rows, gain, bias)),
        (gelu, (rows,)),
        (lambda q, k, v: attention(q, k, v, blocked, 3), (rows, keys, values)),
    ]
    for layer, operands in cases:
        kept = [a.tobytes() for a in (*operands, blocked, logits)]
        layer(*operands)
        masked_softmax(logits, blocked)
        leaves = {str(i): Tensor(a) for i, a in enumerate(operands)}  # Tensors over the same arrays
        out = layer(*leaves.values())
        target = RNG.standard_normal(out.shape)
        kept += [target.tobytes(), out.data.tobytes()]
        gradients(mse(out, target), leaves)
        assert [a.tobytes() for a in (*operands, blocked, logits, target, out.data)] == kept


def test_gelu_layer_norm_and_softmax_match_their_plain_expressions_bitwise():
    """The in-place arithmetic of the layers gives each element what the
    one-line expressions give it, GELU's backward rule included."""
    x, target = RNG.standard_normal((4, 12)), RNG.standard_normal((4, 12))
    gain, bias = RNG.standard_normal(12), RNG.standard_normal(12)
    c = 0.7978845608028654
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) * (1.0 / 12)
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) * (1.0 / 12)
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    softmax = e / np.add.reduce(e, axis=-1, keepdims=True)
    assert np.array_equal(masked_softmax(x, np.zeros(12, bool)), softmax)
    assert np.array_equal(masked_softmax(x, None), softmax)
    layer_out = centered * (var + 1e-5) ** -0.5 * gain + bias
    assert np.array_equal(layer_norm(x, gain, bias), layer_out)
    assert np.array_equal(layer_norm(Tensor(x), gain, bias).data, layer_out)

    gelu_out = 0.5 * x * (1.0 + t)
    leaf = Tensor(x)
    out = gelu(leaf)
    grad = gradients(mse(out, target), {"x": leaf}).reshape(x.shape)
    g = (np.ones(()) * (1.0 / x.size) * 2.0) * (out.data - target)  # mse's rule
    slope = c * (1.0 + 3.0 * 0.044715 * (x * x))
    assert np.array_equal(gelu(x), gelu_out) and np.array_equal(out.data, gelu_out)
    assert np.array_equal(grad, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * slope))


def test_gelu_gradient():
    check_grads(lambda ts: gelu(ts[0]), [(7,)])
    check_grads(lambda ts: gelu(ts[0]) * ts[1], [(3, 4), (3, 4)])


def test_linear_gradient():
    check_grads(
        lambda ts: linear(ts[0], ts[1], ts[2]) * ts[3], [(5, 12), (12, 3), (3,), (5, 3)]
    )
    check_grads(lambda ts: linear(ts[0], ts[1]) * ts[2], [(5, 12), (12, 3), (5, 3)])


def test_linear_takes_matrices_and_a_bias_vector():
    x, w, b = Tensor(np.zeros((2, 3))), np.zeros((3, 4)), np.zeros(4)
    for args in (
        (Tensor(np.zeros(3)), w, b), (x, np.zeros((1, 3, 4)), b), (x, w, np.zeros((1, 4))),
        (Tensor(np.zeros(3)), w), (x, np.zeros((1, 3, 4))),
    ):
        with pytest.raises(ShapeMismatchError):
            linear(*args)


def test_layer_norm_gradient():
    # a width of 12 makes 1/n inexact; the weights make every output count differently
    check_grads(
        lambda ts: layer_norm(ts[0], ts[1], ts[2]) * ts[3], [(4, 12), (12,), (12,), (4, 12)]
    )


def test_layer_norm_takes_a_gain_and_a_bias_per_feature():
    x, per_feature = Tensor(np.zeros((2, 3))), np.zeros(3)
    for gain, bias in ((np.zeros((2, 3)), per_feature), (per_feature, np.zeros((1, 3)))):
        with pytest.raises(ShapeMismatchError):
            layer_norm(x, gain, bias)


def test_masked_softmax_rows_sum_to_one_and_blocked_zero():
    logits = RNG.standard_normal((2, 5, 5))
    blocked = np.zeros((5, 5), dtype=bool)
    blocked[:, 3:] = True
    out = masked_softmax(logits, blocked)
    assert type(out) is np.ndarray
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert (out[..., 3:] == 0.0).all()


def test_masked_softmax_rejects_fully_blocked_row():
    with pytest.raises(ShapeMismatchError):
        masked_softmax(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))


def test_attention_gradient():
    """q, k and v against central differences, under a mask, with 2 heads of
    width 3; the loss's target makes the upstream gradient non-uniform."""
    blocked = np.zeros((4, 5), dtype=bool)
    blocked[0, 1:] = True
    blocked[2, 0] = True
    blocked[3, 2:4] = True
    check_grads(lambda ts: attention(ts[0], ts[1], ts[2], blocked, 2), [(4, 6), (5, 6), (5, 6)])
    # one query row and one key, the shapes of a single-token step
    check_grads(lambda ts: attention(ts[0], ts[1], ts[2], np.zeros((1, 1), bool), 3),
                [(1, 6), (1, 6), (1, 6)])


def old_attention_chain(q, k, v, blocked, heads, g):
    """The recorded attention of earlier versions, transcribed to numpy: the
    value of its 14 Tensor nodes (split by reshape and transpose, batched
    matmuls, a scale, the masked softmax, the join), then the gradients each
    node's rule passed on for the upstream gradient ``g``."""
    rows, d = q.shape
    dh = d // heads
    qh, kh, vh = (t.reshape(len(t), heads, dh).transpose(1, 0, 2) for t in (q, k, v))
    kt = kh.transpose(0, 2, 1)
    scale = np.asarray(1.0 / math.sqrt(dh))
    z = np.where(np.broadcast_to(blocked, (heads, rows, len(k))), -np.inf, (qh @ kt) * scale)
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    weights = e / np.add.reduce(e, axis=-1, keepdims=True)
    product = weights @ vh
    out = product.transpose(1, 0, 2).reshape(rows, d)
    # each rule's first contribution is copied into an array laid out like its node
    g_joined = np.empty_like(product.transpose(1, 0, 2))
    g_joined[...] = g.reshape(rows, heads, dh)
    gh = np.empty_like(product)
    gh[...] = g_joined.transpose(1, 0, 2)
    gw = gh @ np.swapaxes(vh, -1, -2)
    gv = np.swapaxes(weights, -1, -2) @ gh
    inner = (gw * weights).sum(axis=-1, keepdims=True)
    gl = (weights * (gw - inner)) * scale
    gq = gl @ np.swapaxes(kt, -1, -2)
    gk = (np.swapaxes(qh, -1, -2) @ gl).transpose(0, 2, 1)
    return out, [t.transpose(1, 0, 2).reshape(-1, d) for t in (gq, gk, gv)]


def test_attention_matches_the_old_chain_bitwise():
    for rows, keys, heads in ((4, 6, 2), (1, 5, 3), (3, 3, 1)):
        q, k, v = RNG.standard_normal((rows, 12)), *RNG.standard_normal((2, keys, 12))
        blocked = RNG.random((rows, keys)) < 0.4
        blocked[:, 0] = False  # every query keeps a key
        target = RNG.standard_normal((rows, 12))
        leaves = {"q": Tensor(q), "k": Tensor(k), "v": Tensor(v)}
        out = attention(leaves["q"], leaves["k"], leaves["v"], blocked, heads)
        gradients(mse(out, target), leaves)
        g = (np.ones(()) * (1.0 / out.data.size) * 2.0) * (out.data - target)  # mse's rule
        old_out, old_grads = old_attention_chain(q, k, v, blocked, heads, g)
        assert np.array_equal(out.data, old_out)
        assert np.array_equal(attention(q, k, v, blocked, heads), old_out)
        for name, old in zip("qkv", old_grads):
            assert np.array_equal(leaves[name].grad, old), name


def test_a_key_blocked_for_every_query_gets_exactly_zero_gradient():
    blocked = np.zeros((4, 5), dtype=bool)
    blocked[:, 2] = True
    q, k, v = (Tensor(RNG.standard_normal((n, 6))) for n in (4, 5, 5))
    out = attention(q, k, v, blocked, 2)
    gradients(mse(out, RNG.standard_normal((4, 6))), {"q": q, "k": k, "v": v})
    for name, leaf in (("k", k), ("v", v)):
        assert (leaf.grad[2] == 0.0).all() and (leaf.grad[[0, 1, 3, 4]] != 0.0).all(), name


def test_attention_takes_rows_of_one_width():
    q, kv = Tensor(np.zeros((2, 6))), np.zeros((3, 6))
    for args in (
        (q, np.zeros((3, 4)), np.zeros((3, 4)), 2), (q, kv, np.zeros((4, 6)), 2),
        (Tensor(np.zeros((1, 2, 6))), kv, kv, 2), (q, kv, kv, 4),
    ):
        with pytest.raises(ShapeMismatchError):
            attention(args[0], args[1], args[2], np.zeros((2, 3), bool), args[3])


def test_hand_derivative_linear_map():
    # loss = ||W x - y||^2 / 3  =>  dloss/dW = (2/3) (W x - y) x^T
    w = Tensor(RNG.standard_normal((3, 3)))
    x = np.array([[1.0], [-2.0], [0.5]])
    y = RNG.standard_normal((3, 1))
    gradients(mse(linear(w, x), y), {"w": w})  # W x, with W's rows as the inputs
    np.testing.assert_allclose(w.grad, (2.0 / 3.0) * np.outer(w.data @ x - y, x), rtol=1e-12)


def test_mse_gradient():
    # widths of 12 and 7 make 1/n inexact
    for shape in ((12,), (3, 7), ()):
        check_grads(lambda ts: ts[0], [shape])


def test_mse_is_the_sum_of_squares_times_one_over_n_bitwise():
    a, b = RNG.standard_normal((5, 7)), RNG.standard_normal((5, 7))
    loss = mse(Tensor(a), b)
    assert loss.shape == () and len(collect_tape(loss)) == 2  # the leaf and one node
    assert loss.item() == np.sum((a - b) ** 2.0) * (1.0 / 35)


def test_mse_takes_a_target_of_its_own_shape():
    with pytest.raises(ShapeMismatchError):
        mse(Tensor(np.zeros((2, 3))), np.zeros(3))


def test_gradients_require_a_scalar_loss():
    a = Tensor(np.ones(3))
    with pytest.raises(ShapeMismatchError, match="scalar"):  # not the gradient of the sum
        gradients(a * 2.0, {"a": a})


def test_gradients_reports_missing_parameter():
    a = Tensor(1.0)
    b = Tensor(2.0)
    loss = a * 3.0
    with pytest.raises(NotOnTapeError, match="b"):
        gradients(loss, {"a": a, "b": b})


def test_gradients_accumulate_per_invocation():
    a = Tensor(2.0)
    first = gradients((a * a), {"a": a})
    second = gradients((a * a), {"a": a})
    np.testing.assert_allclose(first, second)  # fresh tape per forward, no leakage


def test_collect_tape_covers_parents():
    a = Tensor(1.0)
    out = (a + 1.0) * 2.0
    tape = collect_tape(out)
    assert id(a) in tape


def diffusion_loss(params, seed=0):
    """A diffusion training loss of a tiny model on 8 random genes."""
    rng = np.random.default_rng(seed)
    cfg = params.cfg
    st, sc = rng.uniform(0.1, 2.0, (8, cfg.p)), rng.uniform(0.1, 2.0, (8, cfg.q))
    plan = generate_ar_steps(8, 0.8, rng)
    ts = rng.integers(1, 21, size=8)
    eps = rng.standard_normal((8, cfg.d))
    return training_loss(st, sc, plan, ts, eps, params, linear_schedule(20)), TrainConfig(T=20)


def test_walk_skips_branches_that_reach_no_requested_parameter():
    params = init_params(ModelConfig(p=6, q=10, d=8, heads=2, blocks=2), np.random.default_rng(1))
    loss, tcfg = diffusion_loss(params)
    names = diffusion_trainable(params, tcfg)
    tape = collect_tape(loss)
    grads = gradients(loss, {n: params[n] for n in names})

    frozen = [n for n in params.names() if n.startswith(("e1.", "dec."))]
    assert frozen and all(params[n].grad is None for n in frozen)
    visited = [t for t in tape.values() if t._needed]
    leaves = {id(t) for t in params.tensors.values()}
    behind = set()  # nodes with some parameter behind them; the tape lists parents first
    for t in tape.values():
        if id(t) in leaves or any(id(p) in behind for p in t._parents):
            behind.add(id(t))
    assert len(visited) < len(behind) == len(tape)
    # after the walk only the requested leaves hold a gradient
    assert {id(t) for t in tape.values() if t.grad is not None} == {id(params[n]) for n in names}
    # each requested leaf holds its view of the returned array, in request order
    assert all(params[n].grad.flags.c_contiguous for n in names)
    assert all(np.shares_memory(params[n].grad, grads) for n in names)
    assert grads.dtype == np.float64
    assert np.array_equal(np.concatenate([params[n].grad.ravel() for n in names]), grads)


def test_walk_over_every_parameter_on_the_tape_fills_each_one():
    params = init_params(ModelConfig(p=6, q=10, d=8, heads=2, blocks=2), np.random.default_rng(1))
    loss, _ = diffusion_loss(params)
    tape = collect_tape(loss)
    leaves = {n: t for n, t in params.tensors.items() if id(t) in tape}
    assert {"e1.w1", "blk0.wq"} <= set(leaves)
    gradients(loss, leaves)
    for name, leaf in leaves.items():
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape, name
        assert leaf.grad.flags.c_contiguous, name
    full = {name: leaf.grad for name, leaf in leaves.items()}
    pruned = {"e1.w1": params["e1.w1"], "blk0.wq": params["blk0.wq"]}
    gradients(loss, pruned)
    for name, leaf in pruned.items():
        np.testing.assert_array_equal(leaf.grad, full[name])


def test_a_second_walk_of_one_tape_gives_the_same_gradients(monkeypatch):
    """Walking one diffusion loss and one warmup loss twice gives bitwise the
    same gradients: no rule writes into its incoming gradient or into an
    array that it, or a rule walked after it, reads."""
    warmup = []
    monkeypatch.setattr("catgen.train._update", lambda loss, *_: warmup.append(loss))
    params = init_params(ModelConfig(p=6, q=10, d=8, heads=2, blocks=2), np.random.default_rng(4))
    loss, tcfg = diffusion_loss(params, seed=4)
    rng = np.random.default_rng(4)
    st, sc = rng.uniform(0.1, 2.0, (8, 6)), rng.uniform(0.1, 2.0, (8, 10))
    _warmup_step(st, sc, params, tcfg, rng, None, [])
    for loss in (loss, *warmup):
        tape = collect_tape(loss)
        leaves = {n: t for n, t in params.tensors.items() if id(t) in tape}
        first = gradients(loss, leaves)
        assert np.array_equal(gradients(loss, leaves), first)


def test_first_contribution_never_aliases_another_gradient():
    a = Tensor(RNG.standard_normal(3))
    b = Tensor(RNG.standard_normal(3))
    c = Tensor(RNG.standard_normal(3))
    target = RNG.standard_normal(3)
    gradients(mse((a + b) * c, target), {"a": a, "b": b, "c": c})
    expected = ((1.0 / 3.0) * 2.0) * ((a.data + b.data) * c.data - target) * c.data
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, expected)
    a.grad += 1.0  # writing one leaf's gradient leaves the other alone
    np.testing.assert_array_equal(b.grad, expected)
    assert all(t.grad.flags.c_contiguous for t in (a, b, c))


def test_an_add_of_two_inner_nodes_gives_each_its_own_gradient_array():
    """In ``u + gelu(u)`` the add hands its gradient array to ``u`` and a view
    of it to ``gelu(u)``, whose rule then adds a second contribution into
    ``u``'s array: the view must have been copied."""
    passed = {}  # the gradient array each inner node's rule was given

    def watched(name, node):
        rule = node._backward

        def backward(g):
            passed[name] = g
            rule(g)

        node._backward = backward
        return node

    def build(ts):
        u = watched("u", ts[0] * ts[1])
        return u + watched("gelu", gelu(u))

    check_grads(build, [(3, 4), (3, 4)])
    assert set(passed) == {"u", "gelu"} and not np.shares_memory(passed["u"], passed["gelu"])


def test_first_contribution_is_adopted_when_fresh_and_copied_otherwise():
    node = Tensor(np.zeros((3, 4)))
    fresh = RNG.standard_normal((3, 4))
    autodiff._accumulate(node, fresh)
    assert node.grad is fresh  # made for this contribution alone
    source = RNG.standard_normal((4, 4))
    for g in (source[1:], source.T[1:], np.broadcast_to(source[0], (3, 4))):
        node.grad = None
        autodiff._accumulate(node, g)
        assert node.grad is not g and not np.shares_memory(node.grad, source)
        assert node.grad.flags.c_contiguous and np.array_equal(node.grad, g)
    first = node.grad
    autodiff._accumulate(node, fresh)  # a later contribution adds in place
    assert node.grad is first
    np.testing.assert_array_equal(first, np.broadcast_to(source[0], (3, 4)) + fresh)


def test_tape_sizes_of_one_diffusion_and_one_warmup_loss(monkeypatch):
    """Fused linear, layer norm, GELU, attention and mse nodes keep the tapes this small;
    a layer or loss term that records its arithmetic node by node again shows
    up here."""
    diffusion, warmup = [], []

    def count(loss, *_):  # stands in for the update, which the count does not need
        warmup.append(len(collect_tape(loss)))

    monkeypatch.setattr("catgen.train._update", count)
    cfg = ModelConfig(p=6, q=10, d=8, heads=2, blocks=2)
    for seed in (1, 2):
        params = init_params(cfg, np.random.default_rng(seed))
        loss, tcfg = diffusion_loss(params, seed)
        diffusion.append(len(collect_tape(loss)))
        rng = np.random.default_rng(seed)
        st, sc = rng.uniform(0.1, 2.0, (8, 6)), rng.uniform(0.1, 2.0, (8, 10))
        _warmup_step(st, sc, params, tcfg, rng, None, [])
    # the last block's query and residual each take the noisy rows by one row slice
    assert diffusion == [91, 91] and warmup == [36, 36]


def test_every_tape_node_is_a_parameter_or_an_operation(monkeypatch):
    """Arrays and numbers that meet a Tensor stay data of its rule: neither
    a diffusion loss nor a warmup loss records a constant node."""
    warmup = []
    monkeypatch.setattr("catgen.train._update", lambda loss, *_: warmup.append(loss))
    params = init_params(ModelConfig(p=6, q=10, d=8, heads=2, blocks=2), np.random.default_rng(3))
    loss, tcfg = diffusion_loss(params, seed=3)
    rng = np.random.default_rng(3)
    st, sc = rng.uniform(0.1, 2.0, (8, 6)), rng.uniform(0.1, 2.0, (8, 10))
    _warmup_step(st, sc, params, tcfg, rng, None, [])
    leaves = {id(t) for t in params.tensors.values()}
    for loss in (loss, *warmup):
        assert all(t._parents or id(t) in leaves for t in collect_tape(loss).values())


def test_the_user_path_reaches_every_operator_but_the_reflected_ones(monkeypatch):
    """A fit with each gene order and a 2-group generation call every function
    of ``autodiff`` and every method of ``Tensor``, except ``__radd__`` and
    ``__rmul__``: those stay for the tests that mix arrays with Tensor
    parameters. An operator that a fusion leaves without a caller fails here."""
    called = set()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    names = set()
    for name, member in list(vars(Tensor).items()):
        if isinstance(member, staticmethod):
            monkeypatch.setattr(Tensor, name, staticmethod(counting(name, member.__func__)))
        elif inspect.isfunction(member):
            monkeypatch.setattr(Tensor, name, counting(name, member))
        else:
            continue
        names.add(name)
    functions = {
        fn: name for name, fn in vars(autodiff).items()
        if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
    }
    names |= set(functions.values())
    # rebind each function in every catgen module that holds it, as ``from
    # .autodiff import linear`` does
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "catgen":
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in functions:
                    monkeypatch.setattr(module, attr, counting(functions[value], value))

    st, sc, _ = generate(chain_config(n_genes=16, n_spots=8, n_cells=24, seed=0))
    pair = prepare_pair(st, sc, top_fraction=1.0, min_genes_sc=1, min_genes_st=1)
    split = split_genes(range(len(pair.genes)), seed=0)
    mcfg = ModelConfig(p=pair.st.n_obs, q=pair.sc.n_obs, d=8, heads=2, blocks=1)
    for order in ("random", "granger"):
        cfg = TrainConfig(
            epochs=1, recon_epochs=1, T=20, seed=0, batch_genes=6, gene_order=order
        )
        result = fit(pair.st, pair.sc, split, mcfg, cfg)
    generate_genes(pair.sc, pair.genes[:4], result.params, linear_schedule(20), groups=2, seed=0)
    assert names - called == {"__radd__", "__rmul__"}

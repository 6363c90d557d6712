"""Finite-difference checks for every autodiff operation plus engine behavior."""

import numpy as np
import pytest

from catgen import autodiff
from catgen.arplan import generate_ar_steps
from catgen.autodiff import (
    Tensor,
    collect_tape,
    concat,
    gelu,
    gradients,
    layer_norm,
    linear,
    masked_softmax,
)
from catgen.diffusion import linear_schedule
from catgen.errors import NotOnTapeError, ShapeMismatchError
from catgen.model import ModelConfig, init_params
from catgen.train import TrainConfig, _warmup_step, diffusion_trainable, training_loss

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
    """build(tensors) -> scalar Tensor; compares its gradients against central differences."""
    arrays = [RNG.standard_normal(s) for s in shapes]

    def value(arrs):
        return build([Tensor(a) for a in arrs]).item()

    tensors = [Tensor(a) for a in arrays]
    grads = gradients(build(tensors), {str(k): t for k, t in enumerate(tensors)})
    for k in range(len(tensors)):
        fd = finite_diff(value, arrays, k, h=h)
        np.testing.assert_allclose(grads[str(k)], fd, atol=atol, rtol=rtol)


def test_add_mul_broadcast():
    check_grads(lambda ts: ((ts[0] + ts[1]) * ts[2]).sum(), [(3, 4), (4,), (3, 4)])


def test_sub_neg_pow():
    check_grads(
        lambda ts: ((ts[0] - 2.0 * ts[1]) * (ts[2] ** 2.0 + 3.0) ** -1.0).sum(),
        [(5,), (5,), (5,)],
    )


def test_matmul_2d_and_vector():
    check_grads(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4, 2)])
    matrix = Tensor(np.zeros((3, 4)))
    vector = Tensor(np.zeros(4))
    for left, right in ((vector, matrix.transpose(1, 0)), (matrix, vector)):
        with pytest.raises(ShapeMismatchError):  # the model multiplies matrices only
            _ = left @ right
    with pytest.raises(TypeError):  # an array on the left has no reflected matmul
        _ = np.zeros(3) @ matrix


def test_matmul_batched():
    check_grads(
        lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (2, 4, 3)]
    )


def test_matmul_batch_dim_mismatch():
    a = Tensor(np.zeros((2, 3, 4)))
    b = Tensor(np.zeros((3, 4, 2)))
    with pytest.raises(ShapeMismatchError):
        _ = a @ b


def test_reductions_and_reshape():
    check_grads(lambda ts: (ts[0].sum() * ts[0]).mean(), [(4, 3)])
    check_grads(lambda ts: (ts[0].reshape(6, 2).transpose(1, 0) * ts[1]).sum(), [(3, 4), (2, 6)])


def test_rows_and_concat():
    check_grads(
        lambda ts: (concat([ts[0], ts[1]], axis=0)[1:4] ** 2.0).sum(),
        [(3, 2), (2, 2)],
    )


def test_row_slice_takes_one_contiguous_slice_only():
    t = Tensor(np.zeros((4, 2)))
    assert t[-3:].shape == (3, 2)
    with pytest.raises(ShapeMismatchError):
        _ = t[0]
    with pytest.raises(ShapeMismatchError):
        _ = t[::2]


def test_ndarray_on_the_left_lifts_into_the_tensor():
    w, b = RNG.standard_normal((3, 3)), RNG.standard_normal((3, 4))
    check_grads(lambda ts: (b + ts[0] * ts[0] + b * ts[0] - b).sum(), [(3, 4)])
    for op in (lambda x, t: x @ t, lambda x, t: x - t):  # only + and * have reflected forms
        with pytest.raises(TypeError):
            op(w, Tensor(b))


def test_subtracting_a_constant_records_one_node_for_it():
    t, c = Tensor(RNG.standard_normal(3)), RNG.standard_normal(3)
    out = t - c
    assert np.array_equal(out.data, t.data - c)
    assert len(collect_tape(out)) == 3  # t, the lifted -c and their sum


def test_array_inputs_give_the_same_arrays_and_record_nothing():
    x = RNG.standard_normal((2, 3, 4))
    blocked = np.zeros((3, 4), dtype=bool)
    blocked[:, 0] = True
    t = Tensor(x)
    # a width of 12 makes 1/n inexact, so a mean that divides would differ
    rows, w, b = RNG.standard_normal((5, 12)), RNG.standard_normal((12, 3)), RNG.standard_normal(3)
    gain, bias = RNG.standard_normal(12), RNG.standard_normal(12)
    for array_out, tensor_out in (
        (gelu(x), gelu(t)),
        (masked_softmax(x, blocked), masked_softmax(t, blocked)),
        (concat([x, x], axis=1), concat([t, x], axis=1)),
        (linear(rows, w, b), linear(rows, Tensor(w), b)),
        (linear(rows, w, b), linear(Tensor(rows), w, Tensor(b))),
        (layer_norm(rows, gain, bias), layer_norm(Tensor(rows), gain, bias)),
        (layer_norm(rows, gain, bias), layer_norm(rows, Tensor(gain), Tensor(bias))),
    ):
        assert type(array_out) is np.ndarray and isinstance(tensor_out, Tensor)
        assert np.array_equal(array_out, tensor_out.data)


def test_gelu_gradient():
    check_grads(lambda ts: gelu(ts[0]).sum(), [(7,)])
    check_grads(lambda ts: (gelu(ts[0]) * ts[1]).sum(), [(3, 4), (3, 4)])


def test_linear_gradient():
    check_grads(
        lambda ts: (linear(ts[0], ts[1], ts[2]) * ts[3]).sum(), [(5, 12), (12, 3), (3,), (5, 3)]
    )


def test_linear_takes_matrices_and_a_bias_vector():
    x, w, b = Tensor(np.zeros((2, 3))), np.zeros((3, 4)), np.zeros(4)
    for args in (
        (Tensor(np.zeros(3)), w, b), (x, np.zeros((1, 3, 4)), b), (x, w, np.zeros((1, 4)))
    ):
        with pytest.raises(ShapeMismatchError):
            linear(*args)


def test_layer_norm_gradient():
    # a width of 12 makes 1/n inexact; the weights make every output count differently
    check_grads(
        lambda ts: (layer_norm(ts[0], ts[1], ts[2]) * ts[3]).sum(), [(4, 12), (12,), (12,), (4, 12)]
    )


def test_masked_softmax_rows_sum_to_one_and_blocked_zero():
    logits = Tensor(RNG.standard_normal((2, 5, 5)))
    blocked = np.zeros((5, 5), dtype=bool)
    blocked[:, 3:] = True
    out = masked_softmax(logits, blocked)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)
    assert (out.data[..., 3:] == 0.0).all()


def test_masked_softmax_gradient():
    blocked = np.zeros((4, 4), dtype=bool)
    blocked[0, 1:] = True
    blocked[2, 0] = True

    check_grads(
        lambda ts: (masked_softmax(ts[0], blocked) * ts[1]).sum(),
        [(4, 4), (4, 4)],
    )


def test_masked_softmax_rejects_fully_blocked_row():
    with pytest.raises(ShapeMismatchError):
        masked_softmax(Tensor(np.zeros((2, 2))), np.ones((2, 2), dtype=bool))


def test_hand_derivative_linear_map():
    # loss = 0.5 * ||W x||^2  =>  dloss/dW = (W x) x^T
    w = Tensor(RNG.standard_normal((3, 3)))
    x = np.array([[1.0], [-2.0], [0.5]])
    loss = 0.5 * ((w @ x) ** 2.0).sum()
    grad = gradients(loss, {"w": w})["w"]
    np.testing.assert_allclose(grad, np.outer(w.data @ x, x), rtol=1e-12)


def test_gradients_require_a_scalar_loss():
    a = Tensor(np.ones(3))
    with pytest.raises(ShapeMismatchError, match="scalar"):  # not the gradient of the sum
        gradients(a * 2.0, {"a": a})


def test_gradients_reports_missing_parameter():
    a = Tensor(1.0)
    b = Tensor(2.0)
    loss = (a * 3.0) ** 2.0
    with pytest.raises(NotOnTapeError, match="b"):
        gradients(loss, {"a": a, "b": b})


def test_gradients_accumulate_per_invocation():
    a = Tensor(2.0)
    first = gradients((a * a), {"a": a})["a"]
    second = gradients((a * a), {"a": a})["a"]
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
    assert len(visited) < len(behind) < len(tape)
    # after the walk only the requested leaves hold a gradient
    assert {id(t) for t in tape.values() if t.grad is not None} == {id(params[n]) for n in names}
    assert all(grads[n] is params[n].grad and grads[n].flags.c_contiguous for n in names)
    assert all(np.shares_memory(grads[n], grads.flat) for n in names)


def test_walk_over_every_parameter_on_the_tape_fills_each_one():
    params = init_params(ModelConfig(p=6, q=10, d=8, heads=2, blocks=2), np.random.default_rng(1))
    loss, _ = diffusion_loss(params)
    tape = collect_tape(loss)
    leaves = {n: t for n, t in params.tensors.items() if id(t) in tape}
    assert {"e1.w1", "blk0.wq"} <= set(leaves)
    full = gradients(loss, leaves)
    for name, leaf in leaves.items():
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape, name
        assert leaf.grad.flags.c_contiguous, name
    pruned = gradients(loss, {"e1.w1": params["e1.w1"], "blk0.wq": params["blk0.wq"]})
    for name, grad in pruned.items():
        np.testing.assert_array_equal(grad, full[name])


def test_first_contribution_never_aliases_another_gradient():
    a = Tensor(RNG.standard_normal(3))
    b = Tensor(RNG.standard_normal(3))
    c = Tensor(RNG.standard_normal(3))
    gradients(((a + b) * c).sum(), {"a": a, "b": b, "c": c})
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, c.data)
    a.grad += 1.0  # writing one leaf's gradient leaves the other alone
    np.testing.assert_array_equal(b.grad, c.data)
    assert all(t.grad.flags.c_contiguous for t in (a, b, c))


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
    """Fused linear, layer norm and GELU nodes keep the tapes this small; a
    layer that records its arithmetic node by node again shows up here."""
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
    assert diffusion == [129, 129] and warmup == [58, 58]

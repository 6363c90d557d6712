"""Finite-difference checks for every autodiff operation plus engine behavior."""

import numpy as np
import pytest

from catgen.arplan import generate_ar_steps
from catgen.autodiff import Tensor, concat, collect_tape, gelu, gradients, masked_softmax
from catgen.diffusion import linear_schedule
from catgen.errors import NotOnTapeError, ShapeMismatchError
from catgen.model import ModelConfig, init_params
from catgen.train import TrainConfig, diffusion_trainable, training_loss

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
    """build(tensors) -> scalar Tensor; compares backward against central differences."""
    arrays = [RNG.standard_normal(s) for s in shapes]

    def value(arrs):
        tensors = [Tensor(a, requires_grad=True) for a in arrs]
        return build(tensors).item()

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build(tensors).backward()
    for k, t in enumerate(tensors):
        fd = finite_diff(value, arrays, k, h=h)
        np.testing.assert_allclose(t.grad, fd, atol=atol, rtol=rtol)


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
    for left, right in ((vector, matrix.transpose(1, 0)), (matrix, vector), (np.zeros(3), matrix)):
        with pytest.raises(ShapeMismatchError):  # the model multiplies matrices only
            _ = left @ right


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
    check_grads(lambda ts: ts[0].sum(axis=0).mean(), [(4, 3)])
    check_grads(lambda ts: ts[0].mean(axis=-1, keepdims=True).sum(), [(4, 3)])
    check_grads(lambda ts: ts[0].reshape(6, 2).transpose(1, 0).sum(axis=1).mean(), [(3, 4)])


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
    out = w @ Tensor(b)
    assert isinstance(out, Tensor) and np.array_equal(out.data, w @ b)
    check_grads(lambda ts: (w @ ts[0] + b * ts[0] - b + (b - ts[0])).sum(), [(3, 4)])


def test_array_inputs_give_the_same_arrays_and_record_nothing():
    x = RNG.standard_normal((2, 3, 4))
    blocked = np.zeros((3, 4), dtype=bool)
    blocked[:, 0] = True
    t = Tensor(x, requires_grad=True)
    for array_out, tensor_out in (
        (gelu(x), gelu(t)),
        (masked_softmax(x, blocked), masked_softmax(t, blocked)),
        (concat([x, x], axis=1), concat([t, x], axis=1)),
    ):
        assert type(array_out) is np.ndarray and isinstance(tensor_out, Tensor)
        assert np.array_equal(array_out, tensor_out.data)


def test_exp_tanh_gelu():
    check_grads(lambda ts: ts[0].exp().sum(), [(7,)])
    check_grads(lambda ts: ts[0].tanh().sum(), [(7,)])
    check_grads(lambda ts: gelu(ts[0]).sum(), [(7,)])


def test_clamp_passes_gradient_only_inside():
    x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    x.clamp(-1.0, 1.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_masked_softmax_rows_sum_to_one_and_blocked_zero():
    logits = Tensor(RNG.standard_normal((2, 5, 5)), requires_grad=True)
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
    w = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
    x = np.array([[1.0], [-2.0], [0.5]])
    loss = 0.5 * ((w @ Tensor(x)) ** 2.0).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, np.outer(w.data @ x, x), rtol=1e-12)


def test_backward_requires_scalar():
    with pytest.raises(ShapeMismatchError):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_gradients_reports_missing_parameter():
    a = Tensor(1.0, requires_grad=True)
    b = Tensor(2.0, requires_grad=True)
    loss = (a * 3.0) ** 2.0
    with pytest.raises(NotOnTapeError, match="b"):
        gradients(loss, {"a": a, "b": b})


def test_gradients_accumulate_per_invocation():
    a = Tensor(2.0, requires_grad=True)
    first = gradients((a * a), {"a": a})["a"]
    second = gradients((a * a), {"a": a})["a"]
    np.testing.assert_allclose(first, second)  # fresh tape per forward, no leakage


def test_collect_tape_covers_parents():
    a = Tensor(1.0, requires_grad=True)
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
    tcfg = TrainConfig(T=20)
    return training_loss(st, sc, plan, ts, eps, params, tcfg, linear_schedule(20), rng), tcfg


def test_walk_skips_branches_that_reach_no_requested_parameter():
    params = init_params(ModelConfig(p=6, q=10, d=8, heads=2, blocks=2), np.random.default_rng(1))
    loss, tcfg = diffusion_loss(params)
    names = diffusion_trainable(params, tcfg)
    tape = collect_tape(loss)
    grads = gradients(loss, {n: params[n] for n in names})

    frozen = [n for n in params.names() if n.startswith(("e1.", "enc_var.", "dec."))]
    assert frozen and all(params[n].grad is None for n in frozen)
    visited = [t for t in tape.values() if t._needed]
    assert len(visited) < sum(t.requires_grad for t in tape.values()) < len(tape)
    # after the walk only the requested leaves hold a gradient
    assert {id(t) for t in tape.values() if t.grad is not None} == {id(params[n]) for n in names}
    assert all(grads[n] is params[n].grad and grads[n].flags.c_contiguous for n in names)
    assert all(np.shares_memory(grads[n], grads.flat) for n in names)


def test_backward_without_arguments_fills_every_leaf():
    params = init_params(ModelConfig(p=6, q=10, d=8, heads=2, blocks=2), np.random.default_rng(1))
    loss, _ = diffusion_loss(params)
    leaves = [t for t in collect_tape(loss).values() if t.requires_grad and not t._parents]
    assert {"e1.w1", "enc_var.w", "blk0.wq"} <= {t.name for t in leaves}
    loss.backward()
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape, leaf.name
        assert leaf.grad.flags.c_contiguous, leaf.name
    full = {leaf.name: leaf.grad for leaf in leaves}
    pruned = gradients(loss, {"e1.w1": params["e1.w1"], "blk0.wq": params["blk0.wq"]})
    for name, grad in pruned.items():
        np.testing.assert_array_equal(grad, full[name])


def test_first_contribution_never_aliases_another_gradient():
    a = Tensor(RNG.standard_normal(3), requires_grad=True)
    b = Tensor(RNG.standard_normal(3), requires_grad=True)
    c = Tensor(RNG.standard_normal(3), requires_grad=True)
    ((a + b) * c).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, c.data)
    a.grad += 1.0  # writing one leaf's gradient leaves the other alone
    np.testing.assert_array_equal(b.grad, c.data)
    assert all(t.grad.flags.c_contiguous for t in (a, b, c))

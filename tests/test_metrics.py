"""Metric identities, oracles, and invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgen.errors import DegenerateInputError, EmptyResultError, ShapeMismatchError
from catgen.metrics import aggregate, js_divergence, pcc, rmse_z, score_rows, ssim

RNG = np.random.default_rng(99)

finite_vec = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=12
)


def test_pcc_identities():
    a = np.array([1.0, 2.0, 3.0, 5.0])
    assert pcc(a, a) == pytest.approx(1.0, abs=1e-12)
    assert pcc([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)


def test_pcc_against_covariance_oracle():
    a = RNG.standard_normal(40)
    b = RNG.standard_normal(40)
    cov = ((a - a.mean()) * (b - b.mean())).mean()
    oracle = cov / (a.std() * b.std())
    assert abs(pcc(a, b) - oracle) < 1e-12


# six 0.7s: a constant whose std() rounds to 1.1e-16, not 0
ROUNDED_CONSTANT = np.full(6, 0.7)


def test_pcc_errors():
    with pytest.raises(DegenerateInputError):
        pcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInputError):
        pcc(ROUNDED_CONSTANT, np.arange(6.0))
    with pytest.raises(ShapeMismatchError):
        pcc([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pcc_affine_invariance():
    a = RNG.standard_normal(25)
    b = RNG.standard_normal(25)
    base = pcc(a, b)
    assert abs(pcc(2.5 * a + 1.0, b) - base) < 1e-12
    assert abs(pcc(a, 0.3 * b - 7.0) - base) < 1e-12
    assert abs(pcc(b, a) - base) < 1e-12


def test_ssim_identity_and_constants():
    a = np.array([0.2, 0.5, 0.9])
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)
    assert ssim([2.0, 2.0], [2.0, 2.0]) == 1.0


def test_ssim_detects_offset():
    a = np.array([0.1, 0.2, 0.3, 0.4])
    assert ssim(a, a + 10.0) < 0.5


def test_ssim_hand_computed_oracle():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 2.0, 4.0])
    lo, hi = 0.0, 4.0
    sa, sb = a / hi, b / hi
    mu_a, mu_b = sa.mean(), sb.mean()
    var_a, var_b = sa.var(), sb.var()
    cov = ((sa - mu_a) * (sb - mu_b)).mean()
    oracle = ((2 * mu_a * mu_b + 0.01**2) * (2 * cov + 0.03**2)) / (
        (mu_a**2 + mu_b**2 + 0.01**2) * (var_a + var_b + 0.03**2)
    )
    assert abs(ssim(a, b) - oracle) < 1e-12


def test_rmse_z_identities():
    a = np.array([0.5, 1.5, 4.0])
    assert rmse_z(a, a) == 0.0
    b = -a
    assert rmse_z(a, b) == pytest.approx(2.0, rel=1e-12)


def test_rmse_z_scale_invariance():
    a = RNG.standard_normal(30)
    b = RNG.standard_normal(30)
    base = rmse_z(a, b)
    assert abs(rmse_z(10.0 * a, b) - base) < 1e-12
    assert abs(rmse_z(a + 5.0, 0.1 * b - 2.0) - base) < 1e-12


def test_rmse_z_constant_errors():
    with pytest.raises(DegenerateInputError):
        rmse_z([1.0, 1.0], [0.0, 1.0])
    with pytest.raises(DegenerateInputError):
        rmse_z(np.arange(6.0), ROUNDED_CONSTANT)


def test_js_identities_and_bound():
    a = np.array([0.3, 0.2, 0.5])
    assert js_divergence(a, a) == pytest.approx(0.0, abs=1e-9)
    assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2), abs=1e-9)


def test_js_summation_oracle():
    a = RNG.uniform(0.1, 2.0, size=15)
    b = RNG.uniform(0.1, 2.0, size=15)
    p = a / a.sum()
    q = b / b.sum()
    m = 0.5 * (p + q)
    oracle = 0.5 * sum(pi * math.log(pi / mi) for pi, mi in zip(p, m)) + 0.5 * sum(
        qi * math.log(qi / mi) for qi, mi in zip(q, m)
    )
    assert abs(js_divergence(a, b) - oracle) < 1e-9


def test_js_clamps_negatives_and_rejects_all_zero():
    assert js_divergence([1.0, -0.5, 2.0], [1.0, 0.0, 2.0]) >= 0.0
    with pytest.raises(DegenerateInputError):
        js_divergence([0.0, 0.0], [1.0, 1.0])


def test_js_symmetric():
    a = RNG.uniform(0.0, 3.0, size=10)
    b = RNG.uniform(0.0, 3.0, size=10)
    assert abs(js_divergence(a, b) - js_divergence(b, a)) < 1e-12


def test_pcc_and_rmse_z_score_vectors_whose_squares_underflow():
    tiny = np.array([0.0, 0.0, 1.1486410264934451e-247])
    assert pcc(tiny, tiny) == pytest.approx(1.0, abs=1e-12)  # NaN before the scaling
    assert rmse_z(tiny, tiny) == 0.0
    a = RNG.uniform(0.1, 5.0, 16)
    b = RNG.uniform(0.1, 5.0, 16)
    assert pcc(a * 2.0**-900, b) == pcc(a, b)
    assert rmse_z(a * 2.0**-900, b) == rmse_z(a, b)


def test_aggregate_hand_cases():
    assert aggregate([1.0, 1.0, 1.0]) == (1.0, 0.0)
    assert aggregate([0.0, 1.0]) == (0.5, 0.25)
    with pytest.raises(EmptyResultError):
        aggregate([])


def test_aggregate_two_pass_oracle():
    xs = RNG.standard_normal(100)
    mean, var = aggregate(xs)
    mean_oracle = sum(xs) / len(xs)
    var_oracle = sum((x - mean_oracle) ** 2 for x in xs) / len(xs)
    assert abs(mean - mean_oracle) < 1e-12
    assert abs(var - var_oracle) < 1e-12


@settings(max_examples=150, deadline=None)
@given(a=finite_vec)
def test_property_metrics_at_identity(a):
    arr = np.asarray(a)
    if np.ptp(arr) == 0:  # constant, as pcc and rmse_z define it
        return
    assert pcc(arr, arr) == pytest.approx(1.0, abs=1e-9)
    assert ssim(arr, arr) == pytest.approx(1.0, abs=1e-9)
    assert rmse_z(arr, arr) == 0.0
    if np.clip(arr, 0, None).sum() > 0:
        assert js_divergence(arr, arr) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(a=finite_vec, seed=st.integers(0, 1000))
def test_property_js_bounded(a, seed):
    arr = np.asarray(a)
    other = np.random.default_rng(seed).uniform(0.0, 5.0, size=arr.size)
    if np.clip(arr, 0, None).sum() == 0 or other.sum() == 0:
        return
    value = js_divergence(arr, other)
    assert -1e-12 <= value <= math.log(2) + 1e-9


def test_score_rows_gives_one_list_per_metric_and_nan_where_undefined():
    pred = np.array([[1.0, 2.0, 4.0, 3.0], [2.0, 2.0, 2.0, 2.0], [0.5, 3.0, 1.0, 2.0]])
    truth = RNG.uniform(0.0, 5.0, size=pred.shape)
    got = score_rows(pred, truth, [ssim, pcc])
    assert got[0] == [ssim(a, b) for a, b in zip(pred, truth)]
    assert got[1][0] == pcc(pred[0], truth[0]) and got[1][2] == pcc(pred[2], truth[2])
    assert math.isnan(got[1][1])  # a constant row has no correlation
    with pytest.raises(ShapeMismatchError):
        score_rows(pred, truth[:2], [pcc])

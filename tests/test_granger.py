"""Granger F-tests: statistic identities, special-function accuracy, screening."""

import math

import numpy as np
import pytest
from scipy import integrate

from catgen.data import ExpressionMatrix
from catgen.errors import DegenerateInputError, ShapeMismatchError
from catgen.granger import (
    GrangerResult,
    f_survival,
    rank_results,
    reg_inc_beta,
    screen,
)
from catgen.granger import test_pair as granger_test_pair
from catgen.synth import ChainEdge, SynthConfig, generate


def ar_pair(n=200, coeff=0.9, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = np.zeros(n)
    y[1:] = coeff * x[:-1]
    y += noise * rng.standard_normal(n)
    return x, y


def test_planted_dependence_is_significant():
    x, y = ar_pair()
    result = granger_test_pair(x, y, lag=1)
    assert result.p_value < 1e-6
    assert result.f_stat > 100


def test_reverse_direction_is_weaker():
    x, y = ar_pair()
    forward = granger_test_pair(x, y, lag=1)
    backward = granger_test_pair(y, x, lag=1)
    assert forward.f_stat > backward.f_stat


def test_null_calibration():
    rng = np.random.default_rng(42)
    rejections = 0
    trials = 400
    for _ in range(trials):
        x = rng.standard_normal(120)
        y = rng.standard_normal(120)
        if granger_test_pair(x, y, lag=1).p_value < 0.05:
            rejections += 1
    assert rejections / trials <= 0.10


def test_degenerate_inputs():
    x = np.random.default_rng(0).standard_normal(50)
    with pytest.raises(DegenerateInputError):
        granger_test_pair(x, np.ones(50), lag=1)
    with pytest.raises(DegenerateInputError):
        granger_test_pair(np.zeros(50), x, lag=1)


def test_too_short_series():
    with pytest.raises(ShapeMismatchError):
        granger_test_pair(np.arange(5.0), np.arange(5.0), lag=1)  # needs >= 6
    with pytest.raises(ShapeMismatchError):
        granger_test_pair(np.arange(8.0), np.arange(8.0), lag=2)  # needs >= 9


def test_f_statistic_affine_invariance():
    x, y = ar_pair(seed=3)
    base = granger_test_pair(x, y, lag=2)
    scaled = granger_test_pair(10.0 * x, y, lag=2)
    shifted = granger_test_pair(x, 3.0 * y + 7.0, lag=2)
    assert abs(scaled.f_stat - base.f_stat) <= 1e-8 * base.f_stat
    assert abs(shifted.f_stat - base.f_stat) <= 1e-8 * base.f_stat


def test_nested_models_nonnegative_f():
    rng = np.random.default_rng(11)
    for seed in range(20):
        x = rng.standard_normal(60)
        y = rng.standard_normal(60)
        assert granger_test_pair(x, y, lag=2).f_stat >= 0.0


def f_density(u, d1, d2):
    logpdf = (
        0.5 * d1 * math.log(d1 / d2)
        + (0.5 * d1 - 1.0) * math.log(u)
        - 0.5 * (d1 + d2) * math.log1p(d1 * u / d2)
        - (math.lgamma(0.5 * d1) + math.lgamma(0.5 * d2) - math.lgamma(0.5 * (d1 + d2)))
    )
    return math.exp(logpdf)


def test_survival_function_against_quadrature():
    for d1, d2 in [(1, 8), (2, 20), (3, 50), (5, 5), (1, 197)]:
        for f in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            tail, err = integrate.quad(
                f_density, f, np.inf, args=(d1, d2), limit=500, epsabs=1e-12, epsrel=1e-12
            )
            assert err < 1e-10
            assert abs(f_survival(f, d1, d2) - tail) < 1e-8


def test_survival_function_edges():
    assert f_survival(0.0, 2, 10) == 1.0
    assert f_survival(1e9, 2, 10) < 1e-12
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0


def test_p_monotone_decreasing_in_f():
    ps = [f_survival(f, 2, 30) for f in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_rank_results_tie_break():
    a = GrangerResult("B", "C", 1, 5.0, 0.1)
    b = GrangerResult("A", "D", 1, 5.0, 0.1)
    c = GrangerResult("Z", "A", 1, 9.0, 0.01)
    ranked = rank_results([a, b, c], top_k=3)
    assert [r.driver for r in ranked] == ["Z", "A", "B"]
    assert rank_results([a, b, c], top_k=0) == []


def test_screen_recovers_planted_chain():
    cfg = SynthConfig(
        n_genes=5,
        n_spots=16,
        n_cells=400,
        chain_edges=[ChainEdge(i, i + 1, 0.9, 1) for i in range(4)],
        noise_sd=0.05,
        seed=6,
    )
    _, sc, edges = generate(cfg)
    results = screen(sc, lag=1, top_k=4)
    found = {(r.driver, r.target) for r in results}
    assert found == {(d, t) for d, t, _, _ in edges}
    assert all(r.p_value < 1e-6 for r in results)


def test_screen_orders_direction_correctly():
    cfg = SynthConfig(
        n_genes=2,
        n_spots=16,
        n_cells=300,
        chain_edges=[ChainEdge(0, 1, 0.9, 1)],
        noise_sd=0.05,
        seed=1,
    )
    _, sc, _ = generate(cfg)
    results = screen(sc, lag=1, top_k=2)
    assert (results[0].driver, results[0].target) == ("G000", "G001")


def test_screen_skips_degenerate_pairs(caplog):
    values = np.vstack([np.random.default_rng(0).standard_normal(50) + 2.0,
                        np.full(50, 3.0),
                        np.random.default_rng(1).standard_normal(50) + 2.0])
    m = ExpressionMatrix(["A", "B", "C"], [f"c{i}" for i in range(50)], np.abs(values))
    m.values[1] = 3.0  # constant gene
    with caplog.at_level("WARNING"):
        results = screen(m, lag=1, top_k=10)
    assert len(results) == 2  # only A<->C pairs survive
    assert "skipped" in caplog.text


def test_screen_needs_two_genes():
    m = ExpressionMatrix(["A"], ["c0", "c1"], np.ones((1, 2)))
    with pytest.raises(ShapeMismatchError):
        screen(m, lag=1, top_k=1)

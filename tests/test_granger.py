"""Granger F-tests: statistic identities, special-function accuracy, screening."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from catgen import granger
from catgen.data import ExpressionMatrix
from catgen.errors import DegenerateInputError, ShapeMismatchError
from catgen.granger import (
    GrangerResult,
    f_statistics,
    f_survival,
    rank_results,
    reg_inc_beta,
    screen,
)
from catgen.granger import test_pair as granger_test_pair
from catgen.synth import ChainEdge, SynthConfig, generate
from catgen.train import _granger_gene_order


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
    large = 1e3 + np.random.default_rng(0).uniform(0.0, 5.0, 20)
    with pytest.raises(DegenerateInputError, match="singular normal equations"):
        granger_test_pair(large, large.copy(), lag=1)


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


# -- the batched F matrix chooses, test_pair reports -----------------------------------


@st.composite
def expression(draw):
    """A matrix and a lag. Each row is pure noise, driven at lag 1 by the row
    before it, constant, or an exact copy of an earlier row (ties in F); a
    large copy is a row near 1e3 and its copy, whose normal equations the
    absolute ``_RIDGE`` leaves singular."""
    lag = draw(st.integers(1, 2))
    n_spots = draw(st.integers(3 * lag + 3, 20))
    kinds = ["noise", "driven", "constant", "copy", "large copy"]
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = []
    for kind in kinds:
        row = rng.uniform(0.0, 5.0, n_spots)
        if kind == "driven" and rows:
            row[1:] = 0.8 * rows[-1][:-1] + 0.2 * row[1:]
        elif kind == "constant":
            row[:] = row[0]
        elif kind == "copy" and rows:
            row = rows[rng.integers(len(rows))].copy()
        elif kind == "large copy":
            rows.append(row + 1e3)
            row = rows[-1].copy()
        rows.append(row)
    genes = [f"g{i}" for i in range(len(rows))]
    return ExpressionMatrix(genes, [f"s{j}" for j in range(n_spots)], np.array(rows)), lag


def exhaustive(m, lag):
    """Every ordered pair through ``test_pair``, degenerate pairs skipped."""
    results = []
    for i, driver in enumerate(m.gene_ids):
        for j, target in enumerate(m.gene_ids):
            if i != j:
                try:
                    results.append(granger_test_pair(m.values[i], m.values[j], lag, driver, target))
                except DegenerateInputError:
                    pass
    return results


@settings(max_examples=150, deadline=None)
@given(case=expression(), top_k=st.integers(0, 45))
def test_screen_is_the_exhaustive_screen(case, top_k):
    m, lag = case
    assert screen(m, lag, top_k) == rank_results(exhaustive(m, lag), top_k)


@settings(max_examples=150, deadline=None)
@given(case=expression(), data=st.data())
def test_granger_gene_order_is_the_exhaustive_order(case, data):
    m, _ = case
    genes = data.draw(st.permutations(range(m.n_genes)))[: data.draw(st.integers(1, m.n_genes))]
    strength = dict.fromkeys(genes, 0.0)  # reference: the pairwise loop, written out
    for gi in genes:
        for gj in genes:
            if gi != gj:
                try:
                    f_stat = granger_test_pair(m.values[gi], m.values[gj], lag=1).f_stat
                except DegenerateInputError:
                    continue
                strength[gi] = max(strength[gi], f_stat)
    assert _granger_gene_order(m, genes) == sorted(genes, key=lambda g: (-strength[g], g))


@settings(max_examples=150, deadline=None)
@given(case=expression())
def test_f_statistics_lie_within_their_slack_of_test_pair(case):
    m, lag = case
    f, slack = f_statistics(m.values, lag)
    tested = {(r.driver, r.target) for r in exhaustive(m, lag)}
    constant = np.ptp(m.values, axis=1) == 0.0
    for i, driver in enumerate(m.gene_ids):
        for j, target in enumerate(m.gene_ids):
            assert np.isnan(f[i, j]) == (i == j or constant[i] or constant[j])
            if (driver, target) in tested:
                exact = granger_test_pair(m.values[i], m.values[j], lag).f_stat
                assert abs(f[i, j] - exact) <= slack[i, j]


@settings(max_examples=50, deadline=None)
@given(lag=st.integers(-2, 3), n_spots=st.integers(1, 12))
def test_f_statistics_reject_what_test_pair_rejects(lag, n_spots):
    values = np.random.default_rng(n_spots).uniform(0.0, 5.0, (3, n_spots))
    try:
        granger_test_pair(values[0], values[1], lag)
    except ShapeMismatchError as exc:
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(str(exc))}$"):
            f_statistics(values, lag)
    else:
        assert f_statistics(values, lag)[0].shape == (3, 3)


def test_a_target_whose_stacked_solve_is_singular_is_left_to_test_pair(monkeypatch):
    values = np.random.default_rng(5).uniform(0.0, 5.0, (4, 16))
    m = ExpressionMatrix(["a", "b", "c", "d"], [f"s{j}" for j in range(16)], values)
    normal_rss, stacks = granger._normal_rss, []

    def singular_first_stack(gram, rhs, ss):
        if gram.ndim == 3:
            stacks.append(1)
            if len(stacks) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
        return normal_rss(gram, rhs, ss)

    monkeypatch.setattr(granger, "_normal_rss", singular_first_stack)
    f, slack = f_statistics(values, 1)
    assert (f[1:, 0] == 0.0).all() and (slack[1:, 0] == np.inf).all()
    calls = []
    test_pair = granger.test_pair
    monkeypatch.setattr(granger, "test_pair", lambda *a, **k: calls.append(a[3:]) or test_pair(*a, **k))
    stacks.clear()
    assert screen(m, 1, 1) == rank_results(exhaustive(m, 1), 1)
    assert {("b", "a"), ("c", "a"), ("d", "a")} <= set(calls)


def test_a_pair_test_pair_finds_singular_is_skipped_and_the_choice_redone(monkeypatch, caplog):
    """A skipped pair may have been chosen on its batched F alone: the pairs
    behind it are then chosen and tested, as the exhaustive loop would."""
    values = np.random.default_rng(7).uniform(0.0, 5.0, (5, 16))
    values[1, 1:] = 0.9 * values[0, :-1] + 0.1 * values[1, 1:]  # a0 -> a1 is the strongest pair
    m = ExpressionMatrix([f"a{i}" for i in range(5)], [f"s{j}" for j in range(16)], values)
    test_pair = granger.test_pair

    def singular_strongest(x, y, *args):
        if np.array_equal(x, values[0]) and np.array_equal(y, values[1]):
            raise DegenerateInputError("singular normal equations")
        return test_pair(x, y, *args)

    monkeypatch.setattr(granger, "test_pair", singular_strongest)
    strongest, *reference = rank_results(exhaustive(m, 1), 20)
    assert (strongest.driver, strongest.target) == ("a0", "a1")
    with caplog.at_level("WARNING"):
        assert screen(m, 1, 2) == rank_results(reference, 2)
    assert "skipped 1 gene pairs with singular normal equations" in caplog.text
    strength = dict.fromkeys(range(5), 0.0)
    for r in reference:
        strength[int(r.driver[1:])] = max(strength[int(r.driver[1:])], r.f_stat)
    genes = list(range(5))
    assert _granger_gene_order(m, genes) == sorted(genes, key=lambda g: (-strength[g], g))

"""Synthetic data generator: planted structure, dropout, determinism."""

import graphlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgen.data import ExpressionMatrix
from catgen.errors import ShapeMismatchError
from catgen.synth import ChainEdge, SynthConfig, chain_config, gene_name, generate


def test_lagged_correlation_of_planted_edge():
    cfg = SynthConfig(
        n_genes=4,
        n_spots=16,
        n_cells=400,
        chain_edges=[ChainEdge(0, 1, 0.9, 1)],
        noise_sd=0.01,
        seed=3,
    )
    st, sc, edges = generate(cfg)
    driver = sc.values[0]
    target = sc.values[1]
    corr = np.corrcoef(target[1:], driver[:-1])[0, 1]
    assert corr > 0.95
    assert edges == [("G000", "G001", 0.9, 1)]


def test_zero_dropout_only_structural_zeros():
    cfg = chain_config(n_genes=8, n_spots=8, n_cells=32, dropout_rate=0.0, seed=1)
    st, sc, _ = generate(cfg)
    # the shift pins the global minimum at zero; nothing else is zeroed
    assert (sc.values == 0).sum() <= 1
    assert (st.values == 0).sum() <= 1


def test_dropout_fraction_matches_rate():
    cfg = chain_config(n_genes=25, n_spots=16, n_cells=400, dropout_rate=0.8, seed=2)
    _, sc, _ = generate(cfg)
    frac = (sc.values == 0).mean()
    assert abs(frac - 0.8) < 0.05


def test_deterministic_given_seed():
    cfg = chain_config(seed=7)
    st1, sc1, e1 = generate(cfg)
    st2, sc2, e2 = generate(chain_config(seed=7))
    np.testing.assert_array_equal(st1.values, st2.values)
    np.testing.assert_array_equal(sc1.values, sc2.values)
    assert e1 == e2
    st3, _, _ = generate(chain_config(seed=8))
    assert not np.array_equal(st1.values, st3.values)


def test_st_is_prefix_of_sc_before_dropout():
    cfg = chain_config(n_genes=6, n_spots=5, n_cells=20, dropout_rate=0.0, seed=4)
    st, sc, _ = generate(cfg)
    # same underlying series, same shift applied per matrix up to each matrix's min
    st_shift = st.values - st.values.min()
    sc_shift = sc.values[:, :5] - sc.values[:, :5].min()
    np.testing.assert_allclose(st_shift, sc_shift, atol=1e-12)


def test_cycle_detection():
    cfg = SynthConfig(
        n_genes=3,
        chain_edges=[ChainEdge(0, 1, 0.5), ChainEdge(1, 2, 0.5), ChainEdge(2, 0, 0.5)],
        seed=0,
    )
    with pytest.raises(ShapeMismatchError, match="cycle"):
        generate(cfg)


def test_config_validation():
    with pytest.raises(ShapeMismatchError):
        SynthConfig(n_genes=0)
    with pytest.raises(ShapeMismatchError):
        SynthConfig(dropout_rate=1.0)
    with pytest.raises(ShapeMismatchError):
        SynthConfig(chain_edges=[ChainEdge(0, 99, 0.5)])
    with pytest.raises(ShapeMismatchError):
        ChainEdge(0, 1, 0.5, lag=0)
    # each float64 array generate makes must fit numpy's index range
    with pytest.raises(ShapeMismatchError, match="a 100000000000000000000 x 64 matrix is beyond"):
        SynthConfig(n_genes=10**20)
    with pytest.raises(ShapeMismatchError, match="a 100000000000000000000 x 64 matrix is beyond"):
        SynthConfig(n_factors=10**20)
    with pytest.raises(ShapeMismatchError, match="a 32 x 100000000000000000000 matrix is beyond"):
        SynthConfig(n_cells=10**20)


def test_edge_text_round_trip():
    assert ChainEdge.from_text("3->5:0.75:2") == ChainEdge(3, 5, 0.75, 2)
    assert ChainEdge.from_text("0->1:0.9") == ChainEdge(0, 1, 0.9, 1)  # the lag defaults to 1
    with pytest.raises(ShapeMismatchError):
        ChainEdge.from_text("0-1:0.9")


def test_values_nonnegative_and_finite():
    st, sc, _ = generate(chain_config(n_genes=10, dropout_rate=0.3, seed=9))
    for m in (st, sc):
        assert (m.values >= 0).all()
        assert np.isfinite(m.values).all()


def per_gene_generate(cfg):
    """``generate`` as a per-gene loop: every gene in a topological order of
    all genes, a root as its factor mixture plus noise, a target as noise plus
    its lagged drivers."""
    drivers = {g: [] for g in range(cfg.n_genes)}
    incoming = {g: [] for g in range(cfg.n_genes)}
    for e in cfg.chain_edges:
        drivers[e.target].append(e.driver)
        incoming[e.target].append(e)
    order = graphlib.TopologicalSorter(drivers).static_order()
    rng = np.random.default_rng(cfg.seed)
    length = max(cfg.n_spots, cfg.n_cells)
    factors = rng.standard_normal((cfg.n_factors, length))
    loadings = rng.standard_normal((cfg.n_genes, cfg.n_factors))
    loadings /= np.linalg.norm(loadings, axis=1, keepdims=True)
    base = rng.standard_normal((cfg.n_genes, length))
    series = np.zeros((cfg.n_genes, length))
    for g in order:
        if not incoming[g]:
            series[g] = loadings[g] @ factors + cfg.noise_sd * base[g]
            continue
        signal = cfg.noise_sd * base[g]
        for e in incoming[g]:
            signal[e.lag :] += e.coeff * series[e.driver][: length - e.lag]
        series[g] = signal
    genes = [gene_name(i, cfg.n_genes) for i in range(cfg.n_genes)]

    def finish(values, obs_prefix):
        shifted = values - min(values.min(), 0.0)
        if cfg.dropout_rate > 0.0:
            shifted = np.where(rng.random(shifted.shape) < cfg.dropout_rate, 0.0, shifted)
        obs = [f"{obs_prefix}{j}" for j in range(values.shape[1])]
        return ExpressionMatrix(gene_ids=list(genes), obs_ids=obs, values=shifted)

    st_matrix = finish(series[:, : cfg.n_spots].copy(), "spot")
    sc_matrix = finish(series[:, : cfg.n_cells].copy(), "cell")
    return st_matrix, sc_matrix, [(genes[e.driver], genes[e.target], e.coeff, e.lag) for e in cfg.chain_edges]


@st.composite
def lagged_dags(draw):
    """A config whose edges form a random DAG: several drivers per target,
    lags 1-3, genes on no edge, and genes ranked by a random permutation, so a
    target's index may sit below its drivers'."""
    n_genes = draw(st.integers(1, 12))
    rank = draw(st.permutations(range(n_genes)))
    edges = []
    for a, b, coeff, lag in draw(st.lists(
        st.tuples(st.integers(0, n_genes - 1), st.integers(0, n_genes - 1),
                  st.floats(-2.0, 2.0), st.integers(1, 3)),
        max_size=24,
    )):
        if a != b:
            edges.append(ChainEdge(rank[min(a, b)], rank[max(a, b)], coeff, lag))
    return SynthConfig(
        n_genes=n_genes, n_spots=draw(st.integers(1, 10)), n_cells=draw(st.integers(1, 24)),
        chain_edges=edges, noise_sd=draw(st.floats(0.0, 1.0)),
        dropout_rate=draw(st.sampled_from([0.0, 0.3])), n_factors=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=lagged_dags())
def test_generate_is_the_per_gene_loop_bitwise(cfg):
    got, want = generate(cfg), per_gene_generate(cfg)
    for g, w in zip(got[:2], want[:2]):
        assert (g.gene_ids, g.obs_ids) == (w.gene_ids, w.obs_ids)
        assert g.values.tobytes() == w.values.tobytes()
    assert got[2] == want[2]

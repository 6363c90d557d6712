"""Synthetic data generator: planted structure, dropout, determinism."""

import numpy as np
import pytest

from catgen.errors import ShapeMismatchError
from catgen.synth import ChainEdge, SynthConfig, chain_config, generate


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

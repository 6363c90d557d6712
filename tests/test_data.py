"""Loading, QC, normalization, HVG selection and gene splits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgen.data import (
    DataOptions,
    ExpressionMatrix,
    load_matrix,
    normalize,
    prepare_pair,
    qc_filter,
    save_matrix,
    select_hvg,
    split_genes,
)
from catgen.errors import (
    DataFormatError,
    DegenerateInputError,
    EmptyResultError,
    ShapeMismatchError,
)


def write(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    return path


def test_load_round_trip(tmp_path):
    path = write(tmp_path, "gene_id,o1,o2,o3\nG1,1,2,3\nG2,4,5,6\n")
    m = load_matrix(path)
    assert m.gene_ids == ["G1", "G2"]
    assert m.obs_ids == ["o1", "o2", "o3"]
    np.testing.assert_array_equal(m.values, [[1, 2, 3], [4, 5, 6]])

    out = tmp_path / "round.csv"
    save_matrix(m, out)
    again = load_matrix(out)
    assert again.gene_ids == m.gene_ids and again.obs_ids == m.obs_ids
    np.testing.assert_array_equal(again.values, m.values)


def test_load_duplicate_gene(tmp_path):
    path = write(tmp_path, "gene_id,o1\nG1,1\nG1,2\n")
    with pytest.raises(DataFormatError, match="duplicate gene id 'G1'"):
        load_matrix(path)


def test_load_non_numeric_names_position(tmp_path):
    path = write(tmp_path, "gene_id,o1,o2\nG1,1,abc\n")
    with pytest.raises(DataFormatError, match="row 2, column 3"):
        load_matrix(path)


def test_load_ragged_row(tmp_path):
    path = write(tmp_path, "gene_id,o1,o2\nG1,1\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_matrix(path)


@pytest.mark.parametrize(
    "text, position",
    [
        ("gene_id,o1,o2\nG1,1,2\nG2,3,-1\n", "'-1' is not a finite nonnegative value at row 3, column 3"),
        ("gene_id,o1,o2\nG1,nan,2\n", "'nan' is not a finite nonnegative value at row 2, column 2"),
        ("gene_id,o1,o2\nG1,1,inf\n", "'inf' is not a finite nonnegative value at row 2, column 3"),
        ("gene_id,o1,o2,o1\nG1,1,2,3\n", "duplicate observation id 'o1' at row 1, column 4"),
    ],
    ids=["negative", "nan", "inf", "duplicate-observation"],
)
def test_load_names_the_file_and_position_of_a_bad_value_or_id(tmp_path, text, position):
    path = write(tmp_path, text)
    with pytest.raises(DataFormatError) as info:
        load_matrix(path)
    assert str(info.value) == f"{path}: {position}"


def test_load_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_matrix(tmp_path / "absent.csv")


def test_matrix_invariants():
    with pytest.raises(DataFormatError):
        ExpressionMatrix(["G1"], ["o1"], np.array([[np.nan]]))
    with pytest.raises(DataFormatError):
        ExpressionMatrix(["G1"], ["o1"], np.array([[-1.0]]))
    with pytest.raises(ShapeMismatchError):
        ExpressionMatrix(["G1", "G2"], ["o1"], np.array([[1.0]]))


def sc_matrix(values):
    values = np.asarray(values, dtype=float)
    return ExpressionMatrix(
        [f"G{i}" for i in range(values.shape[0])],
        [f"c{j}" for j in range(values.shape[1])],
        values,
    )


def test_qc_removes_cells_below_500_detected_genes():
    rng = np.random.default_rng(0)
    values = rng.uniform(1, 2, size=(600, 2))
    values[500:, 0] = 0.0  # first cell detects 500 genes, second detects 600
    values[499:, 1] = 0.0  # second now detects 499
    values[:, 1], values[:, 0] = values[:, 0].copy(), values[:, 1].copy()
    m = sc_matrix(values)
    kept = qc_filter(m, DataOptions().min_genes_sc)
    assert kept.obs_ids == ["c1"]
    assert kept.gene_ids == m.gene_ids


def test_qc_removes_all_zero_spot():
    m = ExpressionMatrix(["G0", "G1"], ["s0", "s1"], np.array([[0.0, 1.0], [0.0, 2.0]]))
    kept = qc_filter(m, DataOptions().min_genes_st)
    assert kept.obs_ids == ["s1"]


def test_qc_noop_and_idempotent():
    m = sc_matrix(np.ones((600, 3)))
    once = qc_filter(m, DataOptions().min_genes_sc)
    twice = qc_filter(once, DataOptions().min_genes_sc)
    assert once.obs_ids == m.obs_ids
    np.testing.assert_array_equal(once.values, twice.values)


def test_qc_all_removed():
    m = ExpressionMatrix(["G0"], ["s0", "s1"], np.array([[0.0, 0.0]]))
    with pytest.raises(EmptyResultError, match=r"s0\.\.s1 \(threshold 1\)"):
        qc_filter(m, 1)


def test_normalize_hand_example_single_observation():
    m = ExpressionMatrix(["G0", "G1", "G2"], ["s0"], np.array([[1.0], [1.0], [2.0]]))
    normd = normalize(m)
    np.testing.assert_allclose(
        normd.values[:, 0], [math.log(2), math.log(2), math.log(3)], rtol=1e-12
    )


def test_normalize_median_of_two_totals_is_midpoint():
    m = ExpressionMatrix(
        ["G0", "G1"], ["s0", "s1"], np.array([[1.0, 2.0], [1.0, 4.0]])
    )  # totals 2 and 6, N = 4
    normd = normalize(m)
    np.testing.assert_allclose(normd.values[0, 0], math.log(4 * 1 / 2 + 1), rtol=1e-12)
    np.testing.assert_allclose(normd.values[1, 1], math.log(4 * 4 / 6 + 1), rtol=1e-12)


def test_normalize_keeps_zeros_zero():
    m = ExpressionMatrix(["G0", "G1"], ["s0"], np.array([[0.0], [3.0]]))
    assert normalize(m).values[0, 0] == 0.0


def test_normalize_rejects_zero_total():
    m = ExpressionMatrix(["G0"], ["s0", "s1"], np.array([[1.0, 0.0]]))
    with pytest.raises(DegenerateInputError, match="s1"):
        normalize(m)


def test_normalize_conserves_scaled_library_size():
    rng = np.random.default_rng(3)
    m = sc_matrix(rng.uniform(0, 5, size=(20, 7)))
    normd = normalize(m)
    n_median = float(np.median(m.values.sum(axis=0)))
    restored = (np.exp(normd.values) - 1.0).sum(axis=0)
    np.testing.assert_allclose(restored, n_median, rtol=1e-9)


def test_hvg_selects_top_variance():
    values = np.zeros((4, 3))
    values[0] = [1.0, 1.1, 1.2]  # var 0.1-ish scale
    values[1] = [0.0, 3.0, 6.0]  # largest variance
    values[2] = [1.0, 2.0, 3.0]
    values[3] = [2.0, 2.0, 2.0]  # zero variance
    m = sc_matrix(values)
    kept = select_hvg(m, 0.25)
    assert kept.gene_ids == ["G1"]


def test_hvg_identity_fraction():
    m = sc_matrix(np.random.default_rng(0).uniform(size=(5, 4)))
    kept = select_hvg(m, 1.0)
    assert kept.gene_ids == m.gene_ids
    np.testing.assert_array_equal(kept.values, m.values)


def test_hvg_tie_keeps_lower_index():
    values = np.array(
        [[0.0, 2.0], [5.0, 7.0], [1.0, 1.0]]
    )  # genes 0 and 1 tie on variance 1.0
    kept = select_hvg(sc_matrix(values), 0.34)  # ceil(0.34 * 3) = 2 -> both tied genes
    assert kept.gene_ids == ["G0", "G1"]
    kept_one = select_hvg(sc_matrix(values), 0.01)  # ceil -> 1 gene, tie at the cut
    assert kept_one.gene_ids == ["G0"]


def test_hvg_invalid_fraction():
    m = sc_matrix(np.ones((2, 2)))
    for frac in (0.0, -0.1, 1.5):
        with pytest.raises(ShapeMismatchError):
            select_hvg(m, frac)


def test_hvg_invariant_under_observation_permutation():
    rng = np.random.default_rng(8)
    values = rng.uniform(size=(10, 6))
    m = sc_matrix(values)
    permuted = sc_matrix(values[:, rng.permutation(6)])
    assert select_hvg(m, 0.3).gene_ids == select_hvg(permuted, 0.3).gene_ids


def test_split_ten_genes():
    split = split_genes(range(10), seed=1)
    assert (len(split.train_genes), len(split.val_genes), len(split.test_genes)) == (7, 2, 1)
    union = set(split.train_genes) | set(split.val_genes) | set(split.test_genes)
    assert union == set(range(10))


def test_split_deterministic_and_seed_sensitive():
    a = split_genes(range(100), seed=5)
    b = split_genes(range(100), seed=5)
    c = split_genes(range(100), seed=6)
    assert repr(a) == repr(b)
    assert a != c


def test_split_too_few():
    with pytest.raises(EmptyResultError):
        split_genes(range(9), seed=0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=10, max_value=500), seed=st.integers(0, 2**31 - 1))
def test_split_proportions_property(n, seed):
    split = split_genes(range(n), seed=seed)
    sizes = (len(split.train_genes), len(split.val_genes), len(split.test_genes))
    assert sum(sizes) == n
    assert len(split.test_genes) >= 1
    for size, frac in zip(sizes, (0.7, 0.2, 0.1)):
        assert abs(size - frac * n) <= 1.0 + 1e-9
    assert not (set(split.train_genes) & set(split.test_genes))


def test_prepare_pair_intersects_after_hvg():
    rng = np.random.default_rng(2)
    st_vals = rng.uniform(0.1, 4.0, size=(8, 5))
    sc_vals = rng.uniform(0.1, 4.0, size=(8, 9))
    st_m = ExpressionMatrix([f"G{i}" for i in range(8)], [f"s{j}" for j in range(5)], st_vals)
    sc_m = ExpressionMatrix([f"G{i}" for i in range(8)], [f"c{j}" for j in range(9)], sc_vals)
    pair = prepare_pair(st_m, sc_m, top_fraction=1.0, min_genes_sc=1, min_genes_st=1)
    assert pair.st.gene_ids == pair.sc.gene_ids == pair.genes

    strict = prepare_pair(st_m, sc_m, top_fraction=0.5, min_genes_sc=1, min_genes_st=1)
    assert set(strict.genes) <= set(pair.genes)
    assert strict.st.gene_ids == strict.sc.gene_ids


def test_prepare_pair_empty_intersection():
    st_vals = np.array([[1.0, 5.0], [2.0, 2.0]])
    sc_vals = np.array([[3.0, 3.0], [1.0, 9.0]])
    st_m = ExpressionMatrix(["A", "B"], ["s0", "s1"], st_vals)
    sc_m = ExpressionMatrix(["A", "B"], ["c0", "c1"], sc_vals)
    # HVG keeps gene A for ST (var) and gene B for SC -> empty intersection
    with pytest.raises(EmptyResultError):
        prepare_pair(st_m, sc_m, top_fraction=0.5, min_genes_sc=1, min_genes_st=1, apply_normalize=False)


def _csv_text(prefix, values):
    """A matrix file over genes G0.. and observations ``prefix``0.., written by hand."""
    header = ",".join(["gene_id", *(f"{prefix}{j}" for j in range(values.shape[1]))])
    rows = (",".join([f"G{i}", *(str(v) for v in row)]) for i, row in enumerate(values))
    return "\n".join([header, *rows]) + "\n"


def _weak_pair(tmp_path):
    """ST and SC files over 4 genes; spot s1 and cell c1 detect 2 genes, the others 4."""
    values = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 1.0], [3.0, 0.0, 2.0], [1.0, 0.0, 4.0]])
    paths = tmp_path / "st.csv", tmp_path / "sc.csv"
    paths[0].write_text(_csv_text("s", values))
    paths[1].write_text(_csv_text("c", 2.0 * values))
    return paths


def test_each_qc_threshold_drops_only_its_own_argument(tmp_path):
    st_m, sc_m = (load_matrix(path) for path in _weak_pair(tmp_path))
    kept = prepare_pair(st_m, sc_m, top_fraction=1.0, min_genes_st=2, min_genes_sc=2)
    assert (kept.st.obs_ids, kept.sc.obs_ids) == (["s0", "s1", "s2"], ["c0", "c1", "c2"])
    st_strict = prepare_pair(st_m, sc_m, top_fraction=1.0, min_genes_st=3, min_genes_sc=1)
    assert (st_strict.st.obs_ids, st_strict.sc.obs_ids) == (["s0", "s2"], ["c0", "c1", "c2"])
    sc_strict = prepare_pair(st_m, sc_m, top_fraction=1.0, min_genes_st=1, min_genes_sc=3)
    assert (sc_strict.st.obs_ids, sc_strict.sc.obs_ids) == (["s0", "s1", "s2"], ["c0", "c2"])


def test_an_sc_file_loaded_with_no_role_is_filtered_at_the_sc_threshold(tmp_path):
    st_path, sc_path = _weak_pair(tmp_path)
    pair = prepare_pair(load_matrix(st_path), load_matrix(sc_path), top_fraction=1.0, min_genes_sc=3)
    assert pair.st.obs_ids == ["s0", "s1", "s2"]  # min_genes_st keeps its default of 1
    assert pair.sc.obs_ids == ["c0", "c2"]

"""The command-line entry point end to end: synth, train, generate, eval,
mask, granger, ablate, exit codes and byte-identical reruns."""

import dataclasses
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from catgen import cli, config, data, granger, train
from catgen import generate as generate_module
from catgen import mask as mask_module
from catgen import model as model_module
from catgen.arplan import ARStepPlan
from catgen.config import train_config
from catgen.data import DataOptions, ExpressionMatrix, load_matrix, normalize, save_matrix
from catgen.diffusion import linear_schedule
from catgen.errors import DataFormatError
from catgen.generate import generate_genes
from catgen.mask import build_mask
from catgen.metrics import js_divergence, pcc, rmse_z, ssim
from catgen.model import (
    ModelConfig,
    TokenBatch,
    encode,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

SEED = ["--seed", "3"]
TINY_TRAIN = [
    "--set", "data.qc_min_genes_sc=1", "--set", "data.hvg_fraction=1.0",
    "--set", "train.recon_epochs=3", "--set", "train.epochs=2",
    "--set", "model.d=8", "--set", "model.heads=2", "--set", "model.blocks=1",
    "--set", "diffusion.T=20",
]
DECAY = "ar.decay=0.7,0.8,0.9,1.0"  # the ablate grid of ar_decay settings


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth = [
        "synth", "--out-dir", str(root), *SEED,
        "--set", "synth.n_genes=24", "--set", "synth.n_spots=6", "--set", "synth.n_cells=12",
    ]
    assert cli.main(synth) == 0
    train = [
        "train", "--st", str(root / "st.csv"), "--sc", str(root / "sc.csv"),
        "--out", str(root / "model.catg"), "--save-prepared", str(root / "prep"),
        *SEED, *TINY_TRAIN,
    ]
    assert cli.main(train) == 0
    return root


def _generate(root, genes, out, groups="2"):
    return cli.main([
        "generate", "--ckpt", str(root / "model.catg"), "--sc", str(root / "sc.csv"),
        "--genes", str(genes), "--out", str(out), "--ar-groups", groups, *SEED,
    ])


def test_generate_then_eval(trained):
    genes = trained / "prep" / "genes_test.txt"
    assert _generate(trained, genes, trained / "pred.csv") == 0
    evaluate = [
        "eval", "--pred", str(trained / "pred.csv"),
        "--truth", str(trained / "prep" / "st_prepared.csv"), "--out", str(trained / "eval.csv"),
    ]
    assert cli.main(evaluate) == 0
    rows = [line.split(",")[0] for line in (trained / "eval.csv").read_text().splitlines()]
    assert rows[0] == "gene_id" and "__mean__" in rows


def test_generate_rerun_is_byte_identical(trained):
    genes = trained / "prep" / "genes_test.txt"
    assert _generate(trained, genes, trained / "first.csv") == 0
    assert _generate(trained, genes, trained / "second.csv") == 0
    assert (trained / "first.csv").read_bytes() == (trained / "second.csv").read_bytes()


def test_absent_gene_is_a_data_error(trained):
    genes = trained / "absent.txt"
    genes.write_text("NOT_A_GENE\n")
    assert _generate(trained, genes, trained / "absent.csv") == 2


@pytest.mark.parametrize("groups", ["0", "-3"])
def test_fewer_than_one_ar_group_is_a_usage_error_before_any_input_is_read(
    trained, monkeypatch, capsys, groups
):
    reads = []
    monkeypatch.setattr(model_module, "load_checkpoint", lambda *args: reads.append(args))
    out = trained / f"groups_{groups}.csv"
    assert _generate(trained, trained / "prep" / "genes_test.txt", out, groups) == 1
    assert "argument --ar-groups" in capsys.readouterr().err
    assert reads == [] and not out.exists()


def test_repeated_gene_fails_before_any_forward(trained, monkeypatch, capsys):
    calls = []
    forward = generate_module.cat_forward

    def counting(*args):
        calls.append(1)
        return forward(*args)

    monkeypatch.setattr(generate_module, "cat_forward", counting)
    first, second = (trained / "prep" / "genes_test.txt").read_text().split()[:2]
    genes = trained / "repeated.txt"
    genes.write_text(f"{first}\n{second}\n{first}\n")
    out = trained / "repeated.csv"
    assert _generate(trained, genes, out) == 2
    assert calls == []
    assert not out.exists()
    assert first in capsys.readouterr().err


def test_embeddings_hold_each_genes_condition_latent(trained):
    genes = trained / "prep" / "genes_test.txt"
    names = genes.read_text().split()
    paths = [trained / f"embeddings_{n}.csv" for n in ("first", "second")]
    for path in paths:
        argv = [
            "generate", "--ckpt", str(trained / "model.catg"), "--sc", str(trained / "sc.csv"),
            "--genes", str(genes), "--out", str(trained / "emb_pred.csv"),
            "--embeddings", str(path), *SEED,
        ]
        assert cli.main(argv) == 0
    params, meta = load_checkpoint(trained / "model.catg")
    lines = paths[0].read_text().splitlines()
    assert lines[0] == ",".join(["gene_id"] + [f"z{i}" for i in range(params.cfg.d)])
    assert [line.split(",")[0] for line in lines[1:]] == names
    opts = DataOptions(
        min_genes_sc=int(meta["qc_min_genes_sc"]), apply_normalize=bool(meta["data_normalize"])
    )
    sc = opts.qc_normalize(load_matrix(trained / "sc.csv"), opts.min_genes_sc)
    expected = encode(sc.values[[sc.gene_index()[g] for g in names]], "sc", params).data
    written = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
    assert np.array_equal(written, expected)
    assert paths[1].read_bytes() == paths[0].read_bytes()


def test_train_rerun_is_byte_identical(trained):
    out, history = trained / "rerun.catg", trained / "rerun_history.csv"
    assert cli.main([
        "train", "--st", str(trained / "st.csv"), "--sc", str(trained / "sc.csv"),
        "--out", str(out), "--history", str(history), *SEED, *TINY_TRAIN,
    ]) == 0
    assert out.read_bytes() == (trained / "model.catg").read_bytes()
    assert history.read_bytes() == (trained / "history.csv").read_bytes()


SYNTH_FILES = ("st.csv", "sc.csv", "edges.csv")


def _synth(out_dir, *extra):
    return cli.main([
        "synth", "--out-dir", str(out_dir),
        "--set", "synth.n_genes=12", "--set", "synth.n_spots=4", "--set", "synth.n_cells=5", *extra,
    ])


def test_gene_lists_are_utf8_under_a_c_locale(tmp_path):
    """train --save-prepared writes its gene lists as UTF-8, which generate reads."""
    assert cli.main([
        "synth", "--out-dir", str(tmp_path), *SEED,
        "--set", "synth.n_genes=24", "--set", "synth.n_spots=6", "--set", "synth.n_cells=12",
    ]) == 0
    for name in ("st.csv", "sc.csv"):
        path = tmp_path / name
        path.write_text(path.read_text(encoding="utf-8").replace("\nG0", "\nG\u00e90"), encoding="utf-8")
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
        "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)),
    }
    argv = [
        sys.executable, "-m", "catgen.cli", "train", "--st", str(tmp_path / "st.csv"),
        "--sc", str(tmp_path / "sc.csv"), "--out", str(tmp_path / "model.catg"),
        "--save-prepared", str(tmp_path / "prep"), *SEED, *TINY_TRAIN,
    ]
    done = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    genes = [
        gene
        for split in ("train", "val", "test")
        for gene in (tmp_path / "prep" / f"genes_{split}.txt").read_text(encoding="utf-8").split()
    ]
    assert "G\u00e9000" in genes


def test_synth_rerun_is_byte_identical(tmp_path):
    assert _synth(tmp_path / "first", *SEED) == 0
    assert _synth(tmp_path / "second", *SEED) == 0
    for name in SYNTH_FILES:
        assert (tmp_path / "second" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()


@pytest.mark.parametrize("edge", ["a->b:0.9", "0->1:x", "0->1:0.9:two", "0->1:nan", "0-1:0.9"])
def test_a_malformed_chain_edge_is_a_data_error(tmp_path, capsys, edge):
    assert _synth(tmp_path / "out", *SEED, "--set", f"synth.chain_edges={edge}") == 2
    assert f"catgen: error: bad edge spec {edge!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["synth.chain_length=4", "synth.coeff=0.1", "synth.lag=2"])
def test_chain_edges_with_a_chain_setting_is_a_config_error(tmp_path, capsys, key):
    edges = "synth.chain_edges=0->1:0.5"
    assert _synth(tmp_path / "out", *SEED, "--set", edges, "--set", key) == 2
    name = key.partition("=")[0]
    assert capsys.readouterr().err == (
        f"catgen: error: synth.chain_edges replaces the chain that {name} would plant\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        b"[synth]\nn_genes = 12\nn_genes = 13\n",  # a duplicated option
        b"n_genes = 12\n",  # no section header
        b"[synth]\nn_genes\n",  # not key = value
        b"[synth]\nchain_edges = 0->1:0.5%\n",  # % starts an interpolation
        b"[synth]\nn_genes = 1\xe9\n",  # Latin-1, not UTF-8
        b"[DEFAULT]\nn_genes = 12\n",  # keys outside a named section
    ],
    ids=["duplicate", "no-section", "no-value", "percent", "latin1", "default"],
)
def test_a_malformed_config_file_is_a_config_error(tmp_path, capsys, text):
    config = tmp_path / "bad.ini"
    config.write_bytes(text)
    assert _synth(tmp_path / "out", *SEED, "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"catgen: error: malformed config file {config}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_catgen_seed_sets_the_default_seed(tmp_path, monkeypatch):
    assert _synth(tmp_path / "flag", "--seed", "5") == 0
    monkeypatch.setenv("CATGEN_SEED", "5")
    assert _synth(tmp_path / "env") == 0
    for name in SYNTH_FILES:
        assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()


def test_malformed_catgen_seed_is_an_error_unless_seed_is_given(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CATGEN_SEED", "abc")
    assert _synth(tmp_path / "bad") == 2
    assert not (tmp_path / "bad").exists()
    assert "CATGEN_SEED" in capsys.readouterr().err
    assert _synth(tmp_path / "flag", "--seed", "5") == 0  # --seed wins over the variable
    monkeypatch.delenv("CATGEN_SEED")
    assert _synth(tmp_path / "reference", "--seed", "5") == 0
    for name in SYNTH_FILES:
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


def test_negative_seed_is_an_error_before_any_work(tmp_path, monkeypatch, capsys):
    assert _synth(tmp_path / "flag", "--seed", "-1") == 2
    assert "--seed" in capsys.readouterr().err
    monkeypatch.setenv("CATGEN_SEED", "-3")
    assert _synth(tmp_path / "env") == 2
    assert "CATGEN_SEED" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "env").exists()


def test_negative_generate_seed_writes_nothing(trained):
    out = trained / "negative_seed.csv"
    argv = [
        "generate", "--ckpt", str(trained / "model.catg"), "--sc", str(trained / "sc.csv"),
        "--genes", str(trained / "prep" / "genes_test.txt"), "--out", str(out), "--seed", "-1",
    ]
    assert cli.main(argv) == 2
    assert not out.exists()


def _eval_files(tmp_path, pred_genes=("G3", "G0", "G4"), pred_spots=6):
    """A 5-gene, 6-spot truth and a prediction of ``pred_genes`` over ``pred_spots`` spots."""
    rng = np.random.default_rng(0)
    truth = ExpressionMatrix(
        [f"G{i}" for i in range(5)], [f"s{j}" for j in range(6)], rng.uniform(0.1, 2.0, (5, 6))
    )
    pred = ExpressionMatrix(
        list(pred_genes), [f"s{j}" for j in range(pred_spots)],
        rng.uniform(0.1, 2.0, (len(pred_genes), pred_spots)),
    )
    save_matrix(truth, tmp_path / "truth.csv")
    save_matrix(pred, tmp_path / "pred.csv")
    return pred


def _eval(tmp_path, out, *extra):
    return cli.main([
        "eval", "--pred", str(tmp_path / "pred.csv"), "--truth", str(tmp_path / "truth.csv"),
        "--out", str(out), *extra,
    ])


def test_eval_rerun_is_byte_identical(tmp_path):
    _eval_files(tmp_path)
    assert _eval(tmp_path, tmp_path / "first.csv") == 0
    assert _eval(tmp_path, tmp_path / "second.csv") == 0
    rows = [line.split(",")[0] for line in (tmp_path / "first.csv").read_text().splitlines()]
    assert rows == ["gene_id", "G3", "G0", "G4", "__mean__", "__variance__"]
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def test_eval_keeps_nan_cells_and_aggregates_the_defined_scores(tmp_path):
    pred = _eval_files(tmp_path)
    # G0 predicted constant: it has no PCC and no z-scores, though the std of
    # six 0.7s rounds to 1.1e-16
    pred.values[1] = 0.7
    save_matrix(pred, tmp_path / "pred.csv")
    truth = load_matrix(tmp_path / "truth.csv")
    assert _eval(tmp_path, tmp_path / "eval.csv") == 0
    lines = [line.split(",") for line in (tmp_path / "eval.csv").read_text().splitlines()]
    assert lines[0] == ["gene_id", "pcc", "ssim", "rmse", "js"]
    rows = {line[0]: line[1:] for line in lines[1:]}
    undefined = {("G0", "pcc"), ("G0", "rmse")}
    index = truth.gene_index()
    for k, (name, fn) in enumerate({"pcc": pcc, "ssim": ssim, "rmse": rmse_z, "js": js_divergence}.items()):
        defined = []
        for gene, row in zip(pred.gene_ids, pred.values):
            if (gene, name) in undefined:
                assert rows[gene][k] == "nan"
                continue
            defined.append(fn(row, truth.values[index[gene]]))
            assert rows[gene][k] == repr(float(defined[-1]))
        assert rows["__mean__"][k] == repr(float(np.mean(defined)))
        assert rows["__variance__"][k] == repr(float(np.var(defined)))

    save_matrix(pred.subset_genes([1]), tmp_path / "pred.csv")  # no gene has a PCC
    assert _eval(tmp_path, tmp_path / "eval.csv") == 0
    rows = {line.split(",")[0]: line.split(",")[1:] for line in (tmp_path / "eval.csv").read_text().splitlines()}
    assert rows["__mean__"][0] == rows["__variance__"][0] == "nan"


def test_eval_of_a_gene_absent_from_the_truth_writes_nothing(tmp_path, capsys):
    _eval_files(tmp_path, pred_genes=("G1", "NOT_A_GENE"))
    assert _eval(tmp_path, tmp_path / "eval.csv") == 2
    assert not (tmp_path / "eval.csv").exists()
    assert "NOT_A_GENE" in capsys.readouterr().err


def test_eval_of_another_spot_count_writes_nothing(tmp_path, capsys):
    _eval_files(tmp_path, pred_spots=7)
    assert _eval(tmp_path, tmp_path / "eval.csv") == 2
    assert not (tmp_path / "eval.csv").exists()
    err = capsys.readouterr().err
    assert "7" in err and "6" in err


def test_eval_gene_distances_are_euclidean_between_prediction_rows(tmp_path):
    pred = _eval_files(tmp_path)
    path = tmp_path / "distances.csv"
    assert _eval(tmp_path, tmp_path / "eval.csv", "--gene-distances", str(path)) == 0
    lines = [line.split(",") for line in path.read_text().splitlines()]
    assert lines[0] == ["gene_id", *pred.gene_ids]
    assert [row[0] for row in lines[1:]] == pred.gene_ids
    dist = np.array([[float(x) for x in row[1:]] for row in lines[1:]])
    assert np.array_equal(dist, dist.T) and (np.diag(dist) == 0.0).all()
    expected = [[np.linalg.norm(a - b) for b in pred.values] for a in pred.values]
    np.testing.assert_allclose(dist, expected, rtol=1e-12, atol=0.0)


def test_eval_gene_distances_match_the_broadcast_formula_byte_for_byte(tmp_path):
    pred = _eval_files(tmp_path)
    path = tmp_path / "distances.csv"
    assert _eval(tmp_path, tmp_path / "eval.csv", "--gene-distances", str(path)) == 0
    values = pred.values
    dist = np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).sum(axis=2))
    expected = ["gene_id," + ",".join(pred.gene_ids)] + [
        ",".join([gene] + [repr(float(x)) for x in row]) for gene, row in zip(pred.gene_ids, dist)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_eval_gene_distances_need_no_genes_by_genes_by_spots_array(tmp_path):
    """300 genes over 100 spots: a (genes, genes, spots) difference array is 69 MiB."""
    rng = np.random.default_rng(1)
    genes, spots = [f"G{i}" for i in range(300)], [f"s{j}" for j in range(100)]
    for name in ("truth.csv", "pred.csv"):
        matrix = ExpressionMatrix(genes, spots, rng.uniform(0.1, 2.0, (300, 100)))
        save_matrix(matrix, tmp_path / name)
    tracemalloc.start()
    try:
        code = _eval(tmp_path, tmp_path / "eval.csv", "--gene-distances", str(tmp_path / "d.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10 * 2**20


def test_unknown_flag_is_a_usage_error(trained):
    argv = [
        "generate", "--ckpt", str(trained / "model.catg"), "--sc", str(trained / "sc.csv"),
        "--genes", str(trained / "prep" / "genes_test.txt"), "--out", str(trained / "x.csv"),
    ]
    assert cli.main(argv + ["--no-such-flag"]) == 1
    assert not (trained / "x.csv").exists()


def test_parsing_the_arguments_loads_no_numpy():
    """BLAS reads its thread variables when numpy loads, so ``--threads`` sets
    them after parsing, which must not load it."""
    code = (
        "import sys; from catgen import cli; "
        "cli.build_parser().parse_args(['--threads', '2', 'synth', '--out-dir', 'x']); "
        "assert 'numpy' not in sys.modules, 'parsing loaded numpy'"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")


def test_threads_sets_the_blas_variables(tmp_path, monkeypatch):
    for var in cli.THREAD_ENV:
        monkeypatch.setenv(var, "7")
    assert cli.main(["--threads", "3", "synth", "--out-dir", str(tmp_path / "out"), *SEED]) == 0
    assert [os.environ[var] for var in cli.THREAD_ENV] == ["3", "3", "3"]


@pytest.mark.parametrize("threads", ["0", "-1", "x"])
def test_fewer_than_one_thread_is_a_usage_error(tmp_path, monkeypatch, capsys, threads):
    for var in cli.THREAD_ENV:
        monkeypatch.setenv(var, "7")
    argv = [f"--threads={threads}", "synth", "--out-dir", str(tmp_path / "out"), *SEED]
    assert cli.main(argv) == 1
    assert "argument --threads" in capsys.readouterr().err
    assert [os.environ[var] for var in cli.THREAD_ENV] == ["7", "7", "7"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "spec",
    [
        "diffusion.sampling=adaptive",
        "train.val_sampling=frac:x",
        "diffusion.sampling=frac:50",  # n > T=20: only T says it is out of range
        "train.val_every=0",
        "train.batch_genes=0",
        "train.variational_encoder=off",  # now model.variational, with no alias
        "train.train_decoder=on",  # the co-trained decoder is gone
        "model.variational=off",  # the encoder is always deterministic
        "train.epochs=-1",
        "train.recon_epochs=-1",
    ],
)
def test_bad_sampling_spec_fails_before_warmup(trained, monkeypatch, spec):
    calls = []
    warmup_step = train._warmup_step

    def counting(*args, **kwargs):
        calls.append(1)
        return warmup_step(*args, **kwargs)

    monkeypatch.setattr(train, "_warmup_step", counting)
    out = trained / "bad_sampling.catg"
    argv = [
        "train", "--st", str(trained / "st.csv"), "--sc", str(trained / "sc.csv"),
        "--out", str(out), *SEED, *TINY_TRAIN, "--set", spec,
    ]
    assert cli.main(argv) == 2
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["train.lr=nan"], "lr, recon_lr and grad_clip must be finite"),
        (["diffusion.sampling=frac:5000"], "fractional n=5000 outside [1, T=2000]"),
        (["model.heads=3"], "d=64 not divisible by heads=3"),
        (["data.hvg_fraction=0"], "top_fraction must be in (0, 1], got 0.0"),
        (["diffusion.beta_start=0.5", "diffusion.beta_end=0.1"], "invalid beta range [0.5, 0.1]"),
        (["diffusion.beta_end=1.5"], "invalid beta range [0.0001, 1.5]"),
        (["diffusion.beta_start=nan"], "invalid beta range [nan, 0.02]"),
    ],
    ids=[
        "lr-nan", "sampling-beyond-T", "heads-3", "hvg-fraction-0",
        "betas-reversed", "beta-end-1.5", "beta-start-nan",
    ],
)
def test_a_bad_train_setting_is_a_data_error_before_any_input_is_read(
    tmp_path, monkeypatch, capsys, overrides, message
):
    reads = []
    monkeypatch.setattr(data, "load_matrix", lambda *args, **kwargs: reads.append(args))
    argv = [
        "train", "--st", str(tmp_path / "st.csv"), "--sc", str(tmp_path / "sc.csv"),
        "--out", str(tmp_path / "m.catg"), "--save-prepared", str(tmp_path / "prep"),
        *(arg for override in overrides for arg in ("--set", override)),
    ]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert reads == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--st", "st.csv", "--sc", "sc.csv", "--out", "m.catg", "--set",
          "diffusion.T=100000000000000000"], "Unable to allocate"),  # a 711 PiB schedule
        (["mask", "--c", "1000000000", "--sz", "1,1", "--out", "m.csv"],
         "Unable to allocate"),  # an 888 PiB mask
        # beyond numpy's index range, where it raises ValueError rather than MemoryError
        (["train", "--st", "st.csv", "--sc", "sc.csv", "--out", "m.catg", "--set",
          "diffusion.T=100000000000000000000"],
         "a schedule of T=100000000000000000000 steps is beyond the largest array numpy can index"),
        (["mask", "--c", "10000000000", "--sz", "1,1", "--out", "m.csv"],
         "a mask of side 10000000003 is beyond the largest array numpy can index"),
        (["synth", "--out-dir", "out", "--set", "synth.n_genes=100000000000000000000"],
         "a 100000000000000000000 x 64 matrix is beyond the largest array numpy can index"),
    ],
    ids=["train-T", "mask-c", "train-T-index-range", "mask-c-index-range", "synth-genes-index-range"],
)
def test_a_size_beyond_the_address_space_is_an_error_writing_nothing(
    tmp_path, monkeypatch, capsys, argv, message
):
    reads = []
    monkeypatch.setattr(data, "load_matrix", lambda *args, **kwargs: reads.append(args))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"catgen: error: {message}")
    assert captured.out == "" and reads == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "blocks, message",
    [
        ("1000000000000", "Unable to allocate"),  # 6.2 PiB of parameters at d=8
        ("100000000000000000000",
         "100000000000000000000 blocks of width 8 are beyond the largest array numpy can index"),
    ],
    ids=["blocks", "blocks-index-range"],
)
def test_a_block_count_beyond_the_address_space_is_an_error_writing_nothing(
    trained, tmp_path, capsys, blocks, message
):
    argv = [
        "train", "--st", str(trained / "st.csv"), "--sc", str(trained / "sc.csv"),
        "--out", str(tmp_path / "m.catg"), *SEED, *TINY_TRAIN, "--set", f"model.blocks={blocks}",
    ]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"catgen: error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_an_error_without_text_is_reported_by_its_type(monkeypatch, capsys):
    def fails(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_mask", fails)
    assert cli.main(["mask", "--c", "1", "--sz", "1"]) == 2
    assert capsys.readouterr().err == "catgen: error: MemoryError\n"


@pytest.fixture(scope="module")
def latin1(tmp_path_factory):
    """A one-gene matrix, and a gene list, that is Latin-1 text, not UTF-8."""
    path = tmp_path_factory.mktemp("latin1") / "latin1.csv"
    path.write_bytes(b"gene_id,spot0\nG\xe9000,1.0\n")
    return path


@pytest.mark.parametrize(
    "argv, code",
    [
        (["train", "--st", "{st}", "--out", "{out}"], 1),  # no --sc
        (["eval", "--pred", "{st}", "--out", "{out}"], 1),  # no --truth
        (["mask", "--sz", "2,2,3", "--out", "{out}"], 1),  # no --c
        (["ablate", "--grid", DECAY, "--st", "{absent}", "--sc", "{sc}", "--out", "{out}"], 2),
        ([
            "train", "--st", "{latin1}", "--sc", "{sc}", "--out", "{out}",
            "--save-prepared", "{prep}",
        ], 2),
        (["generate", "--ckpt", "{ckpt}", "--sc", "{sc}", "--genes", "{latin1}", "--out", "{out}"], 2),
    ],
    ids=["train", "eval", "mask", "ablate", "train-latin1-st", "generate-latin1-genes"],
)
def test_a_missing_argument_exits_1_and_a_missing_input_file_exits_2_writing_nothing(
    trained, latin1, tmp_path, monkeypatch, capsys, argv, code
):
    fits = []
    monkeypatch.setattr(train, "fit", lambda *args, **kwargs: fits.append(1))
    monkeypatch.setattr(generate_module, "generate_genes", lambda *args, **kwargs: fits.append(1))
    paths = {
        "st": trained / "st.csv", "sc": trained / "sc.csv", "ckpt": trained / "model.catg",
        "absent": tmp_path / "absent.csv", "latin1": latin1,
        "out": tmp_path / "out.csv", "prep": tmp_path / "prep",
    }
    assert cli.main([arg.format(**paths) for arg in argv]) == code
    assert fits == [] and list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert all(str(paths[bad]) in err for bad in ("absent", "latin1") if f"{{{bad}}}" in argv)


def test_generate_without_data_meta_prepares_sc_with_the_defaults(tmp_path):
    """A checkpoint holding only T, the betas and the seed, as the benchmark's
    ``generate_ar`` writes it, falls back to QC at 500 detected genes and
    normalization."""
    values = np.random.default_rng(0).uniform(1.0, 3.0, size=(520, 5))
    values[30:, 4] = 0.0  # the last cell detects 30 genes and fails QC
    sc = ExpressionMatrix([f"G{i}" for i in range(520)], [f"c{j}" for j in range(5)], values)
    save_matrix(sc, tmp_path / "sc.csv")
    params = init_params(ModelConfig(p=3, q=4, d=4, heads=1, blocks=1), np.random.default_rng(1))
    meta = {"T": 10, "beta_start": 1e-4, "beta_end": 2e-2, "seed": 0}
    save_checkpoint(params, tmp_path / "model.catg", meta)
    (tmp_path / "genes.txt").write_text("G0\nG1\nG2\n")
    assert cli.main([
        "generate", "--ckpt", str(tmp_path / "model.catg"), "--sc", str(tmp_path / "sc.csv"),
        "--genes", str(tmp_path / "genes.txt"), "--out", str(tmp_path / "pred.csv"), *SEED,
    ]) == 0
    prepared = normalize(sc.subset_obs(range(4)))
    expected = generate_genes(prepared, ["G0", "G1", "G2"], params, linear_schedule(10), seed=3)
    save_matrix(expected, tmp_path / "expected.csv")
    assert (tmp_path / "pred.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_checkpoint_without_diffusion_meta_is_a_data_error_before_the_sc_is_read(
    tmp_path, capsys
):
    params = init_params(ModelConfig(p=3, q=4, d=4, heads=1, blocks=1), np.random.default_rng(1))
    save_checkpoint(params, tmp_path / "bare.catg")  # no meta.T and no betas
    (tmp_path / "genes.txt").write_text("G0\n")
    assert cli.main([
        "generate", "--ckpt", str(tmp_path / "bare.catg"), "--sc", str(tmp_path / "absent.csv"),
        "--genes", str(tmp_path / "genes.txt"), "--out", str(tmp_path / "pred.csv"), *SEED,
    ]) == 2
    err = capsys.readouterr().err
    assert "meta.T, meta.beta_start, meta.beta_end" in err
    assert "absent.csv" not in err  # the checkpoint is rejected first
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("bogus", "unknown sampling strategy 'bogus'"),
        ("frac:0", "fractional n=0 outside [1, T=10]"),
        ("frac:50", "fractional n=50 outside [1, T=10]"),
    ],
    ids=["bogus", "frac:0", "frac:50"],
)
def test_a_bad_sampling_spec_is_a_data_error_before_the_sc_is_read(tmp_path, capsys, spec, message):
    params = init_params(ModelConfig(p=3, q=4, d=4, heads=1, blocks=1), np.random.default_rng(1))
    save_checkpoint(params, tmp_path / "model.catg", {"T": 10, "beta_start": 1e-4, "beta_end": 2e-2})
    (tmp_path / "genes.txt").write_text("G0\n")
    assert cli.main([
        "generate", "--ckpt", str(tmp_path / "model.catg"), "--sc", str(tmp_path / "absent.csv"),
        "--genes", str(tmp_path / "genes.txt"), "--out", str(tmp_path / "pred.csv"),
        "--sampling", spec, *SEED,
    ]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "absent.csv" not in err  # the spec is rejected first
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("T", [math.nan, 2.5, 0.0])
def test_a_diffusion_length_below_one_or_not_whole_is_a_data_error_before_the_sc_is_read(
    tmp_path, capsys, T
):
    params = init_params(ModelConfig(p=3, q=4, d=4, heads=1, blocks=1), np.random.default_rng(1))
    meta = {"T": T, "beta_start": 1e-4, "beta_end": 2e-2}
    save_checkpoint(params, tmp_path / "bad.catg", meta)
    (tmp_path / "genes.txt").write_text("G0\n")
    assert cli.main([
        "generate", "--ckpt", str(tmp_path / "bad.catg"), "--sc", str(tmp_path / "absent.csv"),
        "--genes", str(tmp_path / "genes.txt"), "--out", str(tmp_path / "pred.csv"), *SEED,
    ]) == 2
    err = capsys.readouterr().err
    assert f"meta.T is {T!r}, not a whole number" in err
    assert "absent.csv" not in err  # the checkpoint is rejected first
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("qc_min_genes_sc", math.nan, "meta.qc_min_genes_sc is nan, not a whole number"),
        ("qc_min_genes_sc", math.inf, "meta.qc_min_genes_sc is inf, not a whole number"),
        ("qc_min_genes_sc", 2.5, "meta.qc_min_genes_sc is 2.5, not a whole number"),
        ("data_normalize", math.nan, "meta.data_normalize is nan, not 0 or 1"),
        ("data_normalize", 2.0, "meta.data_normalize is 2.0, not 0 or 1"),
    ],
    ids=["qc-nan", "qc-inf", "qc-2.5", "normalize-nan", "normalize-2"],
)
def test_data_meta_that_is_not_whole_or_not_0_or_1_is_a_data_error_before_the_sc_is_read(
    tmp_path, capsys, key, value, message
):
    params = init_params(ModelConfig(p=3, q=4, d=4, heads=1, blocks=1), np.random.default_rng(1))
    meta = {"T": 10, "beta_start": 1e-4, "beta_end": 2e-2, key: value}
    save_checkpoint(params, tmp_path / "bad.catg", meta)
    (tmp_path / "genes.txt").write_text("G0\n")
    assert cli.main([
        "generate", "--ckpt", str(tmp_path / "bad.catg"), "--sc", str(tmp_path / "absent.csv"),
        "--genes", str(tmp_path / "genes.txt"), "--out", str(tmp_path / "pred.csv"), *SEED,
    ]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "absent.csv" not in err  # the checkpoint is rejected first
    assert not (tmp_path / "pred.csv").exists()


def _generate_from_bytes(tmp_path, raw: bytes) -> int:
    """``generate`` on a checkpoint holding ``raw``, with an SC file that does not exist."""
    (tmp_path / "bad.catg").write_bytes(raw)
    (tmp_path / "genes.txt").write_text("G0\n")
    return cli.main([
        "generate", "--ckpt", str(tmp_path / "bad.catg"), "--sc", str(tmp_path / "absent.csv"),
        "--genes", str(tmp_path / "genes.txt"), "--out", str(tmp_path / "pred.csv"), *SEED,
    ])


def _checkpoint_bytes(tmp_path) -> bytes:
    params = init_params(ModelConfig(p=3, q=4, d=4, heads=1, blocks=1), np.random.default_rng(1))
    save_checkpoint(params, tmp_path / "good.catg", {"T": 10, "beta_start": 1e-4, "beta_end": 0.02})
    return (tmp_path / "good.catg").read_bytes()


def test_a_tensor_name_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    raw = _checkpoint_bytes(tmp_path)
    assert raw.count(b"dec.b1") == 1
    assert _generate_from_bytes(tmp_path, raw.replace(b"dec.b1", b"\xffec.b1")) == 2
    err = capsys.readouterr().err
    assert "catgen: error:" in err and "not UTF-8" in err and "absent.csv" not in err
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize(
    "value, message",
    [
        (math.nan, "meta.d is nan, not a whole number"),
        (math.inf, "meta.d is inf, not a whole number"),
        (2.5, "meta.d is 2.5, not a whole number"),
        (2.0**40, "tensor e1.w1 has shape (3, 4), expected (3, 1099511627776)"),  # not allocated
    ],
)
def test_a_model_field_that_is_not_a_whole_number_is_a_data_error(tmp_path, capsys, value, message):
    raw = _checkpoint_bytes(tmp_path)
    entry = struct.pack("<I", 6) + b"meta.d" + struct.pack("<I", 0)  # a scalar: no shape
    at = raw.index(entry) + len(entry)
    assert struct.unpack("<d", raw[at : at + 8]) == (4.0,)
    assert _generate_from_bytes(tmp_path, raw[:at] + struct.pack("<d", value) + raw[at + 8 :]) == 2
    err = capsys.readouterr().err
    assert "catgen: error:" in err and message in err and "absent.csv" not in err
    assert not (tmp_path / "pred.csv").exists()


def _counting_forwards(monkeypatch) -> list:
    calls = []
    forward = generate_module.cat_forward

    def counting(*args):
        calls.append(1)
        return forward(*args)

    monkeypatch.setattr(generate_module, "cat_forward", counting)
    return calls


@pytest.mark.parametrize("missing", ["--ckpt", "--genes"])
def test_a_missing_generate_input_is_a_file_error(trained, tmp_path, monkeypatch, capsys, missing):
    calls = _counting_forwards(monkeypatch)
    paths = {
        "--ckpt": str(trained / "model.catg"), "--sc": str(trained / "sc.csv"),
        "--genes": str(trained / "prep" / "genes_test.txt"), "--out": str(tmp_path / "pred.csv"),
    }
    paths[missing] = str(tmp_path / "absent.txt")
    assert cli.main(["generate", *(x for kv in paths.items() for x in kv), *SEED]) == 2
    assert "catgen: error:" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "pred.csv").exists()


def test_generate_into_a_missing_directory_fails_before_any_forward(
    trained, tmp_path, monkeypatch, capsys
):
    calls = _counting_forwards(monkeypatch)
    out = tmp_path / "nodir" / "p.csv"
    assert _generate(trained, trained / "prep" / "genes_test.txt", out) == 2
    assert f"catgen: error: cannot write {out}" in capsys.readouterr().err
    assert calls == []


def test_eval_gene_distances_into_a_missing_directory_writes_nothing(tmp_path, capsys):
    _eval_files(tmp_path)
    out = tmp_path / "eval.csv"
    distances = tmp_path / "nodir" / "x.csv"
    assert _eval(tmp_path, out, "--gene-distances", str(distances)) == 2
    assert f"catgen: error: cannot write {distances}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, target", [("--out", "nodir/m.catg"), ("--save-prepared", "a_file")]
)
def test_train_into_an_unwritable_place_fails_before_any_work(
    trained, tmp_path, monkeypatch, capsys, flag, target
):
    calls = []
    monkeypatch.setattr(cli, "_prepare_from_files", lambda *args: calls.append(1))
    (tmp_path / "a_file").write_text("")
    outputs = {"--out": tmp_path / "m.catg", "--save-prepared": tmp_path / "prep"}
    outputs[flag] = tmp_path / target
    argv = [
        "train", "--st", str(trained / "st.csv"), "--sc", str(trained / "sc.csv"),
        *(str(x) for kv in outputs.items() for x in kv), *SEED, *TINY_TRAIN,
    ]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("catgen: error:") and str(tmp_path / target) in err
    assert calls == []
    assert not (tmp_path / "m.catg").exists()


@pytest.mark.parametrize("command", ["granger", "mask", "mask-to-stdout"])
def test_granger_and_mask_into_a_missing_directory_fail_before_any_work(
    trained, tmp_path, monkeypatch, capsys, command
):
    calls = []
    for name in ("f_statistics", "test_pair"):  # the screen's first work, and its reports
        work = getattr(granger, name)
        monkeypatch.setattr(granger, name, lambda *a, work=work, **k: calls.append(1) or work(*a, **k))
    missing = tmp_path / "nodir" / "out"
    mask = ["mask", "--c", "2", "--sz", "2,2,3", "--pbm", str(missing)]
    argv = {
        "granger": ["granger", "--matrix", str(trained / "sc.csv"), "--out", str(missing)],
        "mask": [*mask, "--out", str(tmp_path / "m.csv")],
        "mask-to-stdout": mask,
    }[command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"catgen: error: cannot write {missing}" in captured.err and captured.out == ""
    assert calls == [] and list(tmp_path.iterdir()) == []


_TRAIN = ["train", "--st", "st.csv", "--sc", "sc.csv", "--out", "m.catg"]
_GENERATE = [
    "generate", "--ckpt", "m.catg", "--sc", "sc.csv", "--genes", "genes.txt",
    "--out", "p.csv", "--embeddings", "e.csv",
]
_EVAL = ["eval", "--pred", "p.csv", "--truth", "t.csv", "--out", "e.csv", "--gene-distances", "d.csv"]
_MASK = ["mask", "--c", "2", "--sz", "2,2,3", "--out", "m.csv", "--pbm", "m.pbm"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        ([*_TRAIN, "--history", "h.csv"], "--out"),
        ([*_TRAIN, "--history", "h.csv"], "--history"),
        (_TRAIN, None),  # the default history.csv next to --out
        (_GENERATE, "--out"),
        (_GENERATE, "--embeddings"),
        (_EVAL, "--out"),
        (_EVAL, "--gene-distances"),
        (["granger", "--matrix", "st.csv", "--out", "g.csv"], "--out"),
        (_MASK, "--out"),
        (_MASK, "--pbm"),
        (["ablate", "--grid", DECAY, "--st", "st.csv", "--sc", "sc.csv", "--out", "a.csv"], "--out"),
    ],
    ids=[
        "train-out", "train-history", "train-default-history", "generate-out", "generate-embeddings",
        "eval-out", "eval-gene-distances", "granger-out", "mask-out", "mask-pbm", "ablate-out",
    ],
)
def test_an_output_path_that_is_a_directory_fails_before_any_input_is_read(
    tmp_path, monkeypatch, capsys, argv, flag
):
    reads = []

    def reading(*args, **kwargs):
        reads.append(args)
        raise DataFormatError("no input is read in this test")

    monkeypatch.setattr(data, "load_matrix", reading)
    monkeypatch.setattr(model_module, "load_checkpoint", reading)
    monkeypatch.setattr(mask_module, "build_mask", reading)
    monkeypatch.chdir(tmp_path)
    argv = list(argv)
    if flag is None:  # train names the default as an absolute path
        taken, shown = "history.csv", tmp_path / "history.csv"
    else:
        taken = shown = argv[argv.index(flag) + 1] = "taken"
    (tmp_path / taken).mkdir()
    assert cli.main(argv) == 2
    assert f"catgen: error: cannot write {shown}: it is a directory" in capsys.readouterr().err
    assert reads == [] and [p.name for p in tmp_path.iterdir()] == [taken]


_COLLISIONS = {  # argv, the path refused, the path it collides with
    "train-out-history": (
        "train --st st.csv --sc sc.csv --out m.catg --history ./m.catg", "./m.catg", "m.catg"
    ),
    "train-default-history": ("train --st st.csv --sc sc.csv --out history.csv", None, "history.csv"),
    "train-out-st": ("train --st x.csv --sc sc.csv --out ./x.csv", "./x.csv", "x.csv"),
    "train-history-sc": (
        "train --st st.csv --sc x.csv --out m.catg --history ./x.csv", "./x.csv", "x.csv"
    ),
    "train-out-config": (
        "train --config c.toml --st st.csv --sc sc.csv --out ./c.toml", "./c.toml", "c.toml"
    ),
    "train-prepared-st": (
        "train --st prep/st_prepared.csv --sc sc.csv --out m.catg --save-prepared ./prep",
        "./prep/st_prepared.csv", "prep/st_prepared.csv",
    ),
    "generate-out-embeddings": (
        "generate --ckpt m.catg --sc sc.csv --genes g.txt --out p.csv --embeddings ./p.csv",
        "./p.csv", "p.csv",
    ),
    "generate-out-ckpt": (
        "generate --ckpt m.catg --sc sc.csv --genes g.txt --out ./m.catg", "./m.catg", "m.catg"
    ),
    "generate-embeddings-genes": (
        "generate --ckpt m.catg --sc sc.csv --genes g.txt --out p.csv --embeddings ./g.txt",
        "./g.txt", "g.txt",
    ),
    "eval-out-gene-distances": (
        "eval --pred p.csv --truth t.csv --out e.csv --gene-distances ./e.csv", "./e.csv", "e.csv"
    ),
    "eval-out-truth": ("eval --pred p.csv --truth t.csv --out ./t.csv", "./t.csv", "t.csv"),
    "granger-out-matrix": ("granger --matrix st.csv --out ./st.csv", "./st.csv", "st.csv"),
    "mask-out-pbm": ("mask --c 2 --sz 2,2,3 --out m.csv --pbm ./m.csv", "./m.csv", "m.csv"),
    "ablate-out-sc": (f"ablate --grid {DECAY} --st st.csv --sc sc.csv --out ./sc.csv", "./sc.csv", "sc.csv"),
}


@pytest.mark.parametrize("argv, refused, other", _COLLISIONS.values(), ids=_COLLISIONS)
def test_an_output_that_names_another_output_or_an_input_fails_before_any_input_is_read(
    tmp_path, monkeypatch, capsys, argv, refused, other
):
    reads = []

    def reading(*args, **kwargs):
        reads.append(args)
        raise DataFormatError("no input is read in this test")

    for target in (data, "load_matrix"), (model_module, "load_checkpoint"), (mask_module, "build_mask"):
        monkeypatch.setattr(*target, reading)
    monkeypatch.setattr("catgen.config.load_config", reading)
    monkeypatch.chdir(tmp_path)
    refused = refused or os.path.join(os.getcwd(), "history.csv")  # train's default, made absolute
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert f"catgen: error: cannot write {refused}: it is the same file as {other}\n" in captured.err
    assert captured.out == "" and reads == [] and list(tmp_path.iterdir()) == []


def _mask(tmp_path, name, sz="2,2,3", c="2"):
    csv_path, pbm_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.pbm"
    code = cli.main([
        "mask", "--c", c, "--sz", sz, "--out", str(csv_path), "--pbm", str(pbm_path),
    ])
    return code, csv_path, pbm_path


def test_mask_matches_build_mask_and_reruns_identically(tmp_path, capsys):
    code, csv_path, pbm_path = _mask(tmp_path, "first")
    assert code == 0
    expected = build_mask(2, ARStepPlan((2, 2, 3)))
    np.testing.assert_array_equal(np.loadtxt(csv_path, delimiter=",", dtype=np.uint8), expected)
    np.testing.assert_array_equal(np.loadtxt(pbm_path, skiprows=2, dtype=np.uint8), expected)
    code, csv_again, pbm_again = _mask(tmp_path, "second")
    assert code == 0
    assert csv_again.read_bytes() == csv_path.read_bytes()
    assert pbm_again.read_bytes() == pbm_path.read_bytes()
    capsys.readouterr()
    assert cli.main(["mask", "--c", "2", "--sz", "2,2,3"]) == 0
    assert capsys.readouterr().out == csv_path.read_text()


def test_mask_bad_sizes_are_data_errors(tmp_path):
    code, csv_path, _ = _mask(tmp_path, "bad", sz="2,x")
    assert code == 2
    assert not csv_path.exists()


def test_mask_writes_the_mask_the_model_attends_under(tmp_path):
    """With one condition row per gene token, ``mask`` writes the mask that
    ``TokenBatch.assemble`` lays out for the same plan."""
    code, csv_path, _ = _mask(tmp_path, "model", c="7")
    assert code == 0
    params = init_params(ModelConfig(p=3, q=4, d=4, heads=1, blocks=1), np.random.default_rng(1))
    plan, zeros = ARStepPlan((2, 2, 3)), np.zeros((7, 4))
    batch = TokenBatch.assemble(
        plan, zeros, zeros, np.ones(7, dtype=int), linear_schedule(10), params, clean=zeros[: plan.v]
    )
    written = np.loadtxt(csv_path, delimiter=",", dtype=np.uint8)
    assert written.shape == batch.blocked.shape == (18, 18)
    np.testing.assert_array_equal(written, batch.blocked)


def _granger(root, out, lag="1"):
    return cli.main([
        "granger", "--matrix", str(root / "sc.csv"), "--lag", lag, "--top-k", "4",
        "--out", str(out),
    ])


def test_granger_reruns_identically_and_rejects_lag_zero(trained):
    first, second, bad = (trained / f"granger_{n}.csv" for n in ("first", "second", "bad"))
    assert _granger(trained, first) == 0
    lines = first.read_text().splitlines()
    assert lines[0] == "driver,target,lag,f_stat,p_value" and len(lines) == 5
    assert _granger(trained, second) == 0
    assert second.read_bytes() == first.read_bytes()
    assert _granger(trained, bad, lag="0") == 1
    assert not bad.exists()


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_fewer_than_one_top_pair_is_a_usage_error_before_any_screen(
    trained, monkeypatch, capsys, top_k
):
    calls = []
    monkeypatch.setattr(granger, "screen", lambda *args, **kwargs: calls.append(1))
    out = trained / "granger_top.csv"
    assert cli.main([
        "granger", "--matrix", str(trained / "sc.csv"), f"--top-k={top_k}", "--out", str(out),
    ]) == 1
    assert "argument --top-k" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_granger_skips_a_pair_whose_normal_equations_are_singular(tmp_path, caplog):
    """Two rows that are the same series near 1e3 leave ``test_pair``'s
    normal equations singular: the screen skips that pair both ways."""
    large = 1e3 + np.random.default_rng(0).uniform(0.0, 5.0, 20)
    values = np.vstack([large, large, np.random.default_rng(1).uniform(0.0, 5.0, 20)])
    save_matrix(ExpressionMatrix(["A", "B", "C"], [f"s{j}" for j in range(20)], values),
                tmp_path / "m.csv")
    with caplog.at_level("WARNING"):
        assert cli.main([
            "granger", "--matrix", str(tmp_path / "m.csv"), "--top-k", "6",
            "--out", str(tmp_path / "g.csv"),
        ]) == 0
    pairs = [line.split(",")[:2] for line in (tmp_path / "g.csv").read_text().splitlines()[1:]]
    assert sorted(pairs) == [["A", "C"], ["B", "C"], ["C", "A"], ["C", "B"]]
    assert "skipped 2 gene pairs with singular normal equations" in caplog.text


def test_granger_takes_no_seed(trained):
    out = trained / "granger_seed.csv"
    assert cli.main([
        "granger", "--matrix", str(trained / "sc.csv"), "--out", str(out), "--seed", "1",
    ]) == 1
    assert not out.exists()


def _ablate(root, out, grid=DECAY):
    return cli.main([
        "ablate", "--grid", grid, "--st", str(root / "st.csv"), "--sc", str(root / "sc.csv"),
        "--out", str(out), *SEED, *TINY_TRAIN,
    ])


def test_ablate_reruns_identically_and_rejects_unknown_key(trained, capsys):
    first, second, bad = (trained / f"ablate_{n}.csv" for n in ("first", "second", "bad"))
    assert _ablate(trained, first) == 0
    lines = first.read_text().splitlines()
    assert lines[0] == "key,setting,seed,best_val_pcc,best_epoch"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["ar.decay", "0.7", "3"], ["ar.decay", "0.8", "3"], ["ar.decay", "0.9", "3"],
        ["ar.decay", "1.0", "3"],
    ]
    assert _ablate(trained, second) == 0
    assert second.read_bytes() == first.read_bytes()
    capsys.readouterr()
    assert _ablate(trained, bad, grid="ar.bogus=1,2") == 2  # as --set ar.bogus=1 does
    assert "catgen: error: unknown configuration key 'ar.bogus'" in capsys.readouterr().err
    assert not bad.exists()


def test_a_grid_row_equals_fit_run_directly_with_that_setting(trained):
    """Each row's score and epoch are bitwise those of ``fit`` given the
    configs that ``--set`` builds for that setting: here a ``str`` key."""
    out = trained / "ablate_gene_order.csv"
    assert _ablate(trained, out, grid="train.gene_order=random,granger") == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:3] for row in rows] == [
        ["train.gene_order", "random", "3"], ["train.gene_order", "granger", "3"],
    ]
    values = config.apply_overrides({}, TINY_TRAIN[1::2])
    pair = data.prepare_pair(
        load_matrix(trained / "st.csv"), load_matrix(trained / "sc.csv"),
        **dataclasses.asdict(config.data_options(values)),
    )
    mcfg = config.model_config(values, p=pair.st.n_obs, q=pair.sc.n_obs)
    split = data.split_genes(range(len(pair.genes)), 3)
    for row in rows:
        cfg = config.train_config({**values, "train.gene_order": row[1]}, 3)
        result = train.fit(pair.st, pair.sc, split, mcfg, cfg)
        assert row[3:] == [repr(result.best_val_pcc), str(result.best_epoch)]


def test_ablate_builds_each_settings_configs_once_before_reading_any_input(
    tmp_path, monkeypatch, capsys
):
    """A huge --seeds with a missing --st exits 2 at once: the seeds are drawn
    only as rows are fit, not as a config per seed before the input is read."""
    built = []

    def counted_train_config(values, seed):
        built.append(seed)
        assert len(built) <= 4, "a TrainConfig per seed"
        return train_config(values, seed)

    monkeypatch.setattr(config, "train_config", counted_train_config)
    (tmp_path / "sc.csv").write_text("gene_id,c0\nG0,1.0\n")
    assert cli.main([
        "ablate", "--grid", DECAY, "--st", str(tmp_path / "absent.csv"),
        "--sc", str(tmp_path / "sc.csv"), "--out", str(tmp_path / "a.csv"),
        "--seeds", "1000000000000", *SEED,
    ]) == 2
    assert str(tmp_path / "absent.csv") in capsys.readouterr().err
    assert built == [3, 3, 3, 3] and not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_fewer_than_one_seed_per_setting_is_a_usage_error_before_any_fit(
    trained, monkeypatch, capsys, seeds
):
    calls = []
    monkeypatch.setattr(train, "fit", lambda *args, **kwargs: calls.append(1))
    out = trained / "ablate_seeds.csv"
    argv = [
        "ablate", "--grid", DECAY, "--st", str(trained / "st.csv"),
        "--sc", str(trained / "sc.csv"), "--out", str(out), f"--seeds={seeds}", *SEED, *TINY_TRAIN,
    ]
    assert cli.main(argv) == 1
    assert "argument --seeds" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize(
    "grid, overrides, out, message",
    [
        (DECAY, [], "nodir/a.csv", "cannot write"),
        (DECAY, ["train.lr=nan"], "a.csv", "lr, recon_lr and grad_clip must be finite"),
        # full, frac:2 and frac:3 fit T=3; the fourth trial's frac:4 does not
        ("diffusion.sampling=full,frac:2,frac:3,frac:4", ["diffusion.T=3", "train.val_sampling=full"],
         "a.csv", "fractional n=4 outside [1, T=3]"),
        (DECAY, ["model.heads=3"], "a.csv", "d=64 not divisible by heads=3"),
        (DECAY, ["data.hvg_fraction=0"], "a.csv", "top_fraction must be in (0, 1], got 0.0"),
        (DECAY, ["diffusion.beta_end=1.5"], "a.csv", "invalid beta range [0.0001, 1.5]"),
        ("model.blocks=1,two", [], "a.csv", "bad value for model.blocks: 'two'"),
        ("ar.decay=0.7,,0.9", [], "a.csv", "'ar.decay=0.7,,0.9' is not of the form key=value,value"),
        ("ar.decay", [], "a.csv", "'ar.decay' is not of the form key=value,value"),
        ("data.hvg_fraction=0.5,1.0", [], "a.csv", "ablate cannot vary data.hvg_fraction"),
        ("synth.n_genes=10,20", [], "a.csv", "ablate cannot vary synth.n_genes"),
    ],
    ids=[
        "missing-dir", "lr-nan", "sampling-beyond-T", "heads-3", "hvg-fraction-0", "beta-end-1.5",
        "untypable", "empty-setting", "no-equals", "data-key", "synth-key",
    ],
)
def test_ablate_fails_before_any_work(tmp_path, monkeypatch, capsys, grid, overrides, out, message):
    reads = []

    def load_matrix(*args, **kwargs):
        reads.append(args)
        raise DataFormatError("no input is read in this test")

    monkeypatch.setattr(data, "load_matrix", load_matrix)
    argv = [
        "ablate", "--grid", grid, "--st", str(tmp_path / "st.csv"),
        "--sc", str(tmp_path / "sc.csv"), "--out", str(tmp_path / out), *SEED,
        *(arg for override in overrides for arg in ("--set", override)),
    ]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("catgen: error: ") and message in err
    assert reads == [] and list(tmp_path.iterdir()) == []

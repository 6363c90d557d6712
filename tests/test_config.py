"""Configuration keys: the registry, TrainConfig derivation and INI files."""

import dataclasses

import pytest

from catgen.config import (
    REGISTRY,
    apply_overrides,
    data_options,
    load_config,
    model_config,
    synth_config,
    train_config,
)
from catgen.data import DataOptions
from catgen.errors import ConfigError
from catgen.model import ModelConfig
from catgen.synth import ChainEdge, chain_config
from catgen.train import TrainConfig

# every key accepted before the train.* keys were derived from TrainConfig,
# with its type; the unused generate.ar_groups is gone, and
# train.variational_encoder became model.variational
EXPECTED_KEYS = {
    "model.d": int,
    "model.heads": int,
    "model.blocks": int,
    "model.variational": bool,
    "diffusion.T": int,
    "diffusion.beta_start": float,
    "diffusion.beta_end": float,
    "diffusion.sampling": str,
    "ar.decay": float,
    "train.epochs": int,
    "train.batch_genes": int,
    "train.lr": float,
    "train.recon_epochs": int,
    "train.recon_lr": float,
    "train.warmup_latent_noise": float,
    "train.train_decoder": bool,
    "train.val_every": int,
    "train.val_sampling": str,
    "train.val_ar_groups": int,
    "train.gene_order": str,
    "train.lambda_rec": float,
    "train.lambda_kl": float,
    "train.grad_clip": float,
    "data.qc_min_genes_sc": int,
    "data.qc_min_genes_st": int,
    "data.normalize": bool,
    "data.hvg_fraction": float,
    "synth.n_genes": int,
    "synth.n_spots": int,
    "synth.n_cells": int,
    "synth.noise_sd": float,
    "synth.n_factors": int,
    "synth.dropout_rate": float,
    "synth.chain_edges": str,
    "synth.chain_length": int,
    "synth.coeff": float,
    "synth.lag": int,
}

# one non-default value for every TrainConfig field but seed
OVERRIDES = {
    "train.epochs": ("7", "epochs", 7),
    "train.batch_genes": ("5", "batch_genes", 5),
    "train.lr": ("0.01", "lr", 0.01),
    "ar.decay": ("0.5", "ar_decay", 0.5),
    "train.train_decoder": ("true", "train_decoder", True),
    "diffusion.sampling": ("frac:5", "sampling", "frac:5"),
    "diffusion.T": ("300", "T", 300),
    "diffusion.beta_start": ("0.001", "beta_start", 0.001),
    "diffusion.beta_end": ("0.03", "beta_end", 0.03),
    "train.recon_epochs": ("11", "recon_epochs", 11),
    "train.recon_lr": ("0.004", "recon_lr", 0.004),
    "train.warmup_latent_noise": ("0.5", "warmup_latent_noise", 0.5),
    "train.val_every": ("2", "val_every", 2),
    "train.val_sampling": ("frac:10", "val_sampling", "frac:10"),
    "train.val_ar_groups": ("3", "val_ar_groups", 3),
    "train.gene_order": ("granger", "gene_order", "granger"),
    "train.lambda_rec": ("0.5", "lambda_rec", 0.5),
    "train.lambda_kl": ("0.01", "lambda_kl", 0.01),
    "train.grad_clip": ("2.0", "grad_clip", 2.0),
}


def test_registry_keeps_every_key_with_its_type():
    assert REGISTRY == EXPECTED_KEYS


def test_every_train_field_is_set_from_its_key():
    fields = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}
    assert {attr for _, attr, _ in OVERRIDES.values()} == fields
    default = TrainConfig()
    assert all(getattr(default, attr) != value for _, attr, value in OVERRIDES.values())

    values = apply_overrides({}, [f"{key}={raw}" for key, (raw, _, _) in OVERRIDES.items()])
    cfg = train_config(values, seed=5)
    expected = TrainConfig(seed=5, **{attr: value for _, attr, value in OVERRIDES.values()})
    assert cfg == expected
    assert train_config({}, seed=5) == TrainConfig(seed=5)


@pytest.mark.parametrize(
    "item", ["generate.ar_groups=7", "train.seed=3", "train.nope=1", "model.p=4"]
)
def test_unknown_keys_are_rejected(item):
    with pytest.raises(ConfigError):
        apply_overrides({}, [item])


def test_bad_values_are_rejected():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["train.epochs=many"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["train.epochs"])
    with pytest.raises(ConfigError):
        train_config(apply_overrides({}, ["diffusion.sampling=adaptive"]), seed=0)


def test_ini_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[train]\nepochs = 120\nlr = 0.002\n"
        "[diffusion]\nT = 500\nsampling = frac:4\n"
        "[ar]\ndecay = 0.9\n"
        "[data]\nnormalize = no\n"
    )
    values = load_config(path)
    assert values == {
        "train.epochs": 120,
        "train.lr": 0.002,
        "diffusion.T": 500,
        "diffusion.sampling": "frac:4",
        "ar.decay": 0.9,
        "data.normalize": False,
    }
    cfg = train_config(apply_overrides(values, ["train.epochs=3"]), seed=1)
    assert (cfg.epochs, cfg.lr, cfg.T, cfg.sampling, cfg.ar_decay) == (3, 0.002, 500, "frac:4", 0.9)
    assert load_config(None) == {}
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[generate]\nar_groups = 2\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_model_config_takes_dataclass_defaults_and_set_keys():
    assert model_config({}, p=6, q=9) == ModelConfig(p=6, q=9)
    values = apply_overrides({}, ["model.d=8", "model.blocks=1", "model.variational=off"])
    assert model_config(values, p=6, q=9) == ModelConfig(
        p=6, q=9, d=8, blocks=1, variational=False
    )


def test_data_options_take_the_owner_defaults_and_set_keys():
    assert data_options({}) == DataOptions()
    values = apply_overrides({}, ["data.qc_min_genes_sc=1", "data.normalize=no"])
    assert data_options(values) == DataOptions(min_genes_sc=1, apply_normalize=False)


def test_synth_config_takes_chain_defaults_and_set_keys():
    assert synth_config({}, 7) == chain_config(seed=7)
    values = apply_overrides({}, ["synth.n_genes=12", "synth.coeff=0.5", "synth.lag=2"])
    assert synth_config(values, 7) == chain_config(n_genes=12, coeff=0.5, lag=2, seed=7)


def test_synth_edges_override_keeps_other_fields():
    values = apply_overrides(
        {}, ["synth.n_genes=12", "synth.noise_sd=0.3", "synth.chain_edges=0->3:0.7,3->5:0.2:2"]
    )
    cfg = synth_config(values, 7)
    base = chain_config(n_genes=12, noise_sd=0.3, seed=7)
    assert cfg.chain_edges == [ChainEdge(0, 3, 0.7), ChainEdge(3, 5, 0.2, 2)]
    assert dataclasses.replace(cfg, chain_edges=base.chain_edges) == base

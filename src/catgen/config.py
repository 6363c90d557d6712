"""Flat ``key = value`` configuration with sections, typed by a key registry.

Files are INI-style::

    [train]
    epochs = 120
    lr = 0.002

which flattens to ``train.epochs`` etc. Unknown keys and untypable values are
rejected. CLI ``--set section.key=value`` overrides go through the same
registry.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing

from .errors import ConfigError
from .model import ModelConfig
from .synth import ChainEdge, SynthConfig, chain_config
from .train import TrainConfig


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# TrainConfig fields kept outside the ``train`` section; every other field but
# ``seed`` (which comes from --seed) is ``train.<field>``
_TRAIN_ALIASES = {
    "ar_decay": "ar.decay",
    "T": "diffusion.T",
    "beta_start": "diffusion.beta_start",
    "beta_end": "diffusion.beta_end",
    "sampling": "diffusion.sampling",
}
_TRAIN_KEYS: dict[str, str] = {
    _TRAIN_ALIASES.get(f.name, f"train.{f.name}"): f.name
    for f in dataclasses.fields(TrainConfig)
    if f.name != "seed"
}
_TRAIN_TYPES = typing.get_type_hints(TrainConfig)

REGISTRY: dict[str, type] = {
    "model.d": int,
    "model.heads": int,
    "model.blocks": int,
    **{key: _TRAIN_TYPES[name] for key, name in _TRAIN_KEYS.items()},
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


def _convert(key: str, raw: str):
    kind = REGISTRY.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return _parse_bool(raw) if kind is bool else kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def load_config(path=None) -> dict[str, object]:
    """Read a config file into a flat typed dict; missing path gives defaults only."""
    values: dict[str, object] = {}
    if path is None:
        return values
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: ``diffusion.T``
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        for key, raw in parser.items(section):
            values[f"{section}.{key}"] = _convert(f"{section}.{key}", raw)
    return values


def apply_overrides(values: dict[str, object], overrides) -> dict[str, object]:
    for item in overrides or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        values[key.strip()] = _convert(key.strip(), raw.strip())
    return values


def train_config(values: dict[str, object], seed: int) -> TrainConfig:
    chosen = {name: values[key] for key, name in _TRAIN_KEYS.items() if key in values}
    return TrainConfig(seed=seed, **chosen)


def _section(values: dict[str, object], prefix: str) -> dict[str, object]:
    """The registered keys under ``prefix`` that are set, named without it."""
    return {
        key[len(prefix):]: values[key]
        for key in REGISTRY
        if key.startswith(prefix) and key in values
    }


def model_config(values: dict[str, object], p: int, q: int, variational: bool) -> ModelConfig:
    return ModelConfig(p=p, q=q, variational=variational, **_section(values, "model."))


def synth_config(values: dict[str, object], seed: int) -> SynthConfig:
    chosen = _section(values, "synth.")
    edges_text = str(chosen.pop("chain_edges", "")).strip()
    base = chain_config(seed=seed, **chosen)
    if not edges_text:
        return base
    edges = [ChainEdge.from_text(tok) for tok in edges_text.split(",") if tok.strip()]
    return dataclasses.replace(base, chain_edges=edges)


def data_options(values: dict[str, object]) -> dict[str, object]:
    return {
        "min_genes_sc": int(values.get("data.qc_min_genes_sc", 500)),
        "min_genes_st": int(values.get("data.qc_min_genes_st", 1)),
        "apply_normalize": bool(values.get("data.normalize", True)),
        "top_fraction": float(values.get("data.hvg_fraction", 0.25)),
    }

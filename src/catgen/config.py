"""Flat ``key = value`` configuration with sections, typed by a key registry.

Files are INI-style::

    [train]
    epochs = 120
    lr = 0.002

which flattens to ``train.epochs`` etc. Every key sits under a named section:
a ``[DEFAULT]`` section is rejected, as are unknown keys and untypable values.
CLI ``--set section.key=value`` overrides go through the same registry.

Each setting has one owner, and the registry is derived from the owners'
typed fields, so a new field is a new key without an edit here:

- ``model.*``: ``ModelConfig`` but ``p`` and ``q``, which the data fixes;
- ``train.*``, ``diffusion.*`` and ``ar.decay``: ``TrainConfig`` but
  ``seed``, which ``--seed`` sets;
- ``data.*``: ``DataOptions``, under the key names of a 4-entry table;
- ``synth.*``: ``SynthConfig``'s fields but ``seed`` and ``chain_edges``, and
  ``chain_config``'s ``chain_length``, ``coeff`` and ``lag``.

Written by hand are only the key names that differ from their field names
and ``synth.chain_edges``, a text list of edges. The edges replace the planted
chain, so they cannot be set with ``synth.chain_length``, ``synth.coeff`` or
``synth.lag``. Keys left unset keep their owner's defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing

from .data import DataOptions
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


def _keys(owner, section: str, skip=(), renamed=None) -> dict[str, tuple[str, type]]:
    """Key -> (name, type) for each typed field or parameter of ``owner`` but ``skip``.

    A name's key is ``<section>.<name>`` unless ``renamed`` gives another.
    """
    renamed = renamed or {}
    return {
        renamed.get(name, f"{section}.{name}"): (name, kind)
        for name, kind in typing.get_type_hints(owner).items()
        if name not in (*skip, "return")
    }


# seed comes from --seed; p and q from the prepared data
_TRAIN_KEYS = _keys(TrainConfig, "train", skip=("seed",), renamed={
    "ar_decay": "ar.decay",
    "T": "diffusion.T",
    "beta_start": "diffusion.beta_start",
    "beta_end": "diffusion.beta_end",
    "sampling": "diffusion.sampling",
})
_MODEL_KEYS = _keys(ModelConfig, "model", skip=("p", "q"))
_DATA_KEYS = _keys(DataOptions, "data", renamed={
    "min_genes_sc": "data.qc_min_genes_sc",
    "min_genes_st": "data.qc_min_genes_st",
    "apply_normalize": "data.normalize",
    "top_fraction": "data.hvg_fraction",
})
_CHAIN_KEYS = _keys(chain_config, "synth")  # the planted chain, which synth.chain_edges replaces
_SYNTH_KEYS = _keys(SynthConfig, "synth", skip=("chain_edges", "seed")) | _CHAIN_KEYS

REGISTRY: dict[str, type] = {
    key: kind
    for keys in (_MODEL_KEYS, _TRAIN_KEYS, _DATA_KEYS, _SYNTH_KEYS)
    for key, (_, kind) in keys.items()
}
REGISTRY["synth.chain_edges"] = str  # comma-separated ChainEdge texts
FIT_KEYS = frozenset({*_MODEL_KEYS, *_TRAIN_KEYS})  # the keys model_config and train_config read


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
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        if parser.defaults():  # a [DEFAULT] section, which configparser copies into every other
            raise ConfigError(f"malformed config file {path}: keys outside a named section")
        for section in parser.sections():
            for key, raw in parser.items(section):
                values[f"{section}.{key}"] = _convert(f"{section}.{key}", raw)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    return values


def apply_overrides(values: dict[str, object], overrides) -> dict[str, object]:
    for item in overrides or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        values[key.strip()] = _convert(key.strip(), raw.strip())
    return values


def _chosen(values: dict[str, object], keys: dict[str, tuple[str, type]]) -> dict[str, object]:
    """The keys of one owner that are set, by field name."""
    return {name: values[key] for key, (name, _) in keys.items() if key in values}


def train_config(values: dict[str, object], seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, **_chosen(values, _TRAIN_KEYS))


def model_config(values: dict[str, object], p: int, q: int) -> ModelConfig:
    return ModelConfig(p=p, q=q, **_chosen(values, _MODEL_KEYS))


def data_options(values: dict[str, object]) -> DataOptions:
    return DataOptions(**_chosen(values, _DATA_KEYS))


def synth_config(values: dict[str, object], seed: int) -> SynthConfig:
    base = chain_config(seed=seed, **_chosen(values, _SYNTH_KEYS))
    edges_text = str(values.get("synth.chain_edges", "")).strip()
    if not edges_text:
        return base
    if dropped := [key for key in _CHAIN_KEYS if key in values]:
        raise ConfigError(f"synth.chain_edges replaces the chain that {', '.join(dropped)} would plant")
    edges = [ChainEdge.from_text(tok) for tok in edges_text.split(",") if tok.strip()]
    return dataclasses.replace(base, chain_edges=edges)

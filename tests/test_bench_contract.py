"""The names the benchmark's tracer rebinds must exist in catgen.

``catbench/tracing.py`` looks each traced function up with
``vars(module)[name]`` (or ``vars(cls)[name]`` for a method), so renaming or
removing one breaks every traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # catbench sits beside tests/
from catbench import tracing  # noqa: E402


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, _ in tracing.TRACED]
)
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = vars(owner)[part]
    assert callable(owner)


def test_train_step_draws_through_the_traced_sampler():
    train = importlib.import_module("catgen.train")
    diffusion = importlib.import_module("catgen.diffusion")
    assert vars(train)["sample_timesteps"] is vars(diffusion)["sample_timesteps"]


def test_tracer_restores_every_name():
    with tracing.Tracer():
        pass
    assert tracing.leftover_wrappers() == []

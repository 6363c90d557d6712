"""The names the benchmark's tracer rebinds must exist in catgen.

``catbench/tracing.py`` looks each traced function up with
``vars(module)[name]`` (or ``vars(cls)[name]`` for a method), so renaming or
removing one breaks every traced benchmark run. The smoke run checks the
rest of what the benchmark calls: ``prepare_pair``'s keywords, ``TrainConfig``
and the CLI keys of its ``pipeline``.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from catgen import generate, train
from catgen.arplan import generate_ar_steps
from catgen.data import ExpressionMatrix
from catgen.diffusion import Fractional, linear_schedule, respaced_chain
from catgen.model import ModelConfig, init_params

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


def test_traced_runs_count_forward_rows():
    """The row-count hooks read ``cat_forward``'s batch and ``_predict_noise``'s result."""
    cfg = ModelConfig(p=4, q=5, d=8, heads=2, blocks=1)
    params = init_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    S = 6
    st_batch, sc_batch = rng.standard_normal((S, cfg.p)), rng.standard_normal((S, cfg.q))
    tcfg = train.TrainConfig(T=20, seed=0, gene_order="granger")  # no permutation draw
    schedule = linear_schedule(20)
    # with a fixed gene order the AR plan is the step's first draw
    plan = generate_ar_steps(S, tcfg.ar_decay, np.random.default_rng(2))
    sc = ExpressionMatrix(
        [f"G{i}" for i in range(5)], [f"c{j}" for j in range(cfg.q)],
        np.abs(rng.standard_normal((5, cfg.q))),
    )
    steps = len(respaced_chain(schedule, Fractional(5))[0])

    with tracing.Tracer() as tracer:
        train.train_step(
            st_batch, sc_batch, params.copy(), tcfg, np.random.default_rng(2), schedule,
            train.Adam(tcfg.lr),
        )
        train_rows = tracer.counts["model.cat_forward_rows"]
        generate.generate_genes(sc, sc.gene_ids, params, schedule, groups=2, strategy=Fractional(5))

    assert train_rows == S + (S - plan.sz[-1]) + S  # conditions, clean, noisy
    assert tracer.counts["model.cat_forward_rows"] == train_rows + 5 * steps  # groups of 3 and 2
    assert tracer.counts["generate.rows_computed"] == 5 * steps
    assert tracer.counts["generate.rows_consumed"] == 5 * steps
    assert sum(span[0] == "model.cat_forward" for span in tracer.spans) == 1 + 2 * steps
    assert tracing.leftover_wrappers() == []


def test_smoke_run_passes():
    """``catbench/run.py --smoke`` runs every workload at tiny sizes and checks its metrics."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "catbench" / "run.py"), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "smoke: ok" in done.stdout

"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Every workload is a closed loop with one caller: an operation starts only
after the previous one has finished. A *round* is a fixed list of operations
built from the set-up state, so the same seed always gives the same
operations; the benchmark repeats rounds until its time is up and compares
each round's outputs with the first (the replay check).

Inputs come from ``catgen.synth`` with the workload seed: 128 genes, p=16
spots and q=64 cells, prepared with QC threshold 1 and HVG fraction 1.0 so
that all 128 genes survive. The model uses catgen's defaults (d=64, 4 heads,
3 blocks, T=2000).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from catgen import cli, data, diffusion, generate, model, synth, train


class CheckFailed(Exception):
    """An operation's output broke one of its workload's checks."""


@dataclass(frozen=True)
class Sizes:
    genes: int = 128
    spots: int = 16
    cells: int = 64
    d: int = 64
    heads: int = 4
    blocks: int = 3
    T: int = 2000
    train_steps: int = 100  # train steps per round
    gen_groups: int = 4
    gen_sampling: str = "frac:20"
    # enough training for a test PCC well above 0 (0.11 to 0.32 on seeds 3 to 6)
    warmup_epochs: int = 500
    diffusion_epochs: int = 10
    setups_per_round: int = 3  # setup_s is the median of all set-ups in a run


FULL = Sizes()
SMOKE = Sizes(
    genes=32, d=16, heads=2, blocks=1, T=40, train_steps=4, warmup_epochs=2, diffusion_epochs=2,
    setups_per_round=1,
)

# QC threshold 1 and HVG fraction 1.0: catgen's data defaults
# (data.qc_min_genes_sc=500, data.hvg_fraction=0.25) cannot run on 128-gene
# synthetic data. A threshold of 500 detected genes drops every cell, and a
# 0.25 fraction leaves 4 shared genes, below split_genes' minimum of 10.
DATA_OPTIONS = {"min_genes_sc": 1, "min_genes_st": 1, "apply_normalize": True, "top_fraction": 1.0}
DATA_OVERRIDES = ["--set", "data.qc_min_genes_sc=1", "--set", "data.hvg_fraction=1.0"]


@dataclass
class Outcome:
    fingerprint: bytes  # must be bit-identical across replays of the operation
    work: int  # units of work the operation completed
    extras: dict = field(default_factory=dict)  # workload-specific results
    phases: dict[str, float] | None = None  # seconds of each timed phase, if split


def _synth_pair(seed: int, sizes: Sizes) -> data.PreparedPair:
    st, sc, _ = synth.generate(
        synth.chain_config(n_genes=sizes.genes, n_spots=sizes.spots, n_cells=sizes.cells, seed=seed)
    )
    return data.prepare_pair(st, sc, **DATA_OPTIONS)


def _model_config(pair: data.PreparedPair, sizes: Sizes) -> model.ModelConfig:
    return model.ModelConfig(
        p=pair.st.n_obs, q=pair.sc.n_obs, d=sizes.d, heads=sizes.heads, blocks=sizes.blocks
    )


# -- train ----------------------------------------------------------------------


@dataclass
class TrainState:
    seed: int
    sizes: Sizes
    cfg: train.TrainConfig
    init: model.CatParameters
    schedule: diffusion.DiffusionSchedule
    batches: list[tuple[np.ndarray, np.ndarray]]


class Train:
    """One ``train.train_step`` on a 16-gene batch from seeded ``init_params``."""

    name = "train"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> TrainState:
        pair = _synth_pair(seed, sizes)
        split = data.split_genes(range(len(pair.genes)), seed)
        cfg = train.TrainConfig(seed=seed, T=sizes.T)  # full timesteps, random gene order
        rng = np.random.default_rng(seed)
        init = model.init_params(_model_config(pair, sizes), rng)
        genes = [split.train_genes[i] for i in rng.permutation(len(split.train_genes))]
        size = cfg.batch_genes
        batches = [
            (pair.st.values[genes[i : i + size]], pair.sc.values[genes[i : i + size]])
            for i in range(0, len(genes) - size + 1, size)
        ]
        schedule = diffusion.linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
        return TrainState(seed, sizes, cfg, init, schedule, batches)

    def round(self, s: TrainState) -> list:
        params = s.init.copy()
        opt = train.Adam(s.cfg.lr)
        rng = np.random.default_rng(s.seed)
        trainable = train.diffusion_trainable(params, s.cfg)

        def step(i):
            st_batch, sc_batch = s.batches[i % len(s.batches)]
            return train.train_step(st_batch, sc_batch, params, s.cfg, rng, s.schedule, opt, trainable)

        return [functools.partial(step, i) for i in range(s.sizes.train_steps)]

    def check(self, s: TrainState, raw) -> Outcome:
        params, loss = raw
        if not math.isfinite(loss):
            raise CheckFailed(f"training loss {loss} is not finite")
        digest = hashlib.sha256(struct.pack("<d", loss))
        for name in params.names():
            digest.update(params[name].data.tobytes())
        return Outcome(digest.digest(), 1)


# -- generate_ar ------------------------------------------------------------------


@dataclass
class GenerateState:
    seed: int
    sizes: Sizes
    sc: data.ExpressionMatrix
    genes: list[str]
    params: model.CatParameters
    schedule: diffusion.DiffusionSchedule
    T: int


class GenerateAR:
    """One ``generate.generate_genes`` request: the validation genes in AR groups."""

    name = "generate_ar"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> GenerateState:
        pair = _synth_pair(seed, sizes)
        split = data.split_genes(range(len(pair.genes)), seed)
        # generation cost does not depend on the weight values, so an
        # untrained checkpoint stands in for a trained one
        params = model.init_params(_model_config(pair, sizes), np.random.default_rng(seed))
        path = os.path.join(workdir, "untrained.catg")
        cfg = train.TrainConfig(seed=seed, T=sizes.T)
        meta = {"T": cfg.T, "beta_start": cfg.beta_start, "beta_end": cfg.beta_end, "seed": seed}
        model.save_checkpoint(params, path, meta)
        params, meta = model.load_checkpoint(path)
        schedule = diffusion.linear_schedule(int(meta["T"]), meta["beta_start"], meta["beta_end"])
        genes = [pair.genes[i] for i in split.val_genes]
        return GenerateState(seed, sizes, pair.sc, genes, params, schedule, int(meta["T"]))

    def round(self, s: GenerateState) -> list:
        def request():
            return generate.generate_genes(
                s.sc, s.genes, s.params, s.schedule,
                groups=s.sizes.gen_groups,
                strategy=diffusion.parse_strategy(s.sizes.gen_sampling),
                seed=s.seed,
                trained_T=s.T,
            )

        return [request]

    def check(self, s: GenerateState, raw) -> Outcome:
        if raw.gene_ids != s.genes:
            raise CheckFailed("generated gene ids differ from the requested genes")
        if raw.values.shape != (len(s.genes), s.params.cfg.p):
            raise CheckFailed(f"generated shape {raw.values.shape} is wrong")
        if not np.isfinite(raw.values).all() or (raw.values < 0).any():
            raise CheckFailed("generated values are not finite and nonnegative")
        return Outcome(hashlib.sha256(raw.values.tobytes()).digest(), len(s.genes))


# -- pipeline ---------------------------------------------------------------------


@dataclass
class PipelineState:
    seed: int
    sizes: Sizes
    workdir: str

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)


OUTPUTS = ("model.catg", "history.csv", "pred.csv", "eval.csv")


class Pipeline:
    """One in-process pass through ``cli.main``: train, generate, eval."""

    name = "pipeline"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> PipelineState:
        argv = ["synth", "--out-dir", workdir, "--seed", str(seed)]
        for key, value in (("n_genes", sizes.genes), ("n_spots", sizes.spots), ("n_cells", sizes.cells)):
            argv += ["--set", f"synth.{key}={value}"]
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"catgen synth exited {rc}")
        return PipelineState(seed, sizes, workdir)

    def round(self, s: PipelineState) -> list:
        for name in OUTPUTS:  # a pass must not pass on a previous pass's files
            if os.path.exists(s.path(name)):
                os.remove(s.path(name))
        return [functools.partial(self._pass, s)]

    def _pass(self, s: PipelineState) -> dict:
        z = s.sizes
        seed = ["--seed", str(s.seed)]
        steps = [
            ("train", [
                "train", "--st", s.path("st.csv"), "--sc", s.path("sc.csv"),
                "--out", s.path("model.catg"), "--history", s.path("history.csv"),
                "--save-prepared", s.path("prepared"), "--gene-order", "granger", *seed,
                *DATA_OVERRIDES,
                "--set", f"train.recon_epochs={z.warmup_epochs}",
                "--set", f"train.epochs={z.diffusion_epochs}",
                "--set", f"model.d={z.d}", "--set", f"model.heads={z.heads}",
                "--set", f"model.blocks={z.blocks}", "--set", f"diffusion.T={z.T}",
            ]),
            # the CLI default sampler (full) and one AR group
            ("generate", [
                "generate", "--ckpt", s.path("model.catg"), "--sc", s.path("sc.csv"),
                "--genes", s.path("prepared", "genes_test.txt"), "--out", s.path("pred.csv"), *seed,
            ]),
            ("eval", [
                "eval", "--pred", s.path("pred.csv"),
                "--truth", s.path("prepared", "st_prepared.csv"), "--out", s.path("eval.csv"),
            ]),
        ]
        result = {}
        for step, argv in steps:
            start = time.perf_counter()
            rc = cli.main(argv)
            result[step] = (rc, time.perf_counter() - start)
            if rc != 0:
                break
        return result

    def check(self, s: PipelineState, raw: dict) -> Outcome:
        for step, (rc, _) in raw.items():
            if rc != 0:
                raise CheckFailed(f"catgen {step} exited {rc}")
        with open(s.path("eval.csv"), encoding="utf-8") as fh:
            rows = {row[0]: row for row in csv.reader(fh)}
        if "__mean__" not in rows:
            raise CheckFailed("eval wrote no __mean__ row")
        with open(s.path("prepared", "genes_test.txt"), encoding="utf-8") as fh:
            genes = fh.read().split()
        with open(s.path("pred.csv"), encoding="utf-8") as fh:
            predicted = [row[0] for row in csv.reader(fh)][1:]
        if predicted != genes:
            raise CheckFailed("predicted genes differ from the test genes")
        with open(s.path("history.csv"), encoding="utf-8") as fh:
            val = [float(row["val_pcc"]) for row in csv.DictReader(fh)]
        digest = hashlib.sha256()
        for name in OUTPUTS:
            with open(s.path(name), "rb") as fh:
                digest.update(fh.read())
        extras = {
            "test_pcc": float(rows["__mean__"][1]),
            "val_pcc_best": max((v for v in val if not math.isnan(v)), default=math.nan),
        }
        return Outcome(digest.digest(), 1, extras, {step: t for step, (_, t) in raw.items()})


WORKLOADS = {w.name: w for w in (Train(), GenerateAR(), Pipeline())}

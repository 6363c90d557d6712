"""Metric definitions and how they are derived from samples and spans.

``END_TO_END`` and ``PER_LAYER`` are the figures the last line of a run
reports (with tracing off and on, respectively); ``BENCHMARK.json`` declares
the same names and units. ``TABLE`` holds the named end-to-end figures
printed for each workload they apply to, from every sample of the run.
"""

from __future__ import annotations

import math
import statistics

from catbench.tracing import self_times_ns

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "best_op_ms_p50": "ms",
    "best_work_per_s": "1/s",
}

# workload -> (name, unit) printed for it; "all" applies to every workload
TABLE = {
    "all": [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("failed_frac", "failed/attempted")],
    "train": [
        ("train_steps_per_s", "steps/s"),
        ("train_step_ms_p50", "ms"),
        ("train_step_ms_p90", "ms"),
    ],
    "generate_ar": [("gen_genes_per_s", "genes/s"), ("gen_request_s_p50", "s")],
    "pipeline": [
        ("fit_s", "s"),
        ("generate_s", "s"),
        ("test_pcc", "pcc"),
        ("val_pcc_best", "pcc"),
    ],
}

# self time, per operation, of the spans with this name
SELF_MS = {
    "autodiff.backward_ms": "autodiff.gradients",
    "autodiff.gelu_ms": "autodiff.gelu",
    "autodiff.masked_softmax_ms": "autodiff.masked_softmax",
    "model.layer_norm_ms": "model.layer_norm",
    "model.attention_ms": "model.attention",
    "model.cat_forward_ms": "model.cat_forward",
    "model.encode_ms": "model.encode",
    "model.decode_ms": "model.decode",
    "model.save_checkpoint_ms": "model.save_checkpoint",
    "model.load_checkpoint_ms": "model.load_checkpoint",
    "mask.build_mask_ms": "mask.build_mask",
    "arplan.generate_ar_steps_ms": "arplan.generate_ar_steps",
    "diffusion.sample_timesteps_ms": "diffusion.sample_timesteps",
    "diffusion.respaced_chain_ms": "diffusion.respaced_chain",
    "train.train_step_ms": "train.train_step",
    "train.adam_ms": "train.adam",
    "train.clip_ms": "train.clip",
    "generate.reverse_step_ms": "generate.reverse_step",
    "data.load_matrix_ms": "data.load_matrix",
    "data.prepare_pair_ms": "data.prepare_pair",
    "data.save_matrix_ms": "data.save_matrix",
    "granger.test_pair_ms": "granger.test_pair",
    "metrics.score_ms": "metrics.score",
}

# number of spans with this name, per operation
CALLS = {
    "model.cat_forward_calls": "model.cat_forward",
    "generate.reverse_steps": "generate.reverse_step",
    "granger.test_pair_calls": "granger.test_pair",
}

# tracer counters, per operation
COUNTS = ("autodiff.tape_nodes", "model.cat_forward_rows")

PER_LAYER = {
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in (*CALLS, *COUNTS)},
    "train.warmup_phase_s": "s",
    "train.diffusion_phase_s": "s",
    "train.validation_s": "s",
    "train.validation_share": "ratio",
    "generate.useful_row_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def per_layer(spans: list[list], counts, ops: int, untraced_s: float, traced_s: float) -> dict:
    """Per-operation layer metrics from the spans and counters of ``ops`` traced operations."""
    self_ns = self_times_ns(spans)
    total_self: dict[str, int] = {}
    calls: dict[str, int] = {}
    in_fit = [False] * len(spans)
    warmup = diffusion_phase = validation = 0
    for i, (name, parent, start, end) in enumerate(spans):
        total_self[name] = total_self.get(name, 0) + self_ns[i]
        calls[name] = calls.get(name, 0) + 1
        in_fit[i] = name == "train.fit" or (parent >= 0 and in_fit[parent])
        if not in_fit[i]:
            continue
        if name == "train.warmup_step":
            warmup += end - start
        elif name in ("train.train_step", "train.validation"):
            diffusion_phase += end - start
            if name == "train.validation":
                validation += end - start
    out = {name: total_self.get(span, 0) / 1e6 / ops for name, span in SELF_MS.items()}
    out.update({name: calls.get(span, 0) / ops for name, span in CALLS.items()})
    out.update({name: counts.get(name, 0) / ops for name in COUNTS})
    out["train.warmup_phase_s"] = warmup / 1e9 / ops
    out["train.diffusion_phase_s"] = diffusion_phase / 1e9 / ops
    out["train.validation_s"] = validation / 1e9 / ops
    out["train.validation_share"] = validation / diffusion_phase if diffusion_phase else 0.0
    computed = counts.get("generate.rows_computed", 0)
    out["generate.useful_row_frac"] = counts.get("generate.rows_consumed", 0) / computed if computed else 0.0
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def table(workload: str, run) -> dict[str, tuple[float, str, int]]:
    """The named end-to-end figures for one workload: name -> (value, unit, samples)."""
    ops = run.op_seconds
    n = len(ops)
    values = {
        "setup_s": (statistics.median(run.setup_seconds), len(run.setup_seconds)),
        "peak_rss_mb": (run.peak_rss_mb, 1),
        "failed_frac": (run.failed / run.attempted, run.attempted),
    }
    if workload == "train":
        p90, beyond = percentile(ops, 90)
        values["train_steps_per_s"] = (run.work / sum(ops), n)
        values["train_step_ms_p50"] = (statistics.median(ops) * 1e3, n)
        # a p90 needs at least ten samples beyond it to mean anything
        values["train_step_ms_p90"] = (p90 * 1e3 if beyond >= 10 else math.nan, n)
    elif workload == "generate_ar":
        values["gen_genes_per_s"] = (run.work / sum(ops), n)
        values["gen_request_s_p50"] = (statistics.median(ops), n)
    elif workload == "pipeline":
        for name, step in (("fit_s", "train"), ("generate_s", "generate")):
            values[name] = (statistics.median(run.replays[0][step]), n)
        for name in ("test_pcc", "val_pcc_best"):
            values[name] = (run.extras[0][name], n)
    units = dict(TABLE["all"] + TABLE[workload])
    return {name: (value, units[name], count) for name, (value, count) in values.items()}


def end_to_end(run) -> dict[str, float]:
    """The metrics every workload reports, for the last line of an untraced run.

    The timings take each phase of each operation of the round at its fastest
    replay: interference from other tenants of a shared machine only ever
    slows an operation down, and comes in bursts longer than one operation.
    """
    best = [sum(min(times) for times in phases.values()) for phases in run.replays.values()]
    work_per_round = run.work / len(run.op_seconds) * len(best)
    return {
        "setup_s": statistics.median(run.setup_seconds),
        "peak_rss_mb": run.peak_rss_mb,
        "best_op_ms_p50": statistics.median(best) * 1e3,
        "best_work_per_s": work_per_round / sum(best),
    }

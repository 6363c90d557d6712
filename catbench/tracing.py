"""Spans around calls into catgen's layers, recorded from outside the package.

A ``Tracer`` rebinds the module-level names that catgen's own modules look up
at call time (``catgen.train.cat_forward``, ``catgen.model.gelu``,
``catgen.generate.reverse_step``, ``catgen.train.Adam.step`` ...) to thin
wrappers that record one span per call, and puts every original back when it
is closed. Nothing under ``src/`` is changed; with no tracer open, no wrapper
is reachable from any catgen module.

Spans are kept in memory as ``[name, parent, start_ns, end_ns]`` lists, in the
order they were opened, so a parent always precedes its children. A span's
self time is its duration minus the durations of its direct children, which
on one thread cover disjoint parts of the parent's interval.
"""

from __future__ import annotations

import collections
import functools
import importlib
import pkgutil
import sys
import time

# (module, attribute, span name). A function is rebound in every catgen
# module that holds a reference to it, so ``from .model import cat_forward``
# in train.py and generate.py is traced as well as the defining module. A
# dotted attribute names a method on a class. A span name of None wraps the
# function for its counter only: the tape walk is part of the backward pass,
# whose self time is the ``autodiff.gradients`` span.
TRACED = (
    ("catgen.autodiff", "gradients", "autodiff.gradients"),
    ("catgen.autodiff", "collect_tape", None),
    ("catgen.autodiff", "gelu", "autodiff.gelu"),
    ("catgen.autodiff", "masked_softmax", "autodiff.masked_softmax"),
    ("catgen.model", "layer_norm", "model.layer_norm"),
    ("catgen.model", "_attention", "model.attention"),
    ("catgen.model", "cat_forward", "model.cat_forward"),
    ("catgen.model", "encode", "model.encode"),
    ("catgen.model", "decode", "model.decode"),
    ("catgen.model", "save_checkpoint", "model.save_checkpoint"),
    ("catgen.model", "load_checkpoint", "model.load_checkpoint"),
    ("catgen.mask", "build_mask", "mask.build_mask"),
    ("catgen.arplan", "generate_ar_steps", "arplan.generate_ar_steps"),
    ("catgen.diffusion", "sample_timesteps", "diffusion.sample_timesteps"),
    ("catgen.diffusion", "respaced_chain", "diffusion.respaced_chain"),
    ("catgen.train", "train_step", "train.train_step"),
    ("catgen.train", "Adam.step", "train.adam"),
    ("catgen.train", "clip_global_norm", "train.clip"),
    ("catgen.train", "fit", "train.fit"),
    ("catgen.train", "_warmup_step", "train.warmup_step"),
    ("catgen.train", "_validation_pcc", "train.validation"),
    ("catgen.generate", "_predict_noise", "generate.predict_noise"),
    ("catgen.generate", "reverse_step", "generate.reverse_step"),
    ("catgen.data", "load_matrix", "data.load_matrix"),
    ("catgen.data", "prepare_pair", "data.prepare_pair"),
    ("catgen.data", "save_matrix", "data.save_matrix"),
    ("catgen.granger", "test_pair", "granger.test_pair"),
    ("catgen.metrics", "pcc", "metrics.score"),
    ("catgen.metrics", "ssim", "metrics.score"),
    ("catgen.metrics", "rmse_z", "metrics.score"),
    ("catgen.metrics", "js_divergence", "metrics.score"),
)


def _count_forward_rows(tracer: "Tracer", args, result) -> None:
    rows = args[0].tokens.shape[0]
    tracer.counts["model.cat_forward_rows"] += rows
    if tracer.open_name() == "generate.predict_noise":
        tracer.counts["generate.rows_computed"] += rows


def _count_consumed_rows(tracer: "Tracer", args, result) -> None:
    tracer.counts["generate.rows_consumed"] += result.shape[0]


def _count_tape(tracer: "Tracer", args, result) -> None:
    tracer.counts["autodiff.tape_nodes"] += len(result)


# run after the call returns (and its span has closed), keyed by attribute
HOOKS = {
    "cat_forward": _count_forward_rows,
    "_predict_noise": _count_consumed_rows,
    "collect_tape": _count_tape,
}

MARK = "__catbench_span__"


def catgen_modules() -> list:
    """Every catgen module, imported now so that none binds a wrapper later."""
    package = importlib.import_module("catgen")
    for info in pkgutil.iter_modules(package.__path__, "catgen."):
        importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items()) if n == "catgen" or n.startswith("catgen.")]


def leftover_wrappers() -> list[str]:
    """Names in catgen modules (and traced classes) still bound to a wrapper."""
    found = []
    for module in catgen_modules():
        for key, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [
                    f"{module.__name__}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, MARK)
                ]
    return found


class Tracer:
    """Context manager that records spans while catgen's layers are rebound."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def open_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- rebinding ----------------------------------------------------------------

    def _wrap(self, fn, span: str | None, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer.close(index)
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(wrapper, MARK, span or "")
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = catgen_modules()
        for module_name, attr, span in TRACED:
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method: rebind it on its class only
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                bindings = [(owner, attr)]
            else:
                original = vars(owner)[attr]
                bindings = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            wrapper = self._wrap(original, span, HOOKS.get(attr))
            for target, key in bindings:
                self._restore.append((target, key, original))
                setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)


def self_times_ns(spans: list[list]) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    child = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end) in enumerate(spans)]


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that end before they start or reach outside their parent."""
    errors = []
    for i, (name, parent, start, end) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} ({name}) ends before it starts")
        if parent >= i:
            errors.append(f"span {i} ({name}) has parent {parent} opened after it")
        elif parent >= 0:
            _, _, p_start, p_end = spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({name}) reaches outside its parent {parent}")
    return errors

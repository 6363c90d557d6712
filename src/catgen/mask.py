"""Generalized causal attention mask for blended autoregression and diffusion.

Token layout along both axes: ``c`` condition tokens, then ``v`` clean
(visible) tokens covering every AR step except the last, then ``S`` noisy
tokens covering all steps. ``True`` blocks attention, ``False`` allows it;
condition columns are never blocked.

``build_mask`` writes the block partitions directly (visible-to-visible,
sample-to-visible, sample-to-sample). The tests re-derive every entry from
four attendance rules and check that the result agrees entrywise.
"""

from __future__ import annotations

import numpy as np

from .arplan import ARStepPlan
from .errors import ShapeMismatchError


def build_mask(c: int, plan: ARStepPlan) -> np.ndarray:
    """Block-write construction of the (seq, seq) causal mask, ``True`` = blocked."""
    if c < 0:
        raise ShapeMismatchError(f"condition length must be nonnegative, got {c}")
    s, cs, v = plan.S, plan.cs, plan.v
    ctx = c + v
    seq = ctx + s

    m = np.ones((seq, seq), dtype=bool)
    m[:, :c] = False

    vtv = np.ones((v, v), dtype=bool)
    stv = np.ones((s, v), dtype=bool)
    sts = np.ones((s, s), dtype=bool)
    for i in range(plan.N - 1):
        vtv[cs[i] : cs[i + 1], 0 : cs[i + 1]] = False
        stv[cs[i + 1] : cs[i + 2], 0 : cs[i + 1]] = False
    for i in range(plan.N):
        sts[cs[i] : cs[i + 1], cs[i] : cs[i + 1]] = False

    m[c:ctx, c:ctx] = vtv
    m[ctx:, c:ctx] = stv
    m[ctx:, ctx:] = sts
    return m

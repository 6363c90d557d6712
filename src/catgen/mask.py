"""Generalized causal attention mask for blended autoregression and diffusion.

Token layout along both axes: ``c`` condition tokens, then ``v`` clean
(visible) tokens covering every AR step except the last, then ``S`` noisy
tokens covering all steps. ``True`` blocks attention, ``False`` allows it.
Attention from row r to column q is allowed iff one of:

1. q is a condition token;
2. r and q are clean tokens and q's AR step <= r's;
3. r is noisy, q is clean, and q's AR step < r's;
4. r and q are noisy tokens of the same AR step.
"""

from __future__ import annotations

import numpy as np

from .arplan import ARStepPlan
from .errors import ShapeMismatchError


def build_mask(c: int, plan: ARStepPlan) -> np.ndarray:
    """The (seq, seq) causal mask, ``True`` = blocked: each rule compares the
    AR steps of the gene tokens, and the pairs no rule allows stay blocked."""
    if c < 0:
        raise ShapeMismatchError(f"condition length must be nonnegative, got {c}")
    step = np.repeat(np.arange(plan.N), plan.sz)
    clean = step[: plan.v]
    ctx = c + plan.v
    m = np.ones((ctx + plan.S, ctx + plan.S), dtype=bool)
    m[:, :c] = False  # 1. conditions
    m[c:ctx, c:ctx] = clean[:, None] < clean[None, :]  # 2. clean -> clean
    m[ctx:, c:ctx] = step[:, None] <= clean[None, :]  # 3. noisy -> clean
    m[ctx:, ctx:] = step[:, None] != step[None, :]  # 4. noisy -> noisy
    return m

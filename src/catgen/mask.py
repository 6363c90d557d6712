"""Generalized causal attention mask for blended autoregression and diffusion.

Token layout along both axes: ``c`` condition tokens, then ``v`` clean
(visible) tokens covering every AR step except the last, then ``s`` noisy
tokens covering all steps. Entry 1 blocks attention, 0 allows it; condition
columns are never blocked.

``build_mask`` writes the block partitions directly (visible-to-visible,
sample-to-visible, sample-to-sample). The tests re-derive every entry from
four attendance rules and check that the result agrees entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arplan import ARStepPlan
from .errors import ShapeMismatchError


@dataclass(frozen=True)
class AttentionMask:
    seq: int
    c: int
    v: int
    matrix: np.ndarray  # (seq, seq) uint8, 1 = blocked

    def __post_init__(self):
        if self.matrix.shape != (self.seq, self.seq):
            raise ShapeMismatchError(
                f"mask matrix {self.matrix.shape} does not match seq={self.seq}"
            )

    @property
    def blocked(self) -> np.ndarray:
        return self.matrix.astype(bool)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.matrix:
                fh.write(",".join(str(int(x)) for x in row) + "\n")

    def to_pbm(self, path) -> None:
        """Plain PBM bitmap; blocked entries render black."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"P1\n{self.seq} {self.seq}\n")
            for row in self.matrix:
                fh.write(" ".join(str(int(x)) for x in row) + "\n")


def build_mask(s: int, c: int, plan: ARStepPlan) -> AttentionMask:
    """Block-write construction of the causal attention mask."""
    if plan.S != s:
        raise ShapeMismatchError(f"plan covers {plan.S} tokens but s={s}")
    if c < 0:
        raise ShapeMismatchError(f"condition length must be nonnegative, got {c}")
    cs = plan.cs
    v = s - plan.sz[-1]
    ctx = c + v
    seq = ctx + s

    m = np.ones((seq, seq), dtype=np.uint8)
    m[:, :c] = 0

    vtv = np.ones((v, v), dtype=np.uint8)
    stv = np.ones((s, v), dtype=np.uint8)
    sts = np.ones((s, s), dtype=np.uint8)
    for i in range(plan.N - 1):
        vtv[cs[i] : cs[i + 1], 0 : cs[i + 1]] = 0
        stv[cs[i + 1] : cs[i + 2], 0 : cs[i + 1]] = 0
    for i in range(plan.N):
        sts[cs[i] : cs[i + 1], cs[i] : cs[i + 1]] = 0

    m[c:ctx, c:ctx] = vtv
    m[ctx:, c:ctx] = stv
    m[ctx:, ctx:] = sts
    return AttentionMask(seq=seq, c=c, v=v, matrix=m)

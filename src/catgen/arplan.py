"""Random partition of the gene-token sequence into ordered autoregressive steps.

The number of steps N is biased toward small values by an exponential decay
factor alpha: P(N = i+1) is proportional to alpha**i (uniform when alpha is
exactly 1). The sequence is then cut at N-1 distinct positions drawn without
replacement, so the cumulative boundaries are strictly increasing and every
step is non-empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError


@dataclass(frozen=True)
class ARStepPlan:
    """Sizes of the autoregressive gene groups, in order; every other figure
    of the plan derives from them."""

    sz: tuple[int, ...]

    def __post_init__(self):
        if not self.sz or any(s < 1 for s in self.sz):
            raise ShapeMismatchError(f"empty AR step in {self.sz}")

    @property
    def cs(self) -> tuple[int, ...]:
        """Cumulative boundaries 0, sz[0], sz[0] + sz[1], ..., S."""
        return (0, *itertools.accumulate(self.sz))

    @property
    def S(self) -> int:
        """Gene tokens over all steps."""
        return sum(self.sz)

    @property
    def N(self) -> int:
        return len(self.sz)

    @property
    def v(self) -> int:
        """Clean tokens: every AR step's genes but the last step's."""
        return self.S - self.sz[-1]

    def to_text(self) -> str:
        return "sz=" + ",".join(str(s) for s in self.sz)

    @classmethod
    def from_text(cls, text: str) -> "ARStepPlan":
        body = text.strip()
        if body.startswith("sz="):
            body = body[3:]
        try:
            sizes = tuple(int(tok) for tok in body.split(","))
        except ValueError as exc:
            raise ShapeMismatchError(f"split sizes {text!r} are not integers") from exc
        return cls(sizes)


def step_count_weights(S: int, alpha: float) -> np.ndarray:
    """P(N = i+1) for i in [0, S); normalized geometric weights."""
    if alpha == 1.0:
        return np.full(S, 1.0 / S)
    b = (1.0 - alpha) / (1.0 - alpha**S)
    return b * alpha ** np.arange(S)


def _sample_cuts(S: int, count: int, rng: np.random.Generator) -> np.ndarray:
    # partial Fisher-Yates over [1, S): distinct cut points, deterministic per rng
    pool = np.arange(1, S)
    for j in range(count):
        k = j + int(rng.integers(0, pool.size - j))
        pool[j], pool[k] = pool[k], pool[j]
    return np.sort(pool[:count])


def generate_ar_steps(S: int, alpha: float, rng: np.random.Generator) -> ARStepPlan:
    """Draw an ARStepPlan for a sequence of ``S`` gene tokens.

    alpha = 1.0 makes the step count uniform on [1, S]; smaller alpha biases
    toward fewer steps. Cut points are uniform without replacement on [1, S).
    """
    if S < 1:
        raise ShapeMismatchError("cannot plan AR steps for an empty sequence")
    if not 0.0 < alpha <= 1.0:
        raise ShapeMismatchError(f"decay alpha must be in (0, 1], got {alpha}")
    if alpha == 1.0:
        N = int(rng.integers(1, S + 1))
    else:
        N = 1 + int(rng.choice(S, p=step_count_weights(S, alpha)))
    cuts = _sample_cuts(S, N - 1, rng)
    bounds = np.concatenate(([0], cuts, [S]))
    sizes = tuple(int(d) for d in np.diff(bounds))
    return ARStepPlan(sizes)

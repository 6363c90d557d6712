"""Paired synthetic ST / SC matrices with planted Granger-causal gene chains.

The observation index plays the role of pseudo-time. Genes without incoming
edges (roots) are unit-norm mixtures of a small number of shared white-noise
factors plus idiosyncratic noise, which gives the matrix the low-rank
co-expression structure real data has and makes held-out genes predictable
from the genes seen in training. Edge targets are coefficient-weighted lagged
copies of their drivers plus noise. ``generate`` reads the planted graph once,
as a map from each edge target to its edges: it fills every root, then each
target after its drivers. The SC matrix takes the first n_cells pseudo-time
points of every series and the ST matrix the first n_spots, so a gene's
spatial profile is a prefix of its single-cell profile and cross-modal
prediction is learnable by construction. Values are shifted nonnegative per
matrix and dropout zeroes entries independently afterwards.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass, field

import numpy as np

from .data import ExpressionMatrix
from .errors import ShapeMismatchError

GENE_PREFIX = "G"


@dataclass(frozen=True)
class ChainEdge:
    driver: int
    target: int
    coeff: float
    lag: int = 1

    def __post_init__(self):
        if self.lag < 1:
            raise ShapeMismatchError(f"edge lag must be >= 1, got {self.lag}")

    @classmethod
    def from_text(cls, text: str) -> "ChainEdge":
        """Parse ``driver->target:coeff[:lag]``; the coefficient must be finite."""
        head, _, rest = text.partition(":")
        driver, arrow, target = head.partition("->")
        coeff, _, lag = rest.partition(":")
        try:
            fields = int(driver), int(target), float(coeff), int(lag or 1)
        except ValueError:
            fields = None
        if not arrow or fields is None or not math.isfinite(fields[2]):
            raise ShapeMismatchError(f"bad edge spec {text!r}, want driver->target:coeff[:lag]")
        return cls(*fields)


@dataclass
class SynthConfig:
    n_genes: int = 32
    n_spots: int = 16
    n_cells: int = 64
    chain_edges: list[ChainEdge] = field(default_factory=list)
    noise_sd: float = 0.1
    dropout_rate: float = 0.0
    n_factors: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_genes < 1 or self.n_spots < 1 or self.n_cells < 1:
            raise ShapeMismatchError("matrix dimensions must be positive")
        if self.noise_sd < 0:
            raise ShapeMismatchError("noise_sd must be nonnegative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ShapeMismatchError("dropout_rate must be in [0, 1)")
        if self.n_factors < 1:
            raise ShapeMismatchError("need at least one shared factor")
        length = max(self.n_spots, self.n_cells)
        shapes = ((self.n_genes, length), (self.n_factors, length), (self.n_genes, self.n_factors))
        for rows, cols in shapes:
            if rows * cols * 8 > np.iinfo(np.intp).max:  # float64 bytes beyond numpy's index range
                raise ShapeMismatchError(
                    f"a {rows} x {cols} matrix is beyond the largest array numpy can index"
                )
        for edge in self.chain_edges:
            for g in (edge.driver, edge.target):
                if not 0 <= g < self.n_genes:
                    raise ShapeMismatchError(f"edge gene {g} outside [0, {self.n_genes})")


def chain_config(chain_length: int = 6, coeff: float = 0.9, lag: int = 1, **fields) -> SynthConfig:
    """``SynthConfig(**fields)`` with a ``chain_length``-gene chain G0 -> G1 -> ... planted."""
    n_genes = fields.get("n_genes", SynthConfig.n_genes)
    edges = [ChainEdge(i, i + 1, coeff, lag) for i in range(min(chain_length, n_genes) - 1)]
    return SynthConfig(chain_edges=edges, **fields)


def gene_name(i: int, n_genes: int) -> str:
    width = max(3, len(str(n_genes - 1)))
    return f"{GENE_PREFIX}{i:0{width}d}"


def generate(
    cfg: SynthConfig,
) -> tuple[ExpressionMatrix, ExpressionMatrix, list[tuple[str, str, float, int]]]:
    """Generate (ST matrix, SC matrix, planted edges with gene names)."""
    incoming: dict[int, list[ChainEdge]] = {}  # each edge target's edges, in config order
    sorter = graphlib.TopologicalSorter()
    for e in cfg.chain_edges:
        incoming.setdefault(e.target, []).append(e)
        sorter.add(e.target, e.driver)
    try:
        targets = [g for g in sorter.static_order() if g in incoming]
    except graphlib.CycleError:
        raise ShapeMismatchError("chain_edges contain a cycle") from None
    rng = np.random.default_rng(cfg.seed)
    length = max(cfg.n_spots, cfg.n_cells)
    factors = rng.standard_normal((cfg.n_factors, length))
    loadings = rng.standard_normal((cfg.n_genes, cfg.n_factors))
    loadings /= np.linalg.norm(loadings, axis=1, keepdims=True)
    series = cfg.noise_sd * rng.standard_normal((cfg.n_genes, length))
    for g in range(cfg.n_genes):
        if g not in incoming:  # row by row: one batched loadings @ factors differs in the last bit
            series[g] += loadings[g] @ factors
    for g in targets:  # each after its drivers
        for e in incoming[g]:
            series[g, e.lag :] += e.coeff * series[e.driver, : length - e.lag]

    genes = [gene_name(i, cfg.n_genes) for i in range(cfg.n_genes)]

    def finish(values: np.ndarray, obs_prefix: str) -> ExpressionMatrix:
        shifted = values - min(values.min(), 0.0)
        if cfg.dropout_rate > 0.0:
            shifted = np.where(rng.random(shifted.shape) < cfg.dropout_rate, 0.0, shifted)
        obs = [f"{obs_prefix}{j}" for j in range(values.shape[1])]
        return ExpressionMatrix(gene_ids=list(genes), obs_ids=obs, values=shifted)

    st = finish(series[:, : cfg.n_spots].copy(), "spot")
    sc = finish(series[:, : cfg.n_cells].copy(), "cell")
    edges = [(genes[e.driver], genes[e.target], e.coeff, e.lag) for e in cfg.chain_edges]
    return st, sc, edges

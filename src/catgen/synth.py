"""Paired synthetic ST / SC matrices with planted Granger-causal gene chains.

The observation index plays the role of pseudo-time. Genes without incoming
edges are unit-norm mixtures of a small number of shared white-noise factors
plus idiosyncratic noise, which gives the matrix the low-rank co-expression
structure real data has and makes held-out genes predictable from the genes
seen in training. Edge targets are coefficient-weighted lagged copies of
their drivers plus noise. The SC matrix takes the first n_cells pseudo-time
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
        for edge in self.chain_edges:
            for g in (edge.driver, edge.target):
                if not 0 <= g < self.n_genes:
                    raise ShapeMismatchError(f"edge gene {g} outside [0, {self.n_genes})")


def chain_config(chain_length: int = 6, coeff: float = 0.9, lag: int = 1, **fields) -> SynthConfig:
    """``SynthConfig(**fields)`` with a ``chain_length``-gene chain G0 -> G1 -> ... planted."""
    n_genes = fields.get("n_genes", SynthConfig.n_genes)
    edges = [ChainEdge(i, i + 1, coeff, lag) for i in range(min(chain_length, n_genes) - 1)]
    return SynthConfig(chain_edges=edges, **fields)


def _topological_order(n_genes: int, edges: list[ChainEdge]) -> list[int]:
    # every gene after its drivers; generate's output does not depend on which such order
    drivers: dict[int, list[int]] = {g: [] for g in range(n_genes)}
    for e in edges:
        drivers[e.target].append(e.driver)
    try:
        return list(graphlib.TopologicalSorter(drivers).static_order())
    except graphlib.CycleError:
        raise ShapeMismatchError("chain_edges contain a cycle") from None


def gene_name(i: int, n_genes: int) -> str:
    width = max(3, len(str(n_genes - 1)))
    return f"{GENE_PREFIX}{i:0{width}d}"


def generate(
    cfg: SynthConfig,
) -> tuple[ExpressionMatrix, ExpressionMatrix, list[tuple[str, str, float, int]]]:
    """Generate (ST matrix, SC matrix, planted edges with gene names)."""
    order = _topological_order(cfg.n_genes, cfg.chain_edges)
    rng = np.random.default_rng(cfg.seed)
    length = max(cfg.n_spots, cfg.n_cells)
    factors = rng.standard_normal((cfg.n_factors, length))
    loadings = rng.standard_normal((cfg.n_genes, cfg.n_factors))
    loadings /= np.linalg.norm(loadings, axis=1, keepdims=True)
    base = rng.standard_normal((cfg.n_genes, length))

    incoming: dict[int, list[ChainEdge]] = {g: [] for g in range(cfg.n_genes)}
    for e in cfg.chain_edges:
        incoming[e.target].append(e)

    series = np.zeros((cfg.n_genes, length))
    for g in order:
        if not incoming[g]:
            series[g] = loadings[g] @ factors + cfg.noise_sd * base[g]
            continue
        signal = cfg.noise_sd * base[g]
        for e in incoming[g]:
            signal[e.lag :] += e.coeff * series[e.driver][: length - e.lag]
        series[g] = signal

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

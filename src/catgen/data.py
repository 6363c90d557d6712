"""Expression matrices and the preprocessing protocol.

Matrices are stored dense, genes x observations, with string identifiers on
both axes. The on-disk format is UTF-8 CSV with header
``gene_id,<obs1>,<obs2>,...`` and one row per gene. All operations are pure:
they return new matrices and never mutate their inputs.

This module owns the CSV format of every table catgen writes, float text
included: ``write_csv`` is the one writer.

A matrix does not record whether it holds spatial spots or single cells: the
caller that knows a matrix's role chooses its QC threshold. ``prepare_pair``
takes the spatial matrix first and the single-cell matrix second, and
filters them at ``min_genes_st`` and ``min_genes_sc``.

The preparation pipeline for a paired dataset is: quality-control filter on
observations, per-observation library-size normalization, highly-variable
gene selection per matrix, then intersection of the surviving gene sets
(spatial genes must be covered by the single-cell reference).
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataFormatError,
    DegenerateInputError,
    EmptyResultError,
    ShapeMismatchError,
)


@dataclass
class ExpressionMatrix:
    """Nonnegative expression values for ``n_genes`` genes over ``n_obs`` spots or cells."""

    gene_ids: list[str]
    obs_ids: list[str]
    values: np.ndarray  # (n_genes, n_obs) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeMismatchError(f"values must be 2-D, got shape {self.values.shape}")
        if len(self.gene_ids) != self.values.shape[0]:
            raise ShapeMismatchError(
                f"{len(self.gene_ids)} gene ids vs {self.values.shape[0]} rows"
            )
        if len(self.obs_ids) != self.values.shape[1]:
            raise ShapeMismatchError(
                f"{len(self.obs_ids)} observation ids vs {self.values.shape[1]} columns"
            )
        if len(set(self.gene_ids)) != len(self.gene_ids):
            raise DataFormatError("duplicate gene ids")
        if len(set(self.obs_ids)) != len(self.obs_ids):
            raise DataFormatError("duplicate observation ids")
        if not np.isfinite(self.values).all():
            raise DataFormatError("matrix contains NaN or Inf")
        if (self.values < 0).any():
            raise DataFormatError("matrix contains negative expression values")

    @property
    def n_genes(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]

    def gene_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.gene_ids)}

    def subset_genes(self, indices) -> "ExpressionMatrix":
        indices = list(indices)
        return ExpressionMatrix(
            gene_ids=[self.gene_ids[i] for i in indices],
            obs_ids=list(self.obs_ids),
            values=self.values[indices].copy(),
        )

    def subset_obs(self, indices) -> "ExpressionMatrix":
        indices = list(indices)
        return ExpressionMatrix(
            gene_ids=list(self.gene_ids),
            obs_ids=[self.obs_ids[i] for i in indices],
            values=self.values[:, indices].copy(),
        )


@contextlib.contextmanager
def utf8_text(path):
    """Report text read from ``path`` that is not UTF-8 as a ``DataFormatError``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_matrix(path) -> ExpressionMatrix:
    """Read a gene x observation matrix from a CSV file.

    The first row holds observation ids (first cell is a label for the gene
    column and is ignored); each following row is a gene id followed by its
    expression values. Ragged rows, duplicate ids and cells that are not
    finite nonnegative numbers are reported with the path and their position.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    with fh, utf8_text(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        obs_ids = [h.strip() for h in header[1:]]
        if not obs_ids:
            raise DataFormatError(f"{path}: header has no observation columns")
        seen: set[str] = set()
        for j, obs in enumerate(obs_ids, start=2):
            if obs in seen:
                raise DataFormatError(f"{path}: duplicate observation id {obs!r} at row 1, column {j}")
            seen.add(obs)
        gene_ids: list[str] = []
        rows: list[np.ndarray] = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            gene = row[0].strip()
            if gene in seen:
                raise DataFormatError(f"{path}: duplicate gene id {gene!r} at row {lineno}")
            seen.add(gene)
            cells = row[1:]
            if len(cells) != len(obs_ids):
                raise DataFormatError(
                    f"{path}: row {lineno} has {len(cells)} values, expected {len(obs_ids)}"
                )
            parsed = np.empty(len(cells), dtype=np.float64)
            for j, cell in enumerate(cells):
                try:
                    parsed[j] = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: non-numeric cell {cell!r} at row {lineno}, column {j + 2}"
                    ) from None
            bad = np.flatnonzero(~np.isfinite(parsed) | (parsed < 0))
            if bad.size:
                raise DataFormatError(
                    f"{path}: {cells[bad[0]]!r} is not a finite nonnegative value"
                    f" at row {lineno}, column {bad[0] + 2}"
                )
            gene_ids.append(gene)
            rows.append(parsed)
    if not rows:
        raise DataFormatError(f"{path}: no gene rows")
    return ExpressionMatrix(gene_ids=gene_ids, obs_ids=obs_ids, values=np.vstack(rows))


def write_csv(path, header, rows) -> None:
    """Write ``header``, then each of ``rows`` as it is drawn: UTF-8, ``\\n`` line
    ends, every float (numpy's float64 too) as ``repr(float(x))``, which reads
    back bitwise, and other cells as ``csv`` writes them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])


def save_matrix(m: ExpressionMatrix, path) -> None:
    rows = ([gene, *row.tolist()] for gene, row in zip(m.gene_ids, m.values))
    write_csv(path, ["gene_id", *m.obs_ids], rows)


@dataclass(frozen=True)
class DataOptions:
    """Preprocessing settings; the one place their defaults are written."""

    top_fraction: float = 0.25
    min_genes_sc: int = 500
    min_genes_st: int = 1
    apply_normalize: bool = True

    def __post_init__(self):
        if not 0.0 < self.top_fraction <= 1.0:
            raise ShapeMismatchError(f"top_fraction must be in (0, 1], got {self.top_fraction}")

    def qc_normalize(self, m: ExpressionMatrix, min_genes: int) -> ExpressionMatrix:
        """Per-matrix steps: QC-filter the observations at ``min_genes``, then normalize if set."""
        m = qc_filter(m, min_genes)
        return normalize(m) if self.apply_normalize else m


def qc_filter(m: ExpressionMatrix, min_genes: int) -> ExpressionMatrix:
    """Drop observations detecting fewer than ``min_genes`` genes; the gene set is unchanged."""
    detected = (m.values > 0).sum(axis=0)
    keep = np.flatnonzero(detected >= min_genes)
    if keep.size == 0:
        raise EmptyResultError(
            f"qc_filter removed every observation of {m.obs_ids[0]}..{m.obs_ids[-1]}"
            f" (threshold {min_genes})"
        )
    return m.subset_obs(keep)


def normalize(m: ExpressionMatrix) -> ExpressionMatrix:
    """Library-size normalization: log(N * count / obs_total + 1), natural log.

    N is the median total count per observation (midpoint of the two central
    values when the observation count is even). Every observation must have a
    positive total, which qc_filter guarantees.
    """
    totals = m.values.sum(axis=0)
    if (totals <= 0).any():
        bad = m.obs_ids[int(np.argmax(totals <= 0))]
        raise DegenerateInputError(f"observation {bad!r} has zero total count")
    n_median = float(np.median(totals))
    scaled = m.values * (n_median / totals)
    return ExpressionMatrix(list(m.gene_ids), list(m.obs_ids), np.log1p(scaled))


def select_hvg(m: ExpressionMatrix, top_fraction: float) -> ExpressionMatrix:
    """Keep the ceil(top_fraction * n_genes) most variable genes, input order preserved.

    Variance is the population variance across observations; ties at the cut
    keep the gene with the smaller original index.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ShapeMismatchError(f"top_fraction must be in (0, 1], got {top_fraction}")
    variances = m.values.var(axis=1)
    k = math.ceil(top_fraction * m.n_genes)
    ranked = np.argsort(-variances, kind="stable")  # stable sort breaks ties by index
    keep = np.sort(ranked[:k])
    return m.subset_genes(keep)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/val/test index sets covering the shared gene set."""

    train_genes: tuple[int, ...]
    val_genes: tuple[int, ...]
    test_genes: tuple[int, ...]

    def __post_init__(self):
        parts = (set(self.train_genes), set(self.val_genes), set(self.test_genes))
        total = len(self.train_genes) + len(self.val_genes) + len(self.test_genes)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise ShapeMismatchError("split sets overlap")
        n = total
        for count, frac in zip((len(p) for p in parts), (0.7, 0.2, 0.1)):
            if abs(count - frac * n) > 1.0 + 1e-9:
                raise ShapeMismatchError(
                    f"split sizes {[len(p) for p in parts]} deviate from 70/20/10 over {n}"
                )


def split_genes(shared_genes, seed: int) -> SplitAssignment:
    """Deterministic 70/20/10 split of the shared gene indices."""
    indices = list(shared_genes)
    n = len(indices)
    if n < 10:
        raise EmptyResultError(f"need at least 10 shared genes to split, got {n}")
    n_train = round(0.7 * n)
    n_val = round(0.2 * n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [indices[i] for i in order]
    return SplitAssignment(
        train_genes=tuple(sorted(shuffled[:n_train])),
        val_genes=tuple(sorted(shuffled[n_train : n_train + n_val])),
        test_genes=tuple(sorted(shuffled[n_train + n_val :])),
    )


@dataclass
class PreparedPair:
    st: ExpressionMatrix
    sc: ExpressionMatrix
    genes: list[str] = field(init=False)

    def __post_init__(self):
        if self.st.gene_ids != self.sc.gene_ids:
            raise ShapeMismatchError("prepared pair must share an identical gene list")
        self.genes = list(self.st.gene_ids)


def prepare_pair(st_raw: ExpressionMatrix, sc_raw: ExpressionMatrix, **options) -> PreparedPair:
    """Full preprocessing protocol for a paired ST / SC dataset.

    ``options`` are ``DataOptions`` fields; those not given keep their
    defaults. Gene ids are matched case-sensitively; the shared gene order
    follows the spatial matrix. N for normalization is computed after QC
    filtering.
    """
    opts = DataOptions(**options)
    st = select_hvg(opts.qc_normalize(st_raw, opts.min_genes_st), opts.top_fraction)
    sc = select_hvg(opts.qc_normalize(sc_raw, opts.min_genes_sc), opts.top_fraction)
    sc_idx = sc.gene_index()
    shared = [g for g in st.gene_ids if g in sc_idx]
    if not shared:
        raise EmptyResultError("no genes survive HVG selection in both modalities")
    st_idx = st.gene_index()
    return PreparedPair(
        st=st.subset_genes([st_idx[g] for g in shared]),
        sc=sc.subset_genes([sc_idx[g] for g in shared]),
    )

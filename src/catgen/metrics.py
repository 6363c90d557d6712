"""Per-gene evaluation metrics and their aggregation.

All four metrics compare a predicted spatial expression vector against the
ground truth for one gene. Variances are population variances throughout so
results are deterministic and consistent with ``aggregate``. A vector is
constant when its range is exactly 0: the ``std()`` of a constant such as 0.7
can round to a tiny nonzero value. ``pcc`` and ``rmse_z`` first scale each
vector by a power of two (exact, and neither metric depends on scale), so
entries near 1e-200, whose squared deviations would underflow to 0, still
score.

``score_rows`` is the one per-gene scoring loop. It gives NaN where a metric
raises ``DegenerateInputError``, and each caller decides what that NaN means.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, EmptyResultError, ShapeMismatchError

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
_JS_EPS = 1e-12


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeMismatchError(f"metric inputs differ in shape: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ShapeMismatchError("metric inputs need at least 2 entries")
    return a, b


def _unit_scaled(a: np.ndarray) -> np.ndarray:
    """``a`` times the power of two that puts its largest magnitude in [0.5, 1)."""
    return np.ldexp(a, -np.frexp(np.abs(a).max())[1])


def pcc(a, b) -> float:
    """Pearson correlation coefficient."""
    a, b = _pair(a, b)
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise DegenerateInputError("correlation undefined for a constant vector")
    a, b = _unit_scaled(a), _unit_scaled(b)
    return float(((a - a.mean()) * (b - b.mean())).mean() / (a.std() * b.std()))


def ssim(a, b) -> float:
    """Global structural similarity after joint min-max scaling to [0, 1]."""
    a, b = _pair(a, b)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return 1.0  # two identical constants
    a = (a - lo) / (hi - lo)
    b = (b - lo) / (hi - lo)
    mu_a, mu_b = a.mean(), b.mean()
    var_a, var_b = a.var(), b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    return float(
        ((2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2))
        / ((mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2))
    )


def rmse_z(a, b) -> float:
    """Root mean squared difference between the z-scored vectors."""
    a, b = _pair(a, b)
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise DegenerateInputError("z-scores undefined for a constant vector")
    a, b = _unit_scaled(a), _unit_scaled(b)
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    return float(np.sqrt(((za - zb) ** 2).mean()))


def js_divergence(a, b) -> float:
    """Jensen-Shannon divergence of the normalized expression profiles, natural log."""
    a, b = _pair(a, b)
    p = np.clip(a, 0.0, None) + _JS_EPS
    q = np.clip(b, 0.0, None) + _JS_EPS
    if np.clip(a, 0.0, None).sum() == 0.0 or np.clip(b, 0.0, None).sum() == 0.0:
        raise DegenerateInputError("all-zero vector has no probability interpretation")
    p /= p.sum()
    q /= q.sum()
    m = 0.5 * (p + q)
    kl_pm = float((p * np.log(p / m)).sum())
    kl_qm = float((q * np.log(q / m)).sum())
    return 0.5 * kl_pm + 0.5 * kl_qm


def aggregate(per_gene) -> tuple[float, float]:
    """(population mean, population variance) over per-gene metric values."""
    values = np.asarray(list(per_gene), dtype=np.float64)
    if values.size == 0:
        raise EmptyResultError("nothing to aggregate")
    return float(values.mean()), float(values.var())


def score_rows(pred, truth, metrics) -> list[list[float]]:
    """One list per function in ``metrics``, in the order given, holding its
    score of each row of ``pred`` against the same row of ``truth``, or NaN
    where it raises ``DegenerateInputError``."""
    if len(pred) != len(truth):
        raise ShapeMismatchError(f"{len(pred)} predicted rows vs {len(truth)} true rows")
    scores: list[list[float]] = [[] for _ in metrics]
    for a, b in zip(pred, truth):
        for fn, column in zip(metrics, scores):
            try:
                column.append(fn(a, b))
            except DegenerateInputError:
                column.append(math.nan)
    return scores

"""Pairwise Granger-causality F-tests over gene expression profiles.

The observation sequence (column order of the matrix) is treated as the time
axis. For a candidate driver x and target y at lag L, the restricted model
regresses y_t on an intercept and its own L lags; the unrestricted model adds
the L lags of x. The statistic

    F = ((RSS_r - RSS_u) / L) / (RSS_u / (n_eff - 2L - 1)),  n_eff = n - L,

follows F(L, n_eff - 2L - 1) under the null, and the p-value comes from our
own regularized incomplete beta function (continued-fraction evaluation); the
test suite checks it against direct quadrature of the F density.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import ExpressionMatrix
from .errors import DegenerateInputError, ShapeMismatchError

log = logging.getLogger(__name__)

_RIDGE = 1e-10  # jitter on the normal equations, guards near-collinear designs


# -- special functions ------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise DegenerateInputError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ShapeMismatchError(f"beta parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_survival(f: float, d1: int, d2: int) -> float:
    """P(F > f) for an F(d1, d2) variate."""
    if f <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return reg_inc_beta(d2 / 2.0, d1 / 2.0, x)


# -- the test ----------------------------------------------------------------------


@dataclass(frozen=True)
class GrangerResult:
    driver: str
    target: str
    lag: int
    f_stat: float
    p_value: float


def _lagged_columns(series: np.ndarray, lag: int) -> np.ndarray:
    n = series.size
    return np.column_stack([series[lag - k - 1 : n - k - 1] for k in range(lag)])


def _rss(design: np.ndarray, response: np.ndarray) -> float:
    gram = design.T @ design + _RIDGE * np.eye(design.shape[1])
    beta = np.linalg.solve(gram, design.T @ response)
    resid = response - design @ beta
    return float(resid @ resid)


def test_pair(
    x: np.ndarray, y: np.ndarray, lag: int = 1, driver: str = "x", target: str = "y"
) -> GrangerResult:
    """Test whether lagged ``x`` improves prediction of ``y`` beyond its own lags."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if lag < 1:
        raise ShapeMismatchError(f"lag must be >= 1, got {lag}")
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeMismatchError(f"series shapes differ: {x.shape} vs {y.shape}")
    n = x.size
    if n < 3 * lag + 3:
        raise ShapeMismatchError(f"series of length {n} too short for lag {lag}")
    if np.ptp(y) == 0.0 or np.ptp(x) == 0.0:
        raise DegenerateInputError("constant series cannot carry causal signal")

    response = y[lag:]
    n_eff = n - lag
    intercept = np.ones((n_eff, 1))
    y_lags = _lagged_columns(y, lag)
    x_lags = _lagged_columns(x, lag)
    rss_restricted = _rss(np.hstack([intercept, y_lags]), response)
    rss_unrestricted = _rss(np.hstack([intercept, y_lags, x_lags]), response)

    df2 = n_eff - 2 * lag - 1
    numerator = max(rss_restricted - rss_unrestricted, 0.0) / lag
    denominator = max(rss_unrestricted, 1e-300) / df2
    f_stat = numerator / denominator
    return GrangerResult(
        driver=driver, target=target, lag=lag, f_stat=f_stat, p_value=f_survival(f_stat, lag, df2)
    )


def rank_results(results: list[GrangerResult], top_k: int) -> list[GrangerResult]:
    """Top-k by descending F, ties broken lexicographically by (driver, target)."""
    ordered = sorted(results, key=lambda r: (-r.f_stat, r.driver, r.target))
    return ordered[: max(top_k, 0)]


def all_pairs(m: ExpressionMatrix, lag: int = 1) -> Iterator[GrangerResult]:
    """Test every ordered gene pair, drivers in row order, each against every other row.

    Pairs that fail with degenerate input (constant profiles) are skipped and
    counted in a single warning once every pair is tested.
    """
    skipped = 0
    for i, driver in enumerate(m.gene_ids):
        for j, target in enumerate(m.gene_ids):
            if i == j:
                continue
            try:
                result = test_pair(m.values[i], m.values[j], lag=lag, driver=driver, target=target)
            except DegenerateInputError:
                skipped += 1
                continue
            yield result
    if skipped:
        log.warning("granger screen skipped %d degenerate gene pairs", skipped)


def screen(m: ExpressionMatrix, lag: int = 1, top_k: int = 5) -> list[GrangerResult]:
    """Evaluate every ordered gene pair and keep the strongest ``top_k``."""
    if m.n_genes < 2:
        raise ShapeMismatchError("screen needs at least 2 genes")
    return rank_results(list(all_pairs(m, lag)), top_k)

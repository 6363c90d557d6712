"""Pairwise Granger-causality F-tests over gene expression profiles.

The observation sequence (column order of the matrix) is treated as the time
axis. For a candidate driver x and target y at lag L, the restricted model
regresses y_t on an intercept and its own L lags; the unrestricted model adds
the L lags of x. The statistic

    F = ((RSS_r - RSS_u) / L) / (RSS_u / (n_eff - 2L - 1)),  n_eff = n - L,

follows F(L, n_eff - 2L - 1) under the null, and the p-value comes from our
own regularized incomplete beta function (continued-fraction evaluation); the
test suite checks it against direct quadrature of the F density.

A screen over many genes ranks with a batched matrix and reports with
``test_pair``. ``f_statistics`` computes every ordered pair's F at once, with
a bound on its rounding gap from ``test_pair``'s F. It only chooses the pairs
that could rank; ``test_pair`` re-tests each of them, so every F and p-value a
screen returns, and every order built from them, is the per-pair test's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import ExpressionMatrix
from .errors import DegenerateInputError, ShapeMismatchError

log = logging.getLogger(__name__)

_RIDGE = 1e-10  # jitter on the normal equations, guards near-collinear designs
_SLACK = 1e-9  # batched-vs-per-pair rounding bound, per unit of cancelled magnitude


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
    try:
        beta = np.linalg.solve(gram, design.T @ response)
    except np.linalg.LinAlgError:  # the jitter is absolute: a copied row near 1e3 stays collinear
        raise DegenerateInputError("singular normal equations: the series are collinear") from None
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


def _normal_rss(gram: np.ndarray, rhs: np.ndarray, ss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RSS of stacked least-squares fits from their normal equations (``gram``
    jittered by ``_RIDGE`` as ``_rss`` does), ss - beta . (2 rhs - gram beta),
    and the sum of the magnitudes of the terms that difference cancels."""
    beta = np.linalg.solve(gram + _RIDGE * np.eye(gram.shape[-1]), rhs[..., None])[..., 0]
    fitted = np.einsum("...pq,...q->...p", gram, beta)
    rss = ss - np.einsum("...p,...p->...", beta, 2.0 * rhs - fitted)
    terms = 2.0 * np.abs(rhs) + np.einsum("...pq,...q->...p", np.abs(gram), np.abs(beta))
    return rss, ss + np.einsum("...p,...p->...", np.abs(beta), terms)


def f_statistics(values: np.ndarray, lag: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """F of every driver row against every target row (``f[i, j]``: driver i,
    target j), and ``slack[i, j]``, a bound on its rounding gap from
    ``test_pair``'s F for the same pair.

    Each target's restricted fit is solved once, and the unrestricted fits of
    all drivers against it in one stacked solve of ``test_pair``'s jittered
    normal equations. The residual sums of squares come from those equations,
    so the slack grows with the magnitude m that their sums cancel:
    _SLACK * (F + df2 / lag) * m / RSS_u, which covers any F once a residual
    nears rounding level. A target whose stack is singular at this rounding
    gets F 0 and an infinite slack, which leaves its pairs to ``test_pair``.
    The diagonal and every pair with a constant row, which ``test_pair``
    rejects as degenerate, are NaN and counted in a single warning.
    """
    values = np.asarray(values, dtype=np.float64)
    if lag < 1:
        raise ShapeMismatchError(f"lag must be >= 1, got {lag}")
    genes, n = values.shape
    if n < 3 * lag + 3:
        raise ShapeMismatchError(f"series of length {n} too short for lag {lag}")
    live = np.flatnonzero(np.ptp(values, axis=1) > 0.0)
    df2 = n - 3 * lag - 1
    response = values[live, lag:]
    lags = np.stack([values[live, lag - k - 1 : n - k - 1] for k in range(lag)], axis=1)
    own = np.concatenate([np.ones((live.size, 1, n - lag)), lags], axis=1)  # restricted designs, transposed
    f = np.full((genes, genes), np.nan)
    slack = np.full((genes, genes), np.nan)
    for t, target in enumerate(live):
        y, design = response[t], own[t]
        ss = y @ y
        full = np.concatenate([np.broadcast_to(design, (live.size, *design.shape)), lags], axis=1)
        gram = full @ full.transpose(0, 2, 1)  # [own(target) | lags(driver)] for every driver
        gram[t] = np.eye(2 * lag + 1)  # the target against itself, NaN below
        try:
            rss_r, mag_r = _normal_rss(design @ design.T, design @ y, ss)
            rss_u, mag_u = _normal_rss(gram, full @ y, ss)
        except np.linalg.LinAlgError:
            f[live, target], slack[live, target] = 0.0, np.inf
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rss_u = np.maximum(rss_u, 1e-300)
            f[live, target] = (np.maximum(rss_r - rss_u, 0.0) / lag) / (rss_u / df2)
            slack[live, target] = _SLACK * (f[live, target] + df2 / lag) * (mag_r + mag_u) / rss_u
    np.fill_diagonal(f, np.nan)
    skipped = int(np.isnan(f).sum()) - genes
    if skipped:
        log.warning("granger screen skipped %d degenerate gene pairs", skipped)
    return f, slack


def tested_pairs(m: ExpressionMatrix, choose, lag: int = 1) -> dict[tuple[int, int], GrangerResult]:
    """``test_pair`` on every (driver row i, target row j) pair that
    ``choose(f, slack)`` marks, given ``f_statistics(m.values, lag)``, keyed
    by (i, j). A pair whose normal equations ``test_pair`` finds singular is
    skipped as a degenerate pair: its F becomes NaN and the choice is redone,
    until every chosen pair has been tested. Such skips are counted in a
    single warning."""
    f, slack = f_statistics(m.values, lag)
    results, singular = {}, 0
    values, names = m.values, m.gene_ids
    with np.errstate(invalid="ignore"):  # an F that overflowed has bounds inf - inf
        while chosen := [pair for pair in zip(*np.nonzero(choose(f, slack))) if pair not in results]:
            for i, j in chosen:
                try:
                    results[i, j] = test_pair(values[i], values[j], lag, names[i], names[j])
                except DegenerateInputError:
                    f[i, j] = np.nan
                    singular += 1
    if singular:
        log.warning("granger screen skipped %d gene pairs with singular normal equations", singular)
    return results


def screen(m: ExpressionMatrix, lag: int = 1, top_k: int = 5) -> list[GrangerResult]:
    """The strongest ``top_k`` ordered gene pairs, each reported by ``test_pair``.

    The batched ``f_statistics`` only choose which pairs to test: every pair
    whose F, within its slack, could reach the ``top_k``-th largest is
    re-tested by ``test_pair``, and ``rank_results`` ranks those. So the
    result is the exhaustive per-pair screen's. Pairs with a constant profile,
    or whose normal equations are singular, are skipped and counted in a
    warning.
    """
    if m.n_genes < 2:
        raise ShapeMismatchError("screen needs at least 2 genes")

    def top(f: np.ndarray, slack: np.ndarray) -> np.ndarray:
        lowest = np.sort(np.fmax(f - slack, 0.0)[~np.isnan(f)])
        if top_k < 1 or lowest.size == 0:
            return np.zeros(f.shape, dtype=bool)
        return f + slack >= lowest[-min(top_k, lowest.size)]

    return rank_results(list(tested_pairs(m, top, lag).values()), top_k)

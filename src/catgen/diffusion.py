"""Variance schedules, closed-form forward noising, and timestep sampling.

Timesteps are 1-based: t runs over [1, T]. The cumulative signal level
alpha_bar[t-1] is the product of (1 - beta) up to step t, accumulated in
extended precision so long schedules do not drift.

One sampling strategy, ``frac:n``, picks the timesteps training draws from
and the chain generation walks: every n-th timestep, floor(T/n) of them,
anchored so the grid always contains T (the reverse process must be able to
start at maximal noise). ``full`` is ``frac:1``, every timestep in [1, T].

A schedule also holds the coefficients of its reverse steps,
``reverse_coefficients``: computed elementwise over every step on first use,
with the arithmetic a single step would use, so a reverse step only looks
its three numbers up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatchError


# -- sampling strategies --------------------------------------------------------


@dataclass(frozen=True)
class Fractional:
    n: int

    def check(self, T: int) -> None:
        """Raise unless the stride n lies in [1, T]."""
        if not 1 <= self.n <= T:
            raise ShapeMismatchError(f"fractional n={self.n} outside [1, T={T}]")


def parse_strategy(text: str) -> Fractional:
    """Parse ``full`` (= ``frac:1``) or ``frac:<n>``."""
    body = text.strip().lower()
    if body == "full":
        return Fractional(1)
    if body.startswith("frac:"):
        try:
            return Fractional(int(body.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad fractional sampling spec {text!r}") from exc
    raise ConfigError(f"unknown sampling strategy {text!r}")


# -- schedules --------------------------------------------------------------------


def _cumprod_extended(values: np.ndarray) -> np.ndarray:
    # extended-precision accumulation keeps alpha_bar honest for T in the thousands
    return np.cumprod(values.astype(np.longdouble)).astype(np.float64)


@dataclass(frozen=True)
class DiffusionSchedule:
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def T(self) -> int:
        return int(self.betas.size)

    @functools.cached_property
    def reverse_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per step t, at index t - 1: beta_t / sqrt(1 - abar_t), sqrt(alpha_t),
        and the posterior std sqrt(beta_t * (1 - abar_{t-1}) / (1 - abar_t)),
        which is 0 at t = 1 (abar_0 = 1)."""
        ab = self.alpha_bars
        ab_prev = np.concatenate(([1.0], ab[:-1]))
        return (
            self.betas / np.sqrt(1.0 - ab),
            np.sqrt(self.alphas),
            np.sqrt(self.betas * (1.0 - ab_prev) / (1.0 - ab)),
        )

    @classmethod
    def from_betas(cls, betas, validate: bool = True) -> "DiffusionSchedule":
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ShapeMismatchError("schedule needs a 1-D, non-empty beta sequence")
        if validate:
            if not ((betas > 0).all() and (betas < 1).all()):
                raise ShapeMismatchError("betas must lie in (0, 1)")
            if betas.size > 1 and not (np.diff(betas) > 0).all():
                raise ShapeMismatchError("betas must be strictly increasing")
        alphas = 1.0 - betas
        return cls(betas=betas, alphas=alphas, alpha_bars=_cumprod_extended(alphas))


def linear_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 2e-2) -> DiffusionSchedule:
    """Linearly interpolated betas inclusive of both endpoints."""
    if T < 1:
        raise ShapeMismatchError(f"T must be >= 1, got {T}")
    if T * 8 > np.iinfo(np.intp).max:  # float64 steps beyond numpy's index range
        raise ShapeMismatchError(f"a schedule of T={T} steps is beyond the largest array numpy can index")
    if not 0.0 < beta_start <= beta_end < 1.0 or (T > 1 and beta_start == beta_end):
        raise ShapeMismatchError(f"invalid beta range [{beta_start}, {beta_end}]")
    betas = np.linspace(beta_start, beta_end, T)
    return DiffusionSchedule.from_betas(betas)


def noising_coefficients(
    schedule: DiffusionSchedule, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(abar_t), sqrt(1 - abar_t)) for an array of 1-based timesteps."""
    ts = np.asarray(ts, dtype=np.int64)
    if ts.size and (ts.min() < 1 or ts.max() > schedule.T):
        raise ShapeMismatchError(f"timesteps outside [1, {schedule.T}]")
    ab = schedule.alpha_bars[ts - 1]
    return np.sqrt(ab), np.sqrt(1.0 - ab)


# -- timestep sampling ---------------------------------------------------------------


def candidate_grid(schedule: DiffusionSchedule, strategy: Fractional) -> np.ndarray:
    """Ascending candidate timesteps a strategy may draw from."""
    T = schedule.T
    strategy.check(T)
    return T - strategy.n * np.arange(T // strategy.n - 1, -1, -1)


def sample_timesteps(
    schedule: DiffusionSchedule,
    strategy: Fractional,
    n_tokens: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One training timestep per gene token, i.i.d. uniform on the strategy's grid.

    Every token trains at its own timestep whatever AR step it belongs to,
    which is the per-example DDPM objective.
    """
    return rng.choice(candidate_grid(schedule, strategy), size=n_tokens)


def respaced_chain(
    schedule: DiffusionSchedule, strategy: Fractional
) -> tuple[np.ndarray, DiffusionSchedule]:
    """Reverse-process chain for a strategy.

    Returns the ascending grid of raw timesteps the model is queried at and a
    derived schedule whose step k jumps between consecutive grid points, so
    the cumulative signal level at grid point k matches the base schedule
    to rounding. ``full`` (= ``frac:1``) keeps the base chain, whose grid is every step.
    """
    grid = candidate_grid(schedule, strategy)
    if strategy.n == 1:
        return grid, schedule
    ab = schedule.alpha_bars[grid - 1]
    ab_prev = np.concatenate(([1.0], ab[:-1]))
    betas = 1.0 - ab / ab_prev
    return grid, DiffusionSchedule.from_betas(betas, validate=False)

"""Schedules, closed-form noising, and timestep sampling strategies."""

import numpy as np
import pytest

from catgen.diffusion import (
    DiffusionSchedule,
    Fractional,
    candidate_grid,
    linear_schedule,
    noising_coefficients,
    parse_strategy,
    respaced_chain,
    sample_timesteps,
)
from catgen.errors import ConfigError, ShapeMismatchError


def test_single_step_schedule():
    sched = linear_schedule(1)
    np.testing.assert_allclose(sched.betas, [1e-4])
    np.testing.assert_allclose(sched.alpha_bars, [0.9999])


def test_hand_computed_three_step_schedule():
    sched = linear_schedule(3, 0.1, 0.3)
    np.testing.assert_allclose(sched.betas, [0.1, 0.2, 0.3], rtol=1e-15)
    np.testing.assert_allclose(sched.alpha_bars, [0.9, 0.72, 0.504], rtol=1e-12)


def test_default_schedule_decays_below_one_percent():
    sched = linear_schedule(2000)
    assert sched.T == 2000
    assert sched.alpha_bars[-1] < 0.01
    # direct product evaluation as the independent oracle
    direct = 1.0
    for b in sched.betas:
        direct *= 1.0 - b
    np.testing.assert_allclose(sched.alpha_bars[-1], direct, rtol=1e-9)


def test_schedule_validation():
    with pytest.raises(ShapeMismatchError):
        linear_schedule(0)
    with pytest.raises(ShapeMismatchError):
        linear_schedule(10, 0.2, 0.1)
    with pytest.raises(ShapeMismatchError):
        linear_schedule(10, 0.0, 0.1)
    with pytest.raises(ShapeMismatchError):
        DiffusionSchedule.from_betas([0.1, 0.1, 0.2])


def test_snr_strictly_decreasing():
    sched = linear_schedule(2000)
    snr = sched.alpha_bars / (1.0 - sched.alpha_bars)
    assert (np.diff(snr) < 0).all()


def forward_sample(x0, t, schedule, eps):
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps, from the coefficients training noises with."""
    sqrt_ab, sqrt_om = noising_coefficients(schedule, np.array([t]))
    return sqrt_ab[0] * np.asarray(x0) + sqrt_om[0] * np.asarray(eps)


def test_forward_sample_identities():
    edge = DiffusionSchedule.from_betas(np.full(5, 1e-300), validate=False)
    x0 = np.array([1.0, -2.0, 3.0])
    eps = np.array([0.5, 0.5, 0.5])
    np.testing.assert_allclose(forward_sample(x0, 5, edge, eps), x0, atol=1e-12)

    sched = linear_schedule(50)
    zero = np.zeros(3)
    expected = np.sqrt(1 - sched.alpha_bars[9]) * eps
    np.testing.assert_allclose(forward_sample(zero, 10, sched, eps), expected, rtol=1e-12)

    with pytest.raises(ShapeMismatchError):
        forward_sample(x0, 51, sched, eps)
    with pytest.raises(ShapeMismatchError):
        forward_sample(x0, 0, sched, eps)


def test_forward_sample_linearity():
    sched = linear_schedule(100)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(6)
    eps = rng.standard_normal(6)
    a = 3.7
    np.testing.assert_allclose(
        forward_sample(a * x0, 42, sched, a * eps),
        a * forward_sample(x0, 42, sched, eps),
        rtol=1e-12,
    )


def test_forward_sample_moments_match_closed_form():
    sched = linear_schedule(200)
    rng = np.random.default_rng(5)
    t = 120
    x0 = np.array([0.8])
    draws = np.array([forward_sample(x0, t, sched, rng.standard_normal(1))[0] for _ in range(10_000)])
    ab = sched.alpha_bars[t - 1]
    se_mean = np.sqrt(1 - ab) / np.sqrt(draws.size)
    assert abs(draws.mean() - np.sqrt(ab) * 0.8) < 3 * se_mean
    se_var = (1 - ab) * np.sqrt(2.0 / draws.size)
    assert abs(draws.var() - (1 - ab)) < 3 * se_var


def test_iterated_chain_matches_closed_form_variance():
    # iterate the one-step transition directly as the oracle
    sched = linear_schedule(50)
    rng = np.random.default_rng(9)
    trials = 10_000
    x = np.full(trials, 1.3)
    for t in range(sched.T):
        x = np.sqrt(1 - sched.betas[t]) * x + np.sqrt(sched.betas[t]) * rng.standard_normal(trials)
    target = 1.0 - sched.alpha_bars[-1]
    assert abs(x.var() - target) < 0.05 * target


def test_fractional_grid_anchoring():
    sched = linear_schedule(2000)
    grid = candidate_grid(sched, Fractional(2))
    assert grid.size == 1000
    assert grid[-1] == 2000
    assert (np.diff(grid) == 2).all()
    assert grid[0] >= 1

    grid3 = candidate_grid(sched, Fractional(3))
    assert grid3[-1] == 2000 and grid3.size == 666

    with pytest.raises(ShapeMismatchError):
        candidate_grid(sched, Fractional(2001))


def test_full_single_timestep():
    sched = linear_schedule(1)
    draws = sample_timesteps(sched, Fractional(1), 15, np.random.default_rng(0))
    assert (draws == 1).all()


def test_timesteps_in_range_and_deterministic():
    sched = linear_schedule(500)
    a = sample_timesteps(sched, Fractional(4), 32, np.random.default_rng(3))
    b = sample_timesteps(sched, Fractional(4), 32, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 1 and a.max() <= 500


def test_strategy_parsing_round_trip():
    assert parse_strategy("full") == Fractional(1)
    assert parse_strategy("frac:4") == Fractional(4)
    with pytest.raises(ConfigError):
        parse_strategy("adaptive")
    with pytest.raises(ConfigError):
        parse_strategy("frac:x")
    with pytest.raises(ConfigError):
        parse_strategy("nope")


def test_respaced_chain_matches_signal_levels():
    sched = linear_schedule(2000)
    grid, chain = respaced_chain(sched, Fractional(20))
    assert chain.T == grid.size == 100
    np.testing.assert_allclose(chain.alpha_bars, sched.alpha_bars[grid - 1], rtol=1e-10)
    full_grid, full_chain = respaced_chain(sched, Fractional(1))
    assert full_chain is sched and full_grid.size == 2000

"""AR step plan generation: distribution, invariants, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgen.arplan import ARStepPlan, generate_ar_steps, step_count_weights
from catgen.errors import ShapeMismatchError


def test_worked_example_boundaries():
    plan = ARStepPlan((2, 2, 3))
    assert plan.cs == (0, 2, 4, 7)
    assert plan.S == 7
    assert plan.N == 3
    assert plan.to_text() == "sz=2,2,3"
    assert ARStepPlan.from_text("sz=2,2,3") == plan


def test_clean_token_count_covers_every_step_but_the_last():
    assert ARStepPlan((2, 2, 3)).v == 4
    assert ARStepPlan((5,)).v == 0
    assert ARStepPlan((1, 1, 1)).v == 2


class _ScriptedRng:
    """Returns a fixed script of integers(); lets a test force N and cut points."""

    def __init__(self, script):
        self.script = list(script)

    def integers(self, low, high):
        return self.script.pop(0)


def test_forced_cuts_give_worked_example_plan():
    # alpha=1 draws N first (3), then Fisher-Yates offsets picking cuts {2, 4}:
    # pool [1..6]: offset 1 brings 2 forward, then offset 2 brings 4 forward.
    plan = generate_ar_steps(7, 1.0, _ScriptedRng([3, 1, 2]))
    assert plan.sz == (2, 2, 3)
    assert plan.cs == (0, 2, 4, 7)


def test_single_token_forced():
    for alpha in (0.5, 0.8, 1.0):
        plan = generate_ar_steps(1, alpha, np.random.default_rng(0))
        assert plan.sz == (1,)
        assert plan.cs == (0, 1)


def test_invalid_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeMismatchError):
        generate_ar_steps(0, 0.8, rng)
    with pytest.raises(ShapeMismatchError):
        generate_ar_steps(5, 0.0, rng)
    with pytest.raises(ShapeMismatchError):
        generate_ar_steps(5, 1.2, rng)
    with pytest.raises(ShapeMismatchError):
        ARStepPlan((2, 0))  # an empty step
    with pytest.raises(ShapeMismatchError):
        ARStepPlan(())


def test_weights_normalize_exactly():
    for S in (1, 2, 7, 64):
        for alpha in (0.3, 0.7, 0.8, 0.9):
            w = step_count_weights(S, alpha)
            assert abs(w.sum() - 1.0) < 1e-12
            b = (1 - alpha) / (1 - alpha**S)
            np.testing.assert_allclose(w, b * alpha ** np.arange(S), rtol=1e-13)


def test_step_count_ratio_matches_decay():
    rng = np.random.default_rng(7)
    counts = np.zeros(11)
    for _ in range(100_000):
        counts[generate_ar_steps(10, 0.8, rng).N] += 1
    ratio = counts[1] / counts[2]
    assert abs(ratio - 1 / 0.8) < 0.05 * (1 / 0.8)


def test_mean_steps_monotone_in_alpha():
    rng = np.random.default_rng(11)
    means = []
    for alpha in (0.3, 0.5, 0.7, 0.9, 1.0):
        draws = [generate_ar_steps(16, alpha, rng).N for _ in range(4000)]
        means.append(np.mean(draws))
    assert all(a < b + 0.05 for a, b in zip(means, means[1:]))  # increasing in alpha


def test_determinism_given_seed():
    plans = [generate_ar_steps(12, 0.8, np.random.default_rng(123)).sz for _ in range(3)]
    assert plans[0] == plans[1] == plans[2]


@settings(max_examples=300, deadline=None)
@given(
    S=st.integers(min_value=1, max_value=64),
    alpha=st.sampled_from([0.7, 0.8, 0.9, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_plan_invariants_hold(S, alpha, seed):
    plan = generate_ar_steps(S, alpha, np.random.default_rng(seed))
    assert sum(plan.sz) == S
    assert all(s >= 1 for s in plan.sz)
    assert plan.cs[0] == 0 and plan.cs[-1] == S
    assert all(a < b for a, b in zip(plan.cs, plan.cs[1:]))

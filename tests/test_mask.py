"""Causal attention mask: worked example, oracle equivalence, leakage properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgen import cli
from catgen.arplan import ARStepPlan, generate_ar_steps
from catgen.errors import ShapeMismatchError
from catgen.mask import build_mask

CONDITION, CLEAN, NOISY = 0, 1, 2


def step_of(plan, token):
    """AR step index (0-based) owning gene-token position ``token``."""
    if not 0 <= token < plan.S:
        raise ShapeMismatchError(f"token {token} outside [0, {plan.S})")
    return next(i for i in range(plan.N) if token < plan.cs[i + 1])


def token_roles(s, c, plan):
    """(kind, ar_step) per sequence position; ar_step is -1 for conditions."""
    v = s - plan.sz[-1]
    roles = [(CONDITION, -1)] * c
    roles += [(CLEAN, step_of(plan, j)) for j in range(v)]
    roles += [(NOISY, step_of(plan, j)) for j in range(s)]
    return roles


def mask_oracle(s, c, plan):
    """Entrywise rule-based reference, independent of build_mask's array comparisons.

    Attention from row r to column q is allowed iff one of:
      1. q is a condition token;
      2. r and q are clean tokens and q's AR step <= r's;
      3. r is noisy, q is clean, and q's AR step < r's;
      4. r and q are noisy tokens of the same AR step.
    """
    roles = token_roles(s, c, plan)
    seq = len(roles)
    m = np.ones((seq, seq), dtype=bool)
    for r, (rkind, rstep) in enumerate(roles):
        for q, (qkind, qstep) in enumerate(roles):
            if qkind == CONDITION:
                allowed = True
            elif rkind == CLEAN and qkind == CLEAN:
                allowed = qstep <= rstep
            elif rkind == NOISY and qkind == CLEAN:
                allowed = qstep < rstep
            elif rkind == NOISY and qkind == NOISY:
                allowed = qstep == rstep
            else:
                allowed = False
            if allowed:
                m[r, q] = False
    return m


def compositions(s):
    """All ordered compositions of s (choices of cut points)."""
    for bits in range(2 ** (s - 1)):
        sizes, run = [], 1
        for pos in range(s - 1):
            if bits >> pos & 1:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        yield tuple(sizes)


def test_worked_example():
    mask = build_mask(2, ARStepPlan((2, 2, 3)))
    assert mask.dtype == bool
    assert mask.shape == (13, 13)  # 2 conditions, 4 clean, 7 noisy
    assert mask[2:6, 6:].all()  # clean rows 2..5 never see noisy columns
    assert (mask[:, :2] == 0).all()
    # noisy rows of the first AR step attend only condition + own diagonal block
    first_step_rows = mask[6:8]
    np.testing.assert_array_equal(first_step_rows[:, :2], 0)
    np.testing.assert_array_equal(first_step_rows[:, 2:6], 1)
    np.testing.assert_array_equal(first_step_rows[:, 6:8], 0)
    np.testing.assert_array_equal(first_step_rows[:, 8:], 1)


def test_degenerate_single_token():
    mask = build_mask(0, ARStepPlan((1,)))
    np.testing.assert_array_equal(mask, [[0]])


def test_single_step_plan_has_no_clean_tokens():
    mask = build_mask(3, ARStepPlan((5,)))
    assert mask.shape == (8, 8)  # 3 conditions, 0 clean, 5 noisy
    np.testing.assert_array_equal(mask[:, :3], 0)
    np.testing.assert_array_equal(mask[3:, 3:], 0)  # one diagonal block


def test_inconsistent_plan_rejected():
    with pytest.raises(ShapeMismatchError):
        build_mask(-1, ARStepPlan((5,)))


def test_oracle_equivalence_exhaustive_small():
    for s in range(1, 7):
        for sz in compositions(s):
            plan = ARStepPlan(sz)
            for c in (0, 1, 2, s):  # c = s is the count TokenBatch.assemble uses
                built = build_mask(c, plan)
                oracle = mask_oracle(s, c, plan)
                np.testing.assert_array_equal(built, oracle)


def test_clean_rows_never_attend_noisy():
    for s in range(2, 7):
        for sz in compositions(s):
            mask = build_mask(2, ARStepPlan(sz))
            ctx = 2 + s - sz[-1]
            np.testing.assert_array_equal(mask[2:ctx, ctx:], 1)


def test_no_future_leakage():
    plan = ARStepPlan((2, 2, 3))
    mask = build_mask(2, plan)
    roles = token_roles(7, 2, plan)
    ctx = 2 + 4  # conditions, then the clean tokens of the first two steps
    for r in range(ctx, len(mask)):
        step = roles[r][1]
        for q in range(len(mask)):
            if mask[r, q] == 0 and q >= 2:
                kind, qstep = roles[q]
                assert (kind == CLEAN and qstep < step) or (kind == NOISY and qstep == step)


def test_every_row_attends_something_with_conditions():
    for s in range(1, 7):
        for sz in compositions(s):
            mask = build_mask(1, ARStepPlan(sz))
            assert (mask == 0).any(axis=1).all()


def test_step_of_maps_tokens_to_groups():
    plan = ARStepPlan((2, 2, 3))
    assert [step_of(plan, t) for t in range(7)] == [0, 0, 1, 1, 2, 2, 2]
    with pytest.raises(ShapeMismatchError):
        step_of(plan, 7)


def test_roles_layout():
    roles = token_roles(7, 2, ARStepPlan((2, 2, 3)))
    assert roles[0] == (CONDITION, -1)
    assert roles[2] == (CLEAN, 0)
    assert roles[5] == (CLEAN, 1)
    assert roles[6] == (NOISY, 0)
    assert roles[12] == (NOISY, 2)


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(min_value=1, max_value=12),
    c=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_oracle_equivalence_random_plans(s, c, seed):
    plan = generate_ar_steps(s, 0.8, np.random.default_rng(seed))
    built = build_mask(c, plan)
    oracle = mask_oracle(s, c, plan)
    np.testing.assert_array_equal(built, oracle)



def test_csv_and_pbm_emission(tmp_path):
    csv_path = tmp_path / "mask.csv"
    pbm_path = tmp_path / "mask.pbm"
    argv = ["mask", "--c", "2", "--sz", "2,2,3", "--out", str(csv_path), "--pbm", str(pbm_path)]
    assert cli.main(argv) == 0
    rows = csv_path.read_text().strip().split("\n")
    assert len(rows) == 13 and rows[0] == "0,0,1,1,1,1,1,1,1,1,1,1,1"
    header = pbm_path.read_text().split("\n")
    assert header[0] == "P1" and header[1] == "13 13"

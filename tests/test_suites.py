"""The named verification suites must pass and be reproducible."""

import pytest

from superschur import (
    CapExceeded,
    run_suite,
    suite_actions,
    suite_bracket,
    suite_group,
    suite_schurweyl,
)


def names(checks):
    return [c["check"] for c in checks]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_bracket_suite_passes(m, n):
    checks = suite_bracket(m, n)
    assert names(checks) == [
        "bracket_antisymmetry",
        "bracket_jacobi",
        "supertrace_twisted_symmetry",
        "supertrace_kills_brackets",
        "even_rules_consistency",
    ]
    assert all(c["pass"] for c in checks)


def test_actions_suite_passes():
    checks = suite_actions(1, 1, 3)
    assert names(checks) == [
        "tau_decomposition_independence",
        "tau_right_action",
        "theta_bracket_homomorphism",
        "theta_inclusive_sign_fails",
        "tau_theta_commute",
    ]
    assert all(c["pass"] for c in checks)


def test_actions_suite_skips_inclusive_without_odd_letters():
    checks = suite_actions(2, 0, 2)
    record = next(c for c in checks if c["check"] == "theta_inclusive_sign_fails")
    assert record["pass"] and record.get("skipped") is True
    assert all(c["pass"] for c in checks)


def test_actions_suite_respects_cap():
    with pytest.raises(CapExceeded):
        suite_actions(2, 2, 4)


def test_schurweyl_suite_shape():
    checks = suite_schurweyl(1, 1, 2)
    assert names(checks) == ["double_centralizer", "multiplicity_identity"]
    assert all(c["pass"] for c in checks)
    assert checks[0]["dim_tau"] == 2 and checks[0]["dim_theta"] == 8


def test_group_suite_passes_and_is_deterministic():
    first = suite_group(1, 1, 2, grassmann_n=4, seed=3)
    second = suite_group(1, 1, 2, grassmann_n=4, seed=3)
    assert first == second
    assert all(c["pass"] for c in first)
    assert "one_parameter_linkage" in names(first)
    assert "rho_homomorphism" in names(first)
    assert "berezinian_multiplicative" in names(first)
    assert "ldu_reconstruction" in names(first)


def test_run_suite_dispatch():
    checks = run_suite("schurweyl", 1, 1, 2)
    assert all(c["pass"] for c in checks)
    with pytest.raises(ValueError):
        run_suite("nonsense", 1, 1, 2)

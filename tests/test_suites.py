"""The named verification suites must pass and be reproducible."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import (
    CapExceeded,
    SuperDim,
    SuperMatrix,
    TensorOperator,
    derivation_operator,
    gl_point,
    run_suite,
    suite_actions,
    suite_bracket,
    suite_group,
    suite_schurweyl,
    suites,
    superbracket,
    tensor,
)

from test_cli import swap_without_between


def names(checks):
    return [c["check"] for c in checks]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 2)])
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


def failed_relations(dim, r, taus):
    return [name for name, lhs, rhs in suites._coxeter_relations(dim, r, taus) if lhs != rhs]


@pytest.mark.parametrize(
    "m,n,r",
    [(1, 1, r) for r in range(1, 6)]
    + [(2, 1, 3), (1, 2, 3), (2, 2, 3), (2, 0, 4), (0, 2, 4), (1, 0, 6)],
)
def test_coxeter_relations_give_the_records_of_the_loops(m, n, r):
    dim = SuperDim(m, n)
    taus = tensor.transposition_table(dim, r)
    assert failed_relations(dim, r, taus) == []
    assert suite_actions(m, n, r, seed=7)[:2] == suites._tau_loops(dim, m, n, r, taus, 7)


@pytest.mark.parametrize("m,n,r", [(1, 1, 3), (2, 1, 3), (1, 2, 3), (1, 1, 4)])
def test_coxeter_relations_catch_swap_without_between(m, n, r, monkeypatch):
    monkeypatch.setattr(tensor, "swap_letters", swap_without_between)
    dim = SuperDim(m, n)
    failed = failed_relations(dim, r, tensor.transposition_table(dim, r))
    assert failed and {name[0] for name in failed} == {"conjugate"}


@pytest.mark.parametrize("m,n,r", [(1, 1, 3), (2, 1, 3), (1, 0, 3), (2, 0, 4), (1, 1, 5)])
def test_negated_adjacent_transposition_breaks_the_braid(m, n, r):
    dim = SuperDim(m, n)
    taus = tensor.transposition_table(dim, r)
    taus[1, 2] = taus[1, 2].scale(-1)
    assert failed_relations(dim, r, taus) == [("braid", 1)]


@pytest.mark.parametrize("m,n", [(1, 0), (0, 1)])
def test_side_one_actions_build_no_permutation_operator(m, n, monkeypatch):
    calls = []

    def counted(name):
        # raise at the first call: the r! loops would list 20! permutations
        # and form 2 * 20! products
        def call(*args):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return call

    for name in ("all_perms", "operator_from_transpositions"):
        monkeypatch.setattr(suites, name, counted(name))
    checks = suite_actions(m, n, 20)
    assert all(c["pass"] for c in checks)
    assert calls == []


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


# The bracket and actions suites read nested brackets and theta of a bracket
# from a table of brackets of elementary matrices, by bilinearity.  That is
# exact only if superbracket is bilinear and derivation_operator linear on
# combinations of elementary matrices of one parity.  The bracket suite's
# even-rules check reads gl_point(a b, {E_ij, E_kl}) as the sum of
# t gl_point(a b, E_e) over the terms t E_e of the bracket, which is exact
# only if gl_point is linear in its matrix on such combinations, for each
# coefficient a b the check reads.

LINEARITY_DIMS = [SuperDim(1, 1), SuperDim(2, 1), SuperDim(1, 2)]


@st.composite
def combinations(draw, dim, parity):
    """{(i, j): c} with nonzero Fraction c over a nonempty set of the
    elementary matrices E_ij of one parity."""
    cells = [
        (i, j)
        for i in range(1, dim.size + 1)
        for j in range(1, dim.size + 1)
        if dim.parity(i) ^ dim.parity(j) == parity
    ]
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    return {cell: draw(coeff) for cell in chosen}


def matrix_of(dim, coeffs):
    rows = [[Fraction(0)] * dim.size for _ in range(dim.size)]
    for (i, j), c in coeffs.items():
        rows[i - 1][j - 1] = c
    return SuperMatrix(dim, rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LINEARITY_DIMS), st.integers(0, 1), st.integers(0, 1), st.data())
def test_superbracket_is_bilinear_on_elementary_combinations(dim, px, py, data):
    a = data.draw(combinations(dim, px))
    b = data.draw(combinations(dim, py))
    want = SuperMatrix(dim, [[0] * dim.size for _ in range(dim.size)])
    for e, ca in a.items():
        for f, cb in b.items():
            elem_e = SuperMatrix.elementary(dim, *e)
            elem_f = SuperMatrix.elementary(dim, *f)
            want = want + superbracket(elem_e, elem_f).scale(ca * cb)
    assert superbracket(matrix_of(dim, a), matrix_of(dim, b)) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LINEARITY_DIMS), st.integers(0, 1), st.data())
def test_gl_point_is_linear_on_elementary_combinations(dim, parity, data):
    t = data.draw(combinations(dim, parity))
    N = 2
    coeffs = suites._point_coefficients(N)
    for c in {a * b for px in (0, 1) for a in coeffs[px] for b in coeffs[px ^ parity]}:
        want = SuperMatrix(dim, [[0] * dim.size for _ in range(dim.size)], N)
        for e, te in t.items():
            want = want + gl_point(c, SuperMatrix.elementary(dim, *e)).scale(te)
        assert gl_point(c, matrix_of(dim, t)) == want


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(LINEARITY_DIMS),
    st.integers(0, 1),
    st.integers(1, 3),
    st.sampled_from(["exclusive", "inclusive"]),
    st.data(),
)
def test_derivation_operator_is_linear_on_elementary_combinations(dim, parity, r, odd_count, data):
    c = data.draw(combinations(dim, parity))
    want = TensorOperator.zero(dim, r)
    for e, ce in c.items():
        theta = derivation_operator(SuperMatrix.elementary(dim, *e), r, odd_count=odd_count)
        want = want + theta.scale(ce)
    assert derivation_operator(matrix_of(dim, c), r, odd_count=odd_count) == want

"""The named verification suites must pass and be reproducible."""

import functools
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import (
    CapExceeded,
    SuperDim,
    SuperMatrix,
    TensorOperator,
    commutant,
    derivation_operator,
    diagonal_operator,
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

from perm_oracles import all_perms, compose, cycle_decomposition
from test_cli import swap_without_between, unsigned_point
from test_commutant import dense_algebra
from test_tensor import zero_operator


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


def loop_verdicts(dim, r, taus):
    """The pass flags of tau_decomposition_independence and tau_right_action
    by brute force over S_r: the operators along the adjacent and the cycle
    word of every sigma, each link read from taus, and every pair."""

    def along(word):
        acc = TensorOperator.identity(dim, r)
        for link in word:
            acc = acc * taus[link]
        return acc

    perms = list(all_perms(r))
    adjacent = {sigma: along(tensor.adjacent_decomposition(sigma)) for sigma in perms}
    independent = all(
        adjacent[sigma] == along(cycle_decomposition(sigma)) for sigma in perms
    )
    action = all(
        adjacent[sigma] * adjacent[pi] == adjacent[compose(sigma, pi)]
        for sigma, pi in itertools.product(perms, repeat=2)
    )
    return [independent, action]


def swap_rule(pair_term=True, between=lambda i, j: range(i, j - 1)):
    """swap_letters with its p(a)p(b) term kept or dropped, counting the odd
    letters at the 0-based places between(i, j)."""

    def swap(dim, word, i, j):
        pi, pj = dim.parity(word[i - 1]), dim.parity(word[j - 1])
        odd = sum(dim.parity(word[k]) for k in between(i, j))
        swapped = list(word)
        swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
        return (-1 if (pi * pj * pair_term + (pi + pj) * odd) & 1 else 1), tuple(swapped)

    return swap


SWAP_RULES = {
    "signed": tensor.swap_letters,
    "without between": swap_without_between,
    "unsigned": lambda dim, word, i, j, swap=tensor.swap_letters: (1, swap(dim, word, i, j)[1]),
    "without p(a)p(b)": swap_rule(pair_term=False),
    "between inclusive": swap_rule(between=lambda i, j: range(i - 1, j)),
}
TABLE_EDITS = {
    "as built": {},
    "tau(1 2) negated": {(1, 2): -1},
    "tau(2 3) negated": {(2, 3): -1},
    "tau(1 3) doubled": {(1, 3): 2},
}


def edited_table(edits):
    def table(dim, r):
        taus = tensor.transposition_table(dim, r)
        for key, c in edits.items():
            taus[key] = taus[key].scale(c)
        return taus

    return table


@pytest.mark.parametrize(
    "m,n,r",
    [(1, 1, 3), (1, 1, 4), (2, 1, 3), (1, 2, 3), (2, 2, 3), (2, 0, 3), (0, 2, 3), (0, 3, 3)]
    + [(1, 0, 4), (0, 1, 4)],
)
def test_coxeter_relations_give_the_records_of_the_loops(m, n, r, monkeypatch):
    dim = SuperDim(m, n)
    verdicts = set()
    for rule, edit in itertools.product(SWAP_RULES, TABLE_EDITS):
        monkeypatch.setattr(tensor, "swap_letters", SWAP_RULES[rule])
        table = edited_table(TABLE_EDITS[edit])
        monkeypatch.setattr(suites, "transposition_table", table)
        flags = [c["pass"] for c in suite_actions(m, n, r)[:2]]
        assert flags == loop_verdicts(dim, r, table(dim, r)), (rule, edit)
        verdicts.add(tuple(flags))
    # the table edits alone give every verdict: both pass, only the right
    # action passes, neither passes
    assert verdicts == {(True, True), (False, True), (False, False)}


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


@pytest.mark.parametrize("edits,failures", [({}, []), ({(1, 2): -1}, [["braid", 1]])])
@pytest.mark.parametrize("m,n", [(1, 0), (0, 1)])
def test_side_one_actions_stay_small(m, n, edits, failures, monkeypatch):
    # passing, or failing with tau(1 2) negated: a loop over S_20 would form
    # 20! permutation operators
    monkeypatch.setattr(suites, "transposition_table", edited_table(edits))
    tracemalloc.start()
    try:
        checks = suite_actions(m, n, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(c["pass"], c["failures"]) for c in checks[:2]] == [(not failures, failures)] * 2
    assert all(c["pass"] for c in checks[2:])
    assert peak < 32 * 2**20


@pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (1, 1)])
def test_failure_lists_name_relations_in_order(m, n, monkeypatch):
    # tau(2 3) negated breaks both braids and tau(1 3) = s_1 tau(2 3) s_1;
    # the right action lists only the relations that present S_r
    monkeypatch.setattr(suites, "transposition_table", edited_table({(2, 3): -1}))
    independence, action = suite_actions(m, n, 4)[:2]
    assert independence["failures"] == [["braid", 1], ["conjugate", 1, 3], ["braid", 2]]
    assert action["failures"] == [["braid", 1], ["braid", 2]]
    assert not independence["pass"] and not action["pass"]


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


# --- the group suite's even part ---------------------------------------------


EVEN_PART_CONFIGS = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 0, 2), (1, 1, 3), (2, 2, 1)]


@pytest.mark.parametrize("m,n,r", EVEN_PART_CONFIGS)
def test_even_points_and_derivations_generate_one_algebra(m, n, r):
    # the statement the identity decides, by two dense closures: the rational
    # points rho(I + E_ij) and the theta(E_ij) of every even E_ij
    dim = SuperDim(m, n)
    even = [elem for _, _, elem, parity in suites._elementary_pairs(dim) if not parity]
    ident = SuperMatrix.identity(dim)
    points = dense_algebra(dim, r, [diagonal_operator(ident + e, r) for e in even])
    thetas = dense_algebra(dim, r, [derivation_operator(e, r) for e in even])
    assert points.pivots == thetas.pivots and points.rows == thetas.rows
    assert suites._classical_even_part_ok(m, n, r)


RESCALED = {
    "2rho": ("diagonal_operator", 2),
    "minus_rho": ("diagonal_operator", -1),
    "2theta": ("derivation_operator", 2),
}


@pytest.mark.parametrize("m,n,r", [(1, 1, 2), (2, 1, 2), (2, 2, 1), (3, 0, 2)])
@pytest.mark.parametrize("case", sorted(RESCALED))
def test_rescaled_rho_or_theta_breaks_the_even_part(m, n, r, case, monkeypatch):
    # a rescaled generator generates the same algebra; the identity sees it
    name, factor = RESCALED[case]
    build = getattr(suites, name)
    monkeypatch.setattr(suites, name, lambda *args: build(*args).scale(factor))
    assert suites._classical_even_part_ok(m, n, r) is False


def test_group_suite_forms_no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the group suite closed an algebra")

    # every closure grows a RowSpace, under whatever name it was imported
    monkeypatch.setattr(suites, "algebra_generated", refuse)
    monkeypatch.setattr(commutant.RowSpace, "add", refuse)
    assert all(record["pass"] for record in suite_group(2, 1, 2))


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
    want = zero_operator(dim, r)
    for e, ce in c.items():
        theta = derivation_operator(SuperMatrix.elementary(dim, *e), r, odd_count=odd_count)
        want = want + theta.scale(ce)
    assert derivation_operator(matrix_of(dim, c), r, odd_count=odd_count) == want


# _linear_image sums sign * c * image(a, b) over the entries c of a matrix in
# the column layout.  The reference sums image(a, b).scale(sign * c) with the
# operands' own +, for each linear map the suites read through it.


@functools.lru_cache(maxsize=None)
def image_maps(dim):
    """(table, zero, parities) for each linear map the suites read through
    _linear_image: table[a, b] is the operand E_ab goes to, zero is the zero
    of its space, and parities are those of the E_ab it is read at.  The maps
    are theta(E_ab) at r = 1..3 over Q, each row {E_ij, E_ab} of the bracket
    table, and gl_point(c, E_ab) over Lambda_2 at each coefficient c = a b
    that the even-rules check reads."""
    elems = list(suites._elementary_pairs(dim))
    maps = []
    for r in (1, 2, 3):
        thetas = {(a, b): derivation_operator(x, r) for a, b, x, _ in elems}
        maps.append((thetas, zero_operator(dim, r), (0, 1)))
    bracket = suites._bracket_table(elems)
    zero_rows = [[0] * dim.size for _ in range(dim.size)]
    for i, j, _, _ in elems:
        row = {(a, b): bracket[i, j, a, b] for a, b, _, _ in elems}
        maps.append((row, SuperMatrix(dim, zero_rows), (0, 1)))
    coeffs = suites._point_coefficients(2)
    realized = {}
    for px, py in itertools.product((0, 1), repeat=2):
        for a, b in itertools.product(coeffs[px], coeffs[py]):
            if (a * b, px ^ py) not in realized:
                points = {(i, j): gl_point(a * b, x) for i, j, x, p in elems if p == px ^ py}
                realized[a * b, px ^ py] = points
                maps.append((points, SuperMatrix(dim, zero_rows, 2), (px ^ py,)))
    return maps


def reader(table):
    return lambda a, b: table[a, b]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LINEARITY_DIMS), st.data())
def test_linear_image_matches_sparse_arithmetic(dim, data):
    table, zero, parities = data.draw(st.sampled_from(image_maps(dim)))
    parts, want = [], zero
    for _ in range(data.draw(st.integers(1, 2))):
        sign = data.draw(st.sampled_from([1, -1]))
        coeffs = data.draw(combinations(dim, data.draw(st.sampled_from(parities))))
        parts.append((sign, matrix_of(dim, coeffs), reader(table)))
        for e, c in coeffs.items():
            want = want + table[e].scale(sign * c)
    assert suites._linear_image(*parts) == want.cols


@pytest.mark.parametrize("dim", LINEARITY_DIMS, ids=repr)
def test_linear_image_shares_a_unit_entry_and_cancels_to_empty(dim):
    for table, _, _ in image_maps(dim):
        image = reader(table)
        for (a, b), value in table.items():
            unit = SuperMatrix.elementary(dim, a, b)
            assert suites._linear_image((1, unit, image)) is value.cols
            assert suites._linear_image((-1, unit, image), (1, unit, image)) == {}
        x = matrix_of(dim, {e: Fraction(k + 2, 3) for k, e in enumerate(table)})
        assert suites._linear_image((1, x, image), (-1, x, image)) == {}


# Mutant controls: a _linear_image that ignores the coefficients c, or the
# signs, must make the checks that read it fail.

MUTANT_DIMS = [(1, 1), (2, 1), (1, 2), (2, 2)]
LINEAR_IMAGE = suites._linear_image


def ignoring_coefficients(*parts):
    """_linear_image with every stored entry c read as 1."""
    units = []
    for sign, x, image in parts:
        cols = {j: dict.fromkeys(col, 1) for j, col in x.cols.items()}
        units.append((sign, SuperMatrix._from_cols(x.dim, 1, cols), image))
    return LINEAR_IMAGE(*units)


def ignoring_signs(*parts):
    """_linear_image with every sign read as 1."""
    return LINEAR_IMAGE(*((1, x, image) for _, x, image in parts))


def failing(records):
    return {c["check"] for c in records if not c["pass"]}


@pytest.mark.parametrize("m,n", MUTANT_DIMS)
def test_linear_image_ignoring_coefficients_fails_every_reader(m, n, monkeypatch):
    monkeypatch.setattr(suites, "_linear_image", ignoring_coefficients)
    assert {"bracket_jacobi", "even_rules_consistency"} <= failing(suite_bracket(m, n))
    assert "theta_bracket_homomorphism" in failing(suite_actions(m, n, 2))


@pytest.mark.parametrize("m,n", MUTANT_DIMS)
def test_linear_image_ignoring_signs_fails_the_bracket_readers(m, n, monkeypatch):
    monkeypatch.setattr(suites, "_linear_image", ignoring_signs)
    assert {"bracket_jacobi", "even_rules_consistency"} <= failing(suite_bracket(m, n))


# The bracket and actions suites settle their loops over pairs and triples
# once per S_m x S_n orbit: each table of elementary objects is checked
# equivariant under _letter_generators, and each identity is evaluated at the
# orbit representatives.  The argument needs the generators to generate the
# whole group and the representatives to meet every orbit exactly once.

SMALL_DIMS = [SuperDim(m, n) for m in range(4) for n in range(4) if 1 <= m + n <= 4]


def relabelings(dim):
    """Every relabeling in S_m x S_n, as 1-based letter images."""
    m, n = dim.m, dim.n
    return [
        (0, *evens, *odds)
        for evens in itertools.permutations(range(1, m + 1))
        for odds in itertools.permutations(range(m + 1, m + n + 1))
    ]


def generated(dim):
    """The closure of _letter_generators under composition, with the
    identity, as 1-based letter images."""
    gens = [(0, *(t + 1 for t in s)) for s in suites._letter_generators(dim)]
    group = {tuple(range(dim.size + 1))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = tuple(s[a] for a in g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_DIMS), st.sampled_from([4, 6]))
def test_representatives_meet_every_orbit_once(dim, k):
    group = relabelings(dim)
    assert generated(dim) == set(group)
    least = {
        min(tuple(g[a] for a in word) for g in group)
        for word in itertools.product(range(1, dim.size + 1), repeat=k)
    }
    reps = suites._representatives(dim, k)
    assert len(reps) == len(set(reps)) and set(reps) == least
    if k == 4:
        # each pair is followed by its swap, unless its two halves are equal
        pairs = suites._pair_representatives(dim)
        following = iter(pairs)
        for key in following:
            swapped = (*key[2:], *key[:2])
            assert key == swapped or next(following) == swapped
        assert len(pairs) == len(set(pairs))
        assert {min(tuple(g[a] for a in key) for g in group) for key in pairs} == least


def test_trivial_group_has_no_generators():
    for m, n in [(1, 1), (1, 0), (0, 1)]:
        assert suites._letter_generators(SuperDim(m, n)) == []


RANKS = (1, 2, 3)
ORBIT_DIMS = [(2, 1), (1, 2), (2, 2), (3, 1), (3, 0), (0, 3)]


def inclusive_theta(x, r, odd_count="exclusive"):
    return derivation_operator(x, r, odd_count="inclusive")


# each mutant but "none" makes some check fail on most of ORBIT_DIMS, so the
# orbit path falls back to the full search, whose failure lists must come
# out as with no orbits at all
MUTANTS = {
    "none": {},
    "ungraded_bracket": {"superbracket": lambda x, y: x * y - y * x},
    "unsigned_point": {"gl_point": unsigned_point},
    "inclusive_theta": {"derivation_operator": inclusive_theta},
    "ignoring_coefficients": {"_linear_image": ignoring_coefficients},
    "ignoring_signs": {"_linear_image": ignoring_signs},
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("m,n", ORBIT_DIMS)
def test_orbit_records_equal_the_full_loops(m, n, mutant, monkeypatch):
    for name, value in MUTANTS[mutant].items():
        monkeypatch.setattr(suites, name, value)
    # the records keep three failures; the lists _settled returns keep all
    settled = []
    original = suites._settled

    def recorded(*args):
        settled.append(original(*args))
        return settled[-1]

    monkeypatch.setattr(suites, "_settled", recorded)
    by_orbit = [suite_bracket(m, n)] + [suite_actions(m, n, r) for r in RANKS]
    orbit_lists = settled[:]
    settled.clear()
    # with no generators every check searches every tuple
    monkeypatch.setattr(suites, "_letter_generators", lambda dim: [])
    full = [suite_bracket(m, n)] + [suite_actions(m, n, r) for r in RANKS]
    assert by_orbit == full
    assert orbit_lists == settled


SEARCHES = ("_jacobi_failures", "_even_rules_failures", "_theta_failures")


def recording(monkeypatch, *names):
    """Wrap each search suites.<name> to record (name, the tuples it
    searched, first_only) for every call."""
    calls = []

    def wrap(name, original):
        def call(tuples, *args, first_only):
            tuples = list(tuples)
            calls.append((name, tuples, first_only))
            return original(tuples, *args, first_only=first_only)

        return call

    for name in names:
        monkeypatch.setattr(suites, name, wrap(name, getattr(suites, name)))
    return calls


def test_passing_runs_search_only_the_representatives(monkeypatch):
    dim = SuperDim(2, 2)
    pairs = suites._pair_representatives(dim)
    calls = recording(monkeypatch, *SEARCHES)
    assert all(c["pass"] for c in suite_bracket(2, 2))
    assert calls == [
        ("_jacobi_failures", suites._representatives(dim, 6), True),
        ("_even_rules_failures", pairs, True),
    ]
    calls.clear()
    assert all(c["pass"] for c in suite_actions(2, 2, 2))
    # the inclusive control searches every pair for its first failure
    every = list(itertools.product(range(1, 5), repeat=4))
    assert calls == [("_theta_failures", pairs, True), ("_theta_failures", every, True)]


@pytest.mark.parametrize("m,n", [(64, 0), (0, 64)])
def test_actions_on_64_letters_stays_small(m, n):
    # the full search over (m+n)^4 pairs stays lazy: a list of them alone
    # would take over a gigabyte here
    tracemalloc.start()
    try:
        records = suite_actions(m, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["pass"] for c in records)
    assert peak < 32 * 2**20


def test_theta_scaled_at_one_index_fails_equivariance(monkeypatch):
    # theta(E_52) doubled on (3|3) r=1 breaks the identity at no
    # representative: the equivariance check is what catches it, and the
    # full loop lists the failures
    target = SuperMatrix.elementary(SuperDim(3, 3), 5, 2)

    def spoiled(x, r, odd_count="exclusive"):
        theta = derivation_operator(x, r, odd_count=odd_count)
        return theta.scale(2) if x == target else theta

    monkeypatch.setattr(suites, "derivation_operator", spoiled)
    dim = SuperDim(3, 3)
    thetas = {(i, j): spoiled(x, 1) for i, j, x, _ in suites._elementary_pairs(dim)}
    gens = suites._letter_generators(dim)
    assert not all(suites._equivariant(thetas, s, s) for s in gens)
    calls = recording(monkeypatch, "_theta_failures")
    record = next(c for c in suite_actions(3, 3, 1) if c["check"] == "theta_bracket_homomorphism")
    assert not record["pass"] and record["failures"]
    assert ("_theta_failures", list(itertools.product(range(1, 7), repeat=4)), False) in calls


def test_gl_point_changed_at_one_index_fails_equivariance(monkeypatch):
    target = SuperMatrix.elementary(SuperDim(2, 2), 3, 1)

    def spoiled(coeff, mat):
        point = gl_point(coeff, mat)
        return point.scale(2) if mat == target else point

    monkeypatch.setattr(suites, "gl_point", spoiled)
    dim = SuperDim(2, 2)
    x1 = suites._point_coefficients(2)[1][0]
    odd = {(i, j): spoiled(x1, x) for i, j, x, p in suites._elementary_pairs(dim) if p}
    assert not all(suites._equivariant(odd, s, s) for s in suites._letter_generators(dim))
    calls = recording(monkeypatch, "_even_rules_failures")
    records = suite_bracket(2, 2)
    assert [c["check"] for c in records if not c["pass"]] == ["even_rules_consistency"]
    # the points fail equivariance, so every pair is searched at once
    every = list(itertools.product(range(1, 5), repeat=4))
    assert calls == [("_even_rules_failures", every, False)]

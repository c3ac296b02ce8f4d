"""Exact row spaces, algebra closure, centralizers, and the suite records
that pair them."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import (
    CapExceeded,
    DimensionError,
    RowSpace,
    SuperDim,
    SuperMatrix,
    TensorOperator,
    algebra_generated,
    centralizer,
    check_cap,
    derivation_operator,
    diagonal_operator,
    suite_group,
    suite_schurweyl,
    transposition_operator,
    transvection,
)
from superschur import commutant
from superschur.commutant import flatten, kernel_basis
from superschur.suites import derivation_generators, symmetric_group_generators

D11 = SuperDim(1, 1)


def test_row_space_reduction():
    space = RowSpace(3)
    assert space.add([1, 2, 3])
    assert space.add([0, 1, 1])
    assert not space.add([1, 3, 4])
    assert space.dim == 2
    assert space.contains([2, 5, 7])
    assert not space.contains([0, 0, 1])
    with pytest.raises(DimensionError):
        space.add([1, 0])


def test_sparse_vectors_are_checked_and_scaled():
    space = RowSpace(4)
    for bad in ({-1: 1}, {4: 1}):
        with pytest.raises(DimensionError):
            space.add(bad)
    assert not space.add({}) and space.dim == 0
    assert space.add({1: Fraction(1, 2), 3: Fraction(-1, 3)})
    # stored as the primitive integer row, as if given [0, 3, 0, -2]
    assert space._rows == {1: {1: 3, 3: -2}}
    assert all(type(e) is int for e in space._rows[1].values())
    assert space.add({0: Fraction(2, 3), 2: 0})
    assert space._rows[0] == {0: 1}
    # an all-int map is reduced as a copy: the caller's map is left alone
    vec = {0: 2, 2: 5}
    assert space.add(vec) and vec == {0: 2, 2: 5}
    assert space.contains(vec) and not space.add(vec) and vec == {0: 2, 2: 5}


def test_row_space_equality_ignores_basis_choice():
    a = RowSpace(3)
    a.add([1, 0, 1])
    a.add([0, 1, 0])
    b = RowSpace(3)
    b.add([1, 1, 1])
    b.add([2, -1, 2])
    assert a.equals(b)
    c = RowSpace(3)
    c.add([1, 0, 0])
    assert not a.equals(c)


def test_kernel_basis_solves_the_system():
    rows = [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(2)],
    ]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, vec)) == 0
    assert vec[2] == 1 and vec[0] == 1 and vec[1] == -2


def test_flatten_round_trip():
    op = transposition_operator(D11, 2, 1, 2)
    assert flatten(op) == {
        i * op.side + j: e for i, row in enumerate(op.matrix) for j, e in enumerate(row) if e
    }
    with pytest.raises(DimensionError):
        flatten(TensorOperator(D11, 2, op.matrix, 2))


def test_span_and_membership():
    ident = TensorOperator.identity(D11, 2)
    swap = transposition_operator(D11, 2, 1, 2)
    space = RowSpace(D11.size ** 4)
    for op in (ident, swap, ident + swap):
        space.add(flatten(op))
    assert space.dim == 2
    assert space.contains(flatten(ident - swap))
    assert not space.contains(flatten(derivation_operator(SuperMatrix.elementary(D11, 1, 2), 2)))


def test_algebra_contains_the_identity():
    swap = transposition_operator(D11, 2, 1, 2)
    algebra = algebra_generated(D11, 2, [swap])
    assert algebra.contains(flatten(TensorOperator.identity(D11, 2)))
    assert algebra.dim == 2


@pytest.mark.parametrize("m, n, r", [(1, 1, 3), (2, 1, 2), (2, 0, 3)])
def test_closure_within_the_centralizer_stops_at_it(m, n, r, monkeypatch):
    dim = SuperDim(m, n)
    thetas = derivation_generators(dim, r)
    cent_tau = centralizer(dim, r, symmetric_group_generators(dim, r))
    calls = [0]
    add = RowSpace.add

    def counted(self, vec):
        calls[0] += 1
        return add(self, vec)

    monkeypatch.setattr(RowSpace, "add", counted)
    # bounded by End(V), the default
    full = algebra_generated(dim, r, thetas)
    in_end = calls[0]
    rows = {p: dict(row) for p, row in cent_tau._rows.items()}
    bounded = algebra_generated(dim, r, thetas, within=cent_tau)
    assert bounded.equals(full) and bounded.equals(cent_tau)
    assert calls[0] - in_end < in_end
    # the filled closure has rows of its own: a unit vector at a column off
    # the pivots that some row holds grows it and edits that row in place
    column = next(c for row in rows.values() for c in row if c not in rows)
    assert bounded.add({column: 1}) and bounded.dim == cent_tau.dim + 1
    assert cent_tau._rows == rows
    with pytest.raises(DimensionError):
        algebra_generated(dim, r, thetas, within=RowSpace(cent_tau.width + 1))


REPLAY_CONFIGS = [(3, 0, 2), (2, 1, 2), (1, 2, 2), (1, 1, 3), (2, 0, 3), (1, 1, 4)]


@pytest.mark.parametrize("m, n, r", REPLAY_CONFIGS)
def test_every_skipped_candidate_already_lies_in_the_span(m, n, r, monkeypatch):
    # record the products the closure forms, then replay its breadth-first
    # loop over every grown vector and generator: each product it did not
    # form must lie in the span of the vectors grown before it
    dim = SuperDim(m, n)
    side = dim.size ** r
    tau, theta = symmetric_group_generators(dim, r), derivation_generators(dim, r)
    product = commutant._product
    cases = [(tau, None), (theta, None)]
    cases += [(tau, centralizer(dim, r, theta)), (theta, centralizer(dim, r, tau))]
    for gens, within in cases:
        formed = []

        def recording(a, b_rows, side):
            out = product(a, b_rows, side)
            formed.append((frozenset(a.items()), frozenset(out.items())))
            return out

        monkeypatch.setattr(commutant, "_product", recording)
        result = algebra_generated(dim, r, gens, within=within)
        monkeypatch.undo()
        pairs = set(formed)
        gen_rows = [commutant._rows(g) for g in gens]
        span = RowSpace(side * side)
        grown = [v for v in map(flatten, [TensorOperator.identity(dim, r), *gens]) if span.add(v)]
        for left in grown:
            for rows in gen_rows:
                candidate = product(left, rows, side)
                if (frozenset(left.items()), frozenset(candidate.items())) not in pairs:
                    assert span.contains(candidate) and result.contains(candidate)
                if span.add(candidate):
                    grown.append(candidate)
        assert span.equals(result)
        if (m, n, r) == (3, 0, 2) and gens is theta and within is not None:
            # a closure that skips no candidate forms 290 products here
            assert len(formed) <= 145


def test_bounded_closure_needs_homogeneous_operators():
    dim, r = SuperDim(2, 1), 2
    side = dim.size ** r
    everything = centralizer(dim, r, [])
    # rho(I + E_12) is the identity plus entries of class eps_1 - eps_2
    rho = diagonal_operator(transvection(dim, 1, 2, 1), r)
    with pytest.raises(DimensionError):
        algebra_generated(dim, r, [rho], within=everything)
    # the default bound is End(V), the same space
    with pytest.raises(DimensionError):
        algebra_generated(dim, r, [rho])
    # entry (0, 0) has class 0, entry (0, 1) that of word (1, 1) less word (1, 2)
    mixed = RowSpace(side * side)
    mixed.add({0: 1, 1: 1})
    with pytest.raises(DimensionError):
        algebra_generated(dim, r, symmetric_group_generators(dim, r), within=mixed)


def test_centralizer_of_everything_is_scalars():
    side = D11.size
    gens = []
    for a in range(side):
        for b in range(side):
            rows = [
                [Fraction(1) if (i, j) == (a, b) else Fraction(0) for j in range(side)]
                for i in range(side)
            ]
            gens.append(TensorOperator(D11, 1, rows))
    cent = centralizer(D11, 1, gens)
    assert cent.dim == 1
    assert cent.contains(flatten(TensorOperator.identity(D11, 1)))


def test_centralizer_of_generators_equals_centralizer_of_algebra():
    gens = [transposition_operator(D11, 2, 1, 2)]
    algebra = algebra_generated(D11, 2, gens)
    from_gens = centralizer(D11, 2, gens)
    side = D11.size ** 2
    basis = [
        TensorOperator(D11, 2, [row[i * side : (i + 1) * side] for i in range(side)])
        for row in algebra.rows
    ]
    from_basis = centralizer(D11, 2, basis)
    assert from_gens.equals(from_basis)


def test_double_centralizer_smallest_case():
    report = suite_schurweyl(1, 1, 2)[0]
    assert report["check"] == "double_centralizer" and report["pass"] is True
    assert report["m"] == 1 and report["n"] == 1 and report["r"] == 2
    assert report["dim_tau"] == 2
    assert report["dim_theta"] == 8
    assert report["double_centralizer"] is True
    assert report["multiplicity_identity"] is True
    assert report["per_shape"] == [
        {"shape": [2], "syt": 1, "ssyt": 2},
        {"shape": [1, 1], "syt": 1, "ssyt": 2},
    ]


def test_double_centralizer_purely_even_case():
    report = suite_schurweyl(2, 0, 2)[0]
    assert (report["dim_tau"], report["dim_theta"]) == (2, 10)
    assert report["double_centralizer"] and report["multiplicity_identity"]


def test_cap_guard():
    assert check_cap(1, 1, 2, None) == 4
    with pytest.raises(CapExceeded):
        check_cap(2, 2, 4, None)
    with pytest.raises(CapExceeded):
        suite_schurweyl(2, 2, 4)
    assert check_cap(2, 2, 2, 16) == 16


def test_one_parameter_report_passes():
    report = suite_group(1, 1, 2, grassmann_n=2)[0]
    assert report["check"] == "one_parameter_linkage" and report["grassmann_n"] == 2
    assert report["odd_generator_identity"]
    assert report["even_nilpotent_identity"]
    assert report["classical_even_part"]
    assert report["pass"]


def test_one_parameter_report_needs_two_generators():
    with pytest.raises(DimensionError):
        suite_group(1, 1, 2, grassmann_n=1)


def test_operator_builders_reject_wrong_degree():
    wrong = TensorOperator.identity(D11, 1)
    swap = transposition_operator(D11, 2, 1, 2)
    for build in (algebra_generated, centralizer):
        with pytest.raises(DimensionError):
            build(D11, 2, [swap, wrong])


# --- dense reference ----------------------------------------------------------
# Full-width Fraction rows and the side^2-wide commutator system: the
# straightforward algorithm the sparse one must agree with, row for row.


class DenseRowSpace:
    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = [Fraction(e) for e in vec]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        pivot = next((i for i, e in enumerate(v) if e), None)
        if pivot is None:
            return False
        inv = 1 / v[pivot]
        v = [e * inv for e in v]
        for k, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                self.rows[k] = [a - c * b if b else a for a, b in zip(row, v)]
        at = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True

    def kernel(self):
        basis = []
        for f in range(self.width):
            if f in self.pivots:
                continue
            vec = [Fraction(0)] * self.width
            vec[f] = Fraction(1)
            for row, p in zip(self.rows, self.pivots):
                vec[p] = -row[f]
            basis.append(vec)
        return basis


def dense_product(a, b):
    out = []
    for a_row in a:
        acc = [Fraction(0)] * len(b)
        for x, b_row in zip(a_row, b):
            if x:
                acc = [s + x * y if y else s for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def dense_algebra(dim, r, gens):
    space = DenseRowSpace((dim.size ** r) ** 2)
    mats = [op.matrix for op in gens]
    frontier = [
        mat
        for mat in [TensorOperator.identity(dim, r).matrix] + mats
        if space.add([e for row in mat for e in row])
    ]
    while frontier:
        fresh = []
        for left in frontier:
            for g in mats:
                candidate = dense_product(left, g)
                if space.add([e for row in candidate for e in row]):
                    fresh.append(candidate)
        frontier = fresh
    return space


def dense_centralizer(dim, r, gens):
    side = dim.size ** r
    system = DenseRowSpace(side * side)
    for g in gens:
        s = g.matrix
        for i in range(side):
            for j in range(side):
                row = [Fraction(0)] * (side * side)
                for k in range(side):
                    if s[i][k]:
                        row[k * side + j] += s[i][k]
                    if s[k][j]:
                        row[i * side + k] -= s[k][j]
                if any(row):
                    system.add(row)
    out = DenseRowSpace(side * side)
    for vec in system.kernel():
        out.add(vec)
    return out


def same_rows(space, dense):
    return space.dim == len(dense.rows) and space.pivots == dense.pivots and space.rows == dense.rows


def is_reduced(space):
    """Each row is keyed by its lowest column, where every other row is 0,
    and is a primitive integer row with a positive pivot entry."""
    rows = space._rows
    return all(
        min(row) == p
        and row[p] > 0
        and all(type(e) is int for e in row.values())
        and gcd(*row.values()) == 1
        and not any(p in other for q, other in rows.items() if q != p)
        for p, row in rows.items()
    )


matrices = st.integers(1, 6).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width), max_size=7),
    )
)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_row_space_matches_dense_reduction(case):
    width, rows = case
    space, dense = RowSpace(width), DenseRowSpace(width)
    for row in rows:
        assert space.add(row) == dense.add(row)
    assert same_rows(space, dense)
    assert kernel_basis(rows, width) == dense.kernel()
    for row in rows:
        assert space.contains([2 * e for e in row])
    # the integer rows are canonical: any spanning set in any order and
    # scale gives the same rows
    other = RowSpace(width)
    for i, row in enumerate(reversed(rows)):
        scale = Fraction((-1) ** i * (i + 2), 2 * i + 3)
        other.add([scale * e for e in row])
    assert other.equals(space) and space.equals(other)


# every (m|n, r) with 2 <= r <= 4 and word space side <= 16
SMALL_CONFIGS = [
    (m, size - m, r)
    for size in range(1, 5)
    for m in range(size + 1)
    for r in range(2, 5)
    if size ** r <= 16
]


@pytest.mark.parametrize("m,n,r", SMALL_CONFIGS)
def test_commutants_match_dense_oracle(m, n, r):
    dim = SuperDim(m, n)
    sets = [symmetric_group_generators(dim, r), derivation_generators(dim, r), []]
    if r == 3:
        sets.append([transposition_operator(dim, r, 1, 2)])
    for gens in sets:
        algebra, cent = algebra_generated(dim, r, gens), centralizer(dim, r, gens)
        assert same_rows(algebra, dense_algebra(dim, r, gens)) and is_reduced(algebra)
        assert same_rows(cent, dense_centralizer(dim, r, gens)) and is_reduced(cent)


@pytest.mark.parametrize("m,n,r", SMALL_CONFIGS)
def test_closure_below_its_bound_is_the_algebra(m, n, r):
    # alg(tau(1 2)) and alg(theta(E_ii)) are commutative and commute with
    # tau(1 2), so both lie in cent(tau(1 2)) and in End; past side 1 each
    # is smaller than both bounds, and the closure ends below them
    dim = SuperDim(m, n)
    tau = [transposition_operator(dim, r, 1, 2)]
    diagonal = [
        derivation_operator(SuperMatrix.elementary(dim, i, i), r) for i in range(1, dim.size + 1)
    ]
    everything = centralizer(dim, r, [])
    assert everything.dim == everything.width
    below = 0
    for gens in (tau, diagonal):
        full, dense = algebra_generated(dim, r, gens), dense_algebra(dim, r, gens)
        for within in (everything, centralizer(dim, r, tau)):
            bounded = algebra_generated(dim, r, gens, within=within)
            assert bounded.equals(full) and same_rows(bounded, dense) and is_reduced(bounded)
            below += bounded.dim < within.dim
    assert below == (4 if dim.size > 1 else 0)


# --- the three centralizer paths -------------------------------------------------
# Each set below reaches a path of ``centralizer``: diagonal generators cut
# the unknowns to weight classes, monomial ones tie them into signed orbits,
# the rest go to the linear system.  The dense oracle knows none of this.

D22 = SuperDim(2, 2)


def operator(dim, r, rows):
    return TensorOperator(dim, r, [[Fraction(e) for e in row] for row in rows])


def diag(*values):
    return operator(D22, 1, [[v if i == j else 0 for j in range(4)] for i, v in enumerate(values)])


def monomial(images, coeffs):
    """The operator sending e_k to coeffs[k] * e_images[k]."""
    rows = [[0] * 4 for _ in range(4)]
    for k, (t, a) in enumerate(zip(images, coeffs)):
        rows[t][k] = a
    return operator(D22, 1, rows)


GENERAL = operator(D22, 1, [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1], [0, 0, 0, 3]])
PATH_CASES = {
    "diagonal": [diag(1, 1, 2, 2)],
    "two diagonals whose joint classes are singletons": [diag(1, 1, 2, 2), diag(5, 7, 5, 7)],
    "zero and identity": [diag(0, 0, 0, 0), diag(1, 1, 1, 1)],
    "monomial with 2 and -3": [monomial((1, 0, 3, 2), (2, -3, 1, 1))],
    "orbit closing with ratio 1/9": [monomial((1, 0, 2, 3), (1, 1, 3, 1))],
    "orbit closing with sign -1": [monomial((1, 0, 2, 3), (1, -1, 1, 1))],
    "orbit leaving the weight classes": [diag(1, 1, 2, 2), monomial((0, 2, 1, 3), (1, 1, 1, 1))],
    "general": [GENERAL],
    "mixed": [diag(1, 1, 2, 2), monomial((1, 0, 3, 2), (1, 2, -1, 1)), GENERAL],
    "mixed with a general diagonal-class coupling": [
        diag(3, 4, 3, 4),
        operator(D22, 1, [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    ],
}


@pytest.mark.parametrize("name", list(PATH_CASES))
def test_centralizer_paths_match_dense_oracle(name):
    gens = PATH_CASES[name]
    cent = centralizer(D22, 1, gens)
    assert same_rows(cent, dense_centralizer(D22, 1, gens)) and is_reduced(cent)


def test_centralizer_of_mixed_tau_and_theta_matches_dense_oracle():
    # tau (monomial), theta(E_ii) (diagonal) and theta(E_12) (general) at once
    dim = SuperDim(2, 1)
    gens = symmetric_group_generators(dim, 2) + [
        derivation_operator(SuperMatrix.elementary(dim, i, j), 2) for i, j in ((1, 1), (3, 3), (1, 2))
    ]
    assert same_rows(centralizer(dim, 2, gens), dense_centralizer(dim, 2, gens))


small_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-3, 2)])


@st.composite
def generator_sets(draw):
    """One to three generators on side 4, each diagonal, monomial or dense."""
    gens = []
    for kind in draw(st.lists(st.sampled_from(["diagonal", "monomial", "dense"]), min_size=1, max_size=3)):
        if kind == "diagonal":
            gens.append(diag(*draw(st.lists(st.integers(-1, 2), min_size=4, max_size=4))))
        elif kind == "monomial":
            images = draw(st.permutations(range(4)))
            coeffs = draw(st.lists(st.sampled_from([1, -1, 2, Fraction(1, 3)]), min_size=4, max_size=4))
            gens.append(monomial(images, coeffs))
        else:
            rows = draw(st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=4, max_size=4))
            gens.append(operator(D22, 1, rows))
    return gens


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_centralizer_matches_dense_oracle_on_random_sets(gens):
    assert same_rows(centralizer(D22, 1, gens), dense_centralizer(D22, 1, gens))


def all_derivations(dim, r):
    """theta(E_ij) for every (i, j): the full set the Chevalley one replaces."""
    size = dim.size
    return [
        derivation_operator(SuperMatrix.elementary(dim, i, j), r)
        for i in range(1, size + 1)
        for j in range(1, size + 1)
    ]


@pytest.mark.parametrize("m,n,r", SMALL_CONFIGS)
def test_chevalley_generators_give_the_whole_derivation_algebra(m, n, r):
    dim = SuperDim(m, n)
    chevalley, full = derivation_generators(dim, r), all_derivations(dim, r)
    assert len(chevalley) == 3 * dim.size - 2
    assert algebra_generated(dim, r, chevalley).equals(algebra_generated(dim, r, full))
    assert centralizer(dim, r, chevalley).equals(centralizer(dim, r, full))

"""Exact row spaces, algebra closure, centralizers, and the paired reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import (
    CapExceeded,
    DimensionError,
    OperatorSpace,
    RowSpace,
    SuperDim,
    SuperMatrix,
    TensorOperator,
    algebra_generated,
    centralizer,
    check_cap,
    derivation_operator,
    double_centralizer_report,
    rho_theta_equality_report,
    span,
    transposition_operator,
)
from superschur.commutant import (
    derivation_generators,
    flatten,
    kernel_basis,
    symmetric_group_generators,
)

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
        flatten(op.lift(2))


def test_span_and_membership():
    ident = TensorOperator.identity(D11, 2)
    swap = transposition_operator(D11, 2, 1, 2)
    space = span(D11, 2, [ident, swap, ident + swap])
    assert space.dimension == 2
    assert space.contains(ident - swap)
    assert not space.contains(derivation_operator(SuperMatrix.elementary(D11, 1, 2), 2))


def test_algebra_contains_the_identity():
    swap = transposition_operator(D11, 2, 1, 2)
    algebra = algebra_generated(D11, 2, [swap])
    assert algebra.contains(TensorOperator.identity(D11, 2))
    assert algebra.dimension == 2


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
    assert cent.dimension == 1
    assert cent.contains(TensorOperator.identity(D11, 1))


def test_centralizer_of_generators_equals_centralizer_of_algebra():
    gens = [transposition_operator(D11, 2, 1, 2)]
    algebra = algebra_generated(D11, 2, gens)
    from_gens = centralizer(D11, 2, gens)
    side = algebra.dim.size ** algebra.r
    basis = [
        TensorOperator(D11, 2, [row[i * side : (i + 1) * side] for i in range(side)])
        for row in algebra.space.rows
    ]
    from_basis = centralizer(D11, 2, basis)
    assert from_gens.equals(from_basis)


def test_double_centralizer_smallest_case():
    report = double_centralizer_report(1, 1, 2)
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
    report = double_centralizer_report(2, 0, 2)
    assert (report["dim_tau"], report["dim_theta"]) == (2, 10)
    assert report["double_centralizer"] and report["multiplicity_identity"]


def test_cap_guard():
    assert check_cap(1, 1, 2, None) == 4
    with pytest.raises(CapExceeded):
        check_cap(2, 2, 4, None)
    with pytest.raises(CapExceeded):
        double_centralizer_report(2, 2, 4)
    assert check_cap(2, 2, 2, 16) == 16


def test_one_parameter_report_passes():
    report = rho_theta_equality_report(1, 1, 2, grassmann_n=2)
    assert report["odd_generator_identity"]
    assert report["even_nilpotent_identity"]
    assert report["classical_even_part"]
    assert report["pass"]


def test_one_parameter_report_needs_two_generators():
    with pytest.raises(DimensionError):
        rho_theta_equality_report(1, 1, 2, grassmann_n=1)


def test_operator_space_rejects_wrong_degree():
    space = OperatorSpace(D11, 2)
    wrong = TensorOperator.identity(D11, 1)
    with pytest.raises(DimensionError):
        space.add(wrong)
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
    for gens in (symmetric_group_generators(dim, r), derivation_generators(dim, r)):
        assert same_rows(algebra_generated(dim, r, gens).space, dense_algebra(dim, r, gens))
        assert same_rows(centralizer(dim, r, gens).space, dense_centralizer(dim, r, gens))


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
    assert same_rows(centralizer(D22, 1, gens).space, dense_centralizer(D22, 1, gens))


def test_centralizer_of_mixed_tau_and_theta_matches_dense_oracle():
    # tau (monomial), theta(E_ii) (diagonal) and theta(E_12) (general) at once
    dim = SuperDim(2, 1)
    gens = symmetric_group_generators(dim, 2) + [
        derivation_operator(SuperMatrix.elementary(dim, i, j), 2) for i, j in ((1, 1), (3, 3), (1, 2))
    ]
    assert same_rows(centralizer(dim, 2, gens).space, dense_centralizer(dim, 2, gens))


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
    assert same_rows(centralizer(D22, 1, gens).space, dense_centralizer(D22, 1, gens))


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

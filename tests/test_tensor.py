"""Signed symmetric-group, derivation, and diagonal actions on tensor words."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import (
    GrassmannElement,
    ParityError,
    SuperDim,
    SuperMatrix,
    TensorOperator,
    adjacent_decomposition,
    all_perms,
    basis_words,
    block_parity,
    compose,
    cycle_decomposition,
    derivation_operator,
    diagonal_operator,
    operator_from_transpositions,
    permutation_operator,
    point_derivation_operator,
    random_gl_point,
    superbracket,
    swap_letters,
    transposition_operator,
    transvection,
    word_index,
)
from superschur.grassmann import as_element

from grassmann_oracles import ref_matrix_product

D11 = SuperDim(1, 1)
D21 = SuperDim(2, 1)
D12 = SuperDim(1, 2)
D22 = SuperDim(2, 2)


def oracle_sign(dim, word, sigma):
    """Reference action: image[k] = word[sigma(k)], sign counts inversions
    of sigma whose two moved letters are both odd."""
    r = len(sigma)
    image = tuple(word[sigma[k] - 1] for k in range(r))
    exponent = 0
    for a in range(r):
        for b in range(a + 1, r):
            if sigma[a] > sigma[b]:
                if dim.parity(word[sigma[a] - 1]) and dim.parity(word[sigma[b] - 1]):
                    exponent += 1
    return (-1) ** exponent, image


def assert_stored_canonically(op):
    """op stores no empty column and no zero entry, and equals, with the
    same hash, the operator rebuilt from its dense view."""
    side = op.side
    assert all(0 <= j < side and col for j, col in op.cols.items())
    assert all(0 <= i < side and e for col in op.cols.values() for i, e in col.items())
    rebuilt = TensorOperator(op.dim, op.r, op.matrix, op.grassmann_n)
    assert rebuilt == op and hash(rebuilt) == hash(op)


def assert_results_stored_canonically(x, y):
    """Every product, sum and difference of x and y, and x - x and scale(0),
    is stored canonically; the factors, whose columns results may share,
    are left as they were."""
    before = (x.matrix, y.matrix)
    for op in (x * y, x + y, x - y, y - x, x - x, x.scale(0), y.scale(0)):
        assert_stored_canonically(op)
    assert x - x == x.scale(0) == TensorOperator.zero(x.dim, x.r, x.grassmann_n)
    assert (x.matrix, y.matrix) == before


def single_column(op, word):
    col = op.cols[word_index(op.dim, word)]
    hits = [(idx, c) for idx, c in col.items() if c]
    assert len(hits) == 1
    return hits[0]


def test_basis_words_are_lexicographic():
    words = basis_words(D11, 2)
    assert words == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for idx, w in enumerate(words):
        assert word_index(D11, w) == idx


def test_swap_sign_on_odd_odd_pair():
    sign, image = swap_letters(D11, (2, 2), 1, 2)
    assert (sign, image) == (-1, (2, 2))
    sign, image = swap_letters(D11, (1, 2), 1, 2)
    assert (sign, image) == (1, (2, 1))
    sign, image = swap_letters(D11, (1, 1), 1, 2)
    assert (sign, image) == (1, (1, 1))


def test_swap_counts_letters_in_between():
    # non-adjacent swap across an odd middle letter
    word = (1, 2, 2)
    sign, image = swap_letters(D11, word, 1, 3)
    assert image == (2, 2, 1)
    # moved letters e (even), f (odd): pair term 0; crossing the middle odd
    # letter contributes (0 + 1) * 1
    assert sign == -1


@given(st.integers(min_value=2, max_value=4), st.data())
def test_swap_is_a_signed_involution(r, data):
    word = tuple(
        data.draw(st.integers(min_value=1, max_value=2)) for _ in range(r)
    )
    i = data.draw(st.integers(min_value=1, max_value=r - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=r))
    s1, once = swap_letters(D11, word, i, j)
    s2, twice = swap_letters(D11, once, i, j)
    assert twice == word and s1 == s2


@pytest.mark.parametrize("r", [3, 4])
def test_permutation_operators_match_oracle(r):
    words = basis_words(D11, r)
    for sigma in all_perms(r):
        op = permutation_operator(D11, r, sigma)
        for word in words:
            idx, coeff = single_column(op, word)
            sign, image = oracle_sign(D11, word, sigma)
            assert idx == word_index(D11, image)
            assert coeff == Fraction(sign)


@pytest.mark.parametrize("r", [3, 4])
def test_decompositions_agree(r):
    for sigma in all_perms(r):
        adjacent = adjacent_decomposition(sigma)
        cycles = cycle_decomposition(sigma)
        assert operator_from_transpositions(D11, r, adjacent) == operator_from_transpositions(
            D11, r, cycles
        )


def test_decompositions_compose_to_sigma():
    for sigma in all_perms(4):
        for pairs in (adjacent_decomposition(sigma), cycle_decomposition(sigma)):
            acc = tuple(range(1, 5))
            for i, j in pairs:
                t = list(range(1, 5))
                t[i - 1], t[j - 1] = t[j - 1], t[i - 1]
                acc = compose(acc, tuple(t))
            assert acc == sigma


def test_right_action_composition():
    for dim in (D11, SuperDim(2, 0)):
        ops = {s: permutation_operator(dim, 3, s) for s in all_perms(3)}
        for sigma, pi in itertools.product(all_perms(3), repeat=2):
            assert ops[sigma] * ops[pi] == ops[compose(sigma, pi)]


def test_derivation_worked_example():
    e12 = SuperMatrix.elementary(D11, 1, 2)
    theta = derivation_operator(e12, 2)
    col = theta.cols[word_index(D11, (2, 2))]
    words = basis_words(D11, 2)
    got = {words[idx]: c for idx, c in col.items() if c}
    assert got == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


def test_derivation_even_matrix_no_signs():
    e11 = SuperMatrix.elementary(D11, 1, 1)
    theta = derivation_operator(e11, 2)
    col = theta.cols[word_index(D11, (1, 2))]
    words = basis_words(D11, 2)
    got = {words[idx]: c for idx, c in col.items() if c}
    assert got == {(1, 2): Fraction(1)}


def test_derivation_of_zero_matrix():
    zero = SuperMatrix(D11, [[0, 0], [0, 0]])
    assert derivation_operator(zero, 2) == TensorOperator.zero(D11, 2)


def test_derivation_needs_homogeneous_matrix():
    mixed = SuperMatrix(D11, [[1, 1], [0, 0]])
    with pytest.raises(ParityError):
        derivation_operator(mixed, 2)


def elementary_list(dim):
    return [
        (i, j, SuperMatrix.elementary(dim, i, j))
        for i in range(1, dim.size + 1)
        for j in range(1, dim.size + 1)
    ]


@pytest.mark.parametrize("dim,r", [(D11, 2), (D11, 3), (D21, 2)])
def test_derivation_is_bracket_homomorphism(dim, r):
    elems = elementary_list(dim)
    for (i, j, x), (k, l, y) in itertools.product(elems, repeat=2):
        px = (dim.parity(i) + dim.parity(j)) % 2
        py = (dim.parity(k) + dim.parity(l)) % 2
        lhs = derivation_operator(superbracket(x, y), r)
        rhs = derivation_operator(x, r) * derivation_operator(y, r)
        second = derivation_operator(y, r) * derivation_operator(x, r)
        rhs = rhs + second if (px * py) % 2 else rhs - second
        assert lhs == rhs


def test_inclusive_count_breaks_the_homomorphism():
    e12 = SuperMatrix.elementary(D11, 1, 2)
    e21 = SuperMatrix.elementary(D11, 2, 1)
    r = 2
    lhs = derivation_operator(superbracket(e12, e21), r, odd_count="inclusive")
    a = derivation_operator(e12, r, odd_count="inclusive")
    b = derivation_operator(e21, r, odd_count="inclusive")
    assert lhs != a * b + b * a


def test_tau_commutes_with_derivations():
    tau = transposition_operator(D11, 3, 1, 2)
    for _, _, x in elementary_list(D11):
        theta = derivation_operator(x, 3)
        assert tau * theta == theta * tau


def test_point_derivation_doubles_on_two_positions():
    e11 = SuperMatrix.elementary(D11, 1, 1)
    alpha = GrassmannElement.scalar(1, 2)
    op = point_derivation_operator(e11, alpha, 2)
    index = word_index(D11, (1, 1))
    total = op.matrix[index][index]
    assert total == GrassmannElement.scalar(1, 4)


def test_point_derivation_of_zero_coefficient():
    e12 = SuperMatrix.elementary(D11, 1, 2)
    zero = GrassmannElement.zero(2)
    assert point_derivation_operator(e12, zero, 2) == TensorOperator.zero(D11, 2, 2)


def test_point_derivation_parity_mismatch():
    e12 = SuperMatrix.elementary(D11, 1, 2)
    even = GrassmannElement.scalar(2, 1)
    with pytest.raises(ParityError):
        point_derivation_operator(e12, even, 2)


def test_group_point_minus_identity_is_point_derivation():
    # one Grassmann generator suffices for a single odd transvection
    alpha = GrassmannElement.generator(1, 1)
    g = transvection(D11, 1, 2, alpha, 1)
    rho = diagonal_operator(g, 2)
    ident = TensorOperator.identity(D11, 2, 1)
    e12 = SuperMatrix.elementary(D11, 1, 2)
    assert rho - ident == point_derivation_operator(e12, alpha, 2)


def test_diagonal_action_of_identity():
    for r in (1, 2, 3):
        ident = SuperMatrix.identity(D11, 3)
        assert diagonal_operator(ident, r) == TensorOperator.identity(D11, r, 3)


def test_diagonal_action_needs_gl_point():
    x1 = GrassmannElement.generator(2, 1)
    bad = SuperMatrix(D11, [[x1, x1], [x1, x1]], 2)
    with pytest.raises(ParityError):
        diagonal_operator(bad, 2)


@pytest.mark.parametrize("dim,r", [(D11, 2), (D11, 3), (D21, 2)])
def test_diagonal_action_is_multiplicative(dim, r):
    rng = random.Random(5)
    for _ in range(4):
        g = random_gl_point(rng, dim, 4)
        h = random_gl_point(rng, dim, 4)
        assert diagonal_operator(g, r) * diagonal_operator(h, r) == diagonal_operator(
            g * h, r
        )


def test_operator_algebra_basics():
    op = transposition_operator(D11, 2, 1, 2)
    assert op * TensorOperator.identity(D11, 2) == op
    assert op - op == TensorOperator.zero(D11, 2)
    assert op.scale(2) == op + op
    lifted = TensorOperator(D11, 2, op.matrix, 2)
    assert lifted.grassmann_n == 2
    assert lifted * lifted.scale(1) == TensorOperator.identity(D11, 2, 2) * (
        lifted * lifted
    )


# --- the sparse column maps against dense references ---------------------------

N3 = 3
_x = [GrassmannElement.generator(N3, i) for i in (1, 2, 3)]
LAMBDA3_POOL = [
    GrassmannElement.zero(N3),
    GrassmannElement.scalar(N3, 1),
    GrassmannElement.scalar(N3, Fraction(-3, 2)),
    _x[0],
    _x[1],
    _x[0] - _x[2] * 2,
    _x[1] * _x[2],
    GrassmannElement.scalar(N3, 2) + _x[0] * _x[2],
]
RATIONAL_POOL = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3)]


def dense_product(a, b, zero):
    """Reference row-by-column product, each term left factor first."""
    side = len(a)
    out = []
    for i in range(side):
        row = []
        for j in range(side):
            acc = zero
            for k in range(side):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


@st.composite
def operator_pairs(draw):
    """Two random operators on one small space, over Q or over Lambda_3."""
    dim, r = draw(st.sampled_from([(D11, 1), (D21, 1), (D11, 2)]))
    side = dim.size ** r
    n = draw(st.sampled_from([None, N3]))
    pool = RATIONAL_POOL if n is None else LAMBDA3_POOL
    # mostly zeros, so the column maps stay sparse
    entry = st.one_of(st.just(0), st.just(0), st.sampled_from(pool))
    dense = st.lists(st.lists(entry, min_size=side, max_size=side), min_size=side, max_size=side)
    return dim, r, n, draw(dense), draw(dense)


def as_ring(rows, n):
    if n is None:
        return [[Fraction(e) for e in row] for row in rows]
    return [[as_element(e, n) for e in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(operator_pairs(), st.sampled_from([0, 1, -1, 3, Fraction(-2, 7)]))
def test_sparse_operator_matches_dense_reference(case, factor):
    dim, r, n, a_rows, b_rows = case
    a = TensorOperator(dim, r, a_rows, n)
    b = TensorOperator(dim, r, b_rows, n)
    da, db = as_ring(a_rows, n), as_ring(b_rows, n)
    zero = a.zero_element
    side = len(da)
    assert a.matrix == tuple(map(tuple, da))
    assert (a * b).matrix == tuple(map(tuple, dense_product(da, db, zero)))
    assert (a + b).matrix == tuple(
        tuple(da[i][j] + db[i][j] for j in range(side)) for i in range(side)
    )
    assert (a - b).matrix == tuple(
        tuple(da[i][j] - db[i][j] for j in range(side)) for i in range(side)
    )
    assert a.scale(factor).matrix == tuple(tuple(e * factor for e in row) for row in da)
    assert (a == b) == (da == db)
    for op in (a * b, a + b, a - b, a.scale(factor)):
        assert_stored_canonically(op)


@st.composite
def column_operators(draw):
    """Two rational operators on one small space, each a random signed
    permutation operator (one entry per column) or one whose columns mix
    empty, one-entry and multi-entry columns."""
    dim, r = draw(st.sampled_from([(D11, 1), (D21, 1), (D11, 2), (D21, 2)]))
    side = dim.size ** r
    nonzero = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-5, 3)])

    def signed_permutation():
        images = draw(st.permutations(range(side)))
        return [{i: draw(st.sampled_from([1, -1]))} for i in images]

    def mixed():
        cols = []
        for _ in range(side):
            size = draw(st.sampled_from([0, 1, 1, 2, side]))
            rows = draw(st.lists(st.integers(0, side - 1), min_size=size, max_size=size, unique=True))
            cols.append({i: draw(nonzero) for i in rows})
        return cols

    def operator():
        cols = signed_permutation() if draw(st.booleans()) else mixed()
        rows = [[cols[j].get(i, 0) for j in range(side)] for i in range(side)]
        return TensorOperator(dim, r, rows)

    return operator(), operator()


@settings(max_examples=150, deadline=None)
@given(column_operators())
def test_product_with_one_entry_columns_matches_dense_reference(case):
    a, b = case
    for x, y in ((a, b), (b, a)):
        got = x * y
        assert got.matrix == tuple(map(tuple, dense_product(x.matrix, y.matrix, 0)))
        assert_results_stored_canonically(x, y)


def test_sparse_product_keeps_factor_order():
    # x1 x2 = -x2 x1: a product formed as b * a would flip every sign here
    x1, x2 = _x[0], _x[1]
    zero = GrassmannElement.zero(N3)
    a = TensorOperator(D11, 1, [[x1, zero], [zero, x2]], N3)
    b = TensorOperator(D11, 1, [[x2, x1], [zero, x1]], N3)
    assert (a * b).matrix == ((x1 * x2, zero), (zero, x2 * x1))
    assert a * b != TensorOperator(D11, 1, [[x2 * x1, zero], [zero, x1 * x2]], N3)


def test_dense_rows_with_zeros_equal_sparse_build():
    dim, r = D21, 2
    op = transposition_operator(dim, r, 1, 2)
    rows = [[int(e) for e in row] for row in op.matrix]  # explicit zeros
    rebuilt = TensorOperator(dim, r, rows)
    assert rebuilt == op and hash(rebuilt) == hash(op)
    assert rebuilt.matrix == op.matrix
    assert sorted(rebuilt.cols) == list(range(9))
    assert all(len(col) == 1 for col in rebuilt.cols.values())
    assert TensorOperator._from_cols(dim, r, op.cols) == op

    over = TensorOperator(dim, r, rows, 2)
    lifted = TensorOperator(dim, r, op.matrix, 2)
    assert over == lifted and hash(over) == hash(lifted)
    assert TensorOperator(dim, r, over.matrix, 2) == over
    zero_rows = [[GrassmannElement.zero(2)] * 9 for _ in range(9)]
    assert TensorOperator(dim, r, zero_rows, 2) == TensorOperator.zero(dim, r, 2)
    assert TensorOperator.zero(dim, r, 2).cols == {}


def test_equal_operators_hash_equal():
    for sigma in all_perms(3):
        via_adjacent = operator_from_transpositions(D11, 3, adjacent_decomposition(sigma))
        via_cycles = operator_from_transpositions(D11, 3, cycle_decomposition(sigma))
        assert via_adjacent == via_cycles
        assert hash(via_adjacent) == hash(via_cycles)
    e12 = SuperMatrix.elementary(D11, 1, 2)
    theta = derivation_operator(e12, 2)
    assert hash(theta + theta) == hash(theta.scale(2))


def dense_diagonal_operator(g, r):
    """Reference diagonal action: every (word, image) pair expanded on its own."""
    dim = g.dim
    size = dim.size
    words = basis_words(dim, r)
    zero = g.zero_element
    rows = [[zero] * len(words) for _ in words]
    parity = [dim.parity(a) for a in range(1, size + 1)]
    for col, word in enumerate(words):
        for row, image in enumerate(words):
            product = None
            exponent = 0
            for k in range(r):
                product = g.entries[image[k] - 1][word[k] - 1] if product is None else (
                    product * g.entries[image[k] - 1][word[k] - 1]
                )
                entry_parity = parity[image[k] - 1] ^ parity[word[k] - 1]
                exponent += entry_parity * sum(parity[t - 1] for t in image[k + 1 :])
            rows[row][col] = -product if exponent & 1 else product
    return rows


@pytest.mark.parametrize(
    "dim,r", [(D11, 1), (D11, 2), (D11, 3), (D21, 2), (D12, 3), (D22, 2)]
)
def test_diagonal_action_matches_dense_expansion(dim, r):
    rng = random.Random(11)
    for _ in range(3):
        g = random_gl_point(rng, dim, 4)
        assert diagonal_operator(g, r).matrix == tuple(
            map(tuple, dense_diagonal_operator(g, r))
        )
    body = random_gl_point(rng, dim, 4).body_matrix()
    rational = SuperMatrix(dim, body)
    assert diagonal_operator(rational, r).matrix == tuple(
        map(tuple, dense_diagonal_operator(rational, r))
    )


def dense_derivation_rows(x, r, counted, coeff=None):
    """Reference derivation action: every (word, position) term expanded on
    its own, with the sign (-1)^{parity * (odd letters in counted(word, k))}.

    Over Q the term at k is sign * x_ta; given a Grassmann coefficient it is
    coeff * (sign * x_ta), with the sign taken from the coefficient's parity.
    """
    dim = x.dim
    words = basis_words(dim, r)
    parity = block_parity(x) if coeff is None else coeff.parity()
    zero = Fraction(0) if coeff is None else GrassmannElement.zero(coeff.num_generators)
    rows = [[zero] * len(words) for _ in words]
    for col, word in enumerate(words):
        for k in range(r):
            odd = sum(dim.parity(letter) for letter in counted(word, k))
            sign = -1 if parity * odd % 2 else 1
            for t in range(1, dim.size + 1):
                entry = x.entries[t - 1][word[k] - 1]
                image = word[:k] + (t,) + word[k + 1 :]
                term = sign * entry if coeff is None else coeff * (sign * entry)
                rows[word_index(dim, image)][col] += term
    return tuple(map(tuple, rows))


def homogeneous_matrices(dim, rng):
    """Every E_ij, plus one random even and one random odd rational matrix."""
    out = [x for _, _, x in elementary_list(dim)]
    for want in (0, 1):
        rows = [
            [
                rng.choice(RATIONAL_POOL) if (dim.parity(i) + dim.parity(j)) % 2 == want else 0
                for j in range(1, dim.size + 1)
            ]
            for i in range(1, dim.size + 1)
        ]
        out.append(SuperMatrix(dim, rows))
    return out


BEFORE = lambda word, k: word[:k]
THROUGH = lambda word, k: word[: k + 1]
AFTER = lambda word, k: word[k + 1 :]
DERIVATION_CASES = [(dim, r) for dim in (D11, D21, D12, D22) for r in (1, 2, 3)]


@pytest.mark.parametrize("dim,r", DERIVATION_CASES)
def test_derivation_matches_dense_definition(dim, r):
    for x in homogeneous_matrices(dim, random.Random(13)):
        for odd_count, counted in (("exclusive", BEFORE), ("inclusive", THROUGH)):
            assert derivation_operator(x, r, odd_count).matrix == dense_derivation_rows(
                x, r, counted
            )


# over Lambda_3: odd coefficients, and even ones that square to zero
ODD_POOL = [_x[0], _x[0] - _x[2] * 2, _x[1] + _x[0] * _x[1] * _x[2]]
EVEN_NILPOTENT_POOL = [_x[1] * _x[2], _x[0] * _x[2] + _x[1] * _x[2] * Fraction(2, 3)]


@pytest.mark.parametrize("dim,r", DERIVATION_CASES)
def test_point_derivation_matches_dense_definition(dim, r):
    rng = random.Random(17)
    for x in homogeneous_matrices(dim, rng):
        pool = ODD_POOL if block_parity(x) else EVEN_NILPOTENT_POOL
        alpha = rng.choice(pool)
        assert point_derivation_operator(x, alpha, r).matrix == dense_derivation_rows(
            x, r, AFTER, alpha
        )


def test_point_derivation_with_zero_coefficient_is_zero():
    zero = GrassmannElement.zero(4)
    for dim, r in ((D11, 2), (D21, 2), (D12, 1)):
        for x in (SuperMatrix.elementary(dim, 1, 1), SuperMatrix.elementary(dim, 1, dim.size)):
            got = point_derivation_operator(x, zero, r)
            assert got == TensorOperator.zero(dim, r, 4)
            assert got.cols == {}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(D11, 1), (D11, 2), (D21, 1)]), st.data())
def test_grassmann_operator_product_matches_term_by_term_reference(case, data):
    dim, r = case
    side = dim.size ** r
    coeffs = st.builds(
        Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
    )
    masks = st.integers(min_value=0, max_value=15)
    element = st.dictionaries(masks, coeffs, max_size=3).map(lambda t: GrassmannElement(4, t))
    entry = st.one_of(st.just(0), st.just(0), element)
    rows = st.lists(st.lists(entry, min_size=side, max_size=side), min_size=side, max_size=side)
    a, b = TensorOperator(dim, r, data.draw(rows), 4), TensorOperator(dim, r, data.draw(rows), 4)
    assert_grassmann_product_matches(a, b)


def assert_grassmann_product_matches(a, b):
    got = a * b
    assert [[e.terms for e in row] for row in got.matrix] == ref_matrix_product(a.matrix, b.matrix)
    assert_results_stored_canonically(a, b)


def test_grassmann_products_of_vanishing_one_entry_columns():
    # x1 x1 = x1 x2 x1 = 0: most columns of these products vanish, and none
    # of them may be stored, nor any zero entry
    x1, x2 = (GrassmannElement.generator(4, i) for i in (1, 2))
    zero = GrassmannElement.zero(4)
    a = TensorOperator(D11, 1, [[x1, x2], [x1 * x2, zero]], 4)
    b = TensorOperator(D11, 1, [[x1, zero], [zero, x1]], 4)
    c = TensorOperator(D11, 2, [[x1 * x2 if i == j else zero for j in range(4)] for i in range(4)], 4)
    d = TensorOperator(D11, 2, [[x1 if i == 3 - j else zero for j in range(4)] for i in range(4)], 4)
    for x, y in ((a, b), (b, a), (b, b), (c, d), (d, c), (d, d)):
        assert_grassmann_product_matches(x, y)
    assert (b * b).cols == {} and (c * d).cols == {} and (d * c).cols == {}


def test_matrices_and_operators_never_mix():
    x = SuperMatrix.identity(D11)
    op = TensorOperator.identity(D11, 1)
    assert x.cols == op.cols
    for left, right in ((x, op), (op, x)):
        for form in (lambda: left * right, lambda: left + right, lambda: left - right):
            with pytest.raises(TypeError):
                form()
        assert left != right and not left == right


def test_degree_one_operators_store_the_matrix_map():
    for dim in (D21, D12):
        for i, j in itertools.product(range(1, dim.size + 1), repeat=2):
            x = SuperMatrix.elementary(dim, i, j)
            assert derivation_operator(x, 1).cols == x.cols == {j - 1: {i - 1: 1}}
    rng = random.Random(7)
    for dim in (D11, D21, D12, D22):
        for _ in range(3):
            g = random_gl_point(rng, dim, 4)
            assert diagonal_operator(g, 1).cols == g.cols

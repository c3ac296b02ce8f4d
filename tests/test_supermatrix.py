"""Supermatrices over Q and Grassmann algebras: arithmetic, Berezinian, LDU."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superschur import (
    DimensionError,
    FormatError,
    GrassmannElement,
    NotInvertible,
    ParityError,
    SuperDim,
    SuperMatrix,
    berezinian,
    block_parity,
    dilation,
    even_det,
    even_matrix_inverse,
    gl_point,
    ldu_factor,
    random_gl_point,
    rational_elementary_factors,
    realize_elementary_factors,
    superbracket,
    supertrace,
    transvection,
)
from superschur.grassmann import MAX_GENERATORS
from superschur.supermatrix import _nth_mask, _random_element

from grassmann_oracles import ref_matrix_product

D11 = SuperDim(1, 1)
D21 = SuperDim(2, 1)


def perm_det(rows):
    """Reference determinant: signed permutation expansion.

    Valid whenever the entries commute with each other, which holds for
    rationals and for even Grassmann elements.
    """
    size = len(rows)
    total = None
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b]
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(size):
            term = term * rows[i][perm[i]]
        total = term if total is None else total + term
    return total


def even_entries(num_generators=3):
    masks = [m for m in range(1 << num_generators) if bin(m).count("1") % 2 == 0]
    coeffs = st.integers(min_value=-3, max_value=3).map(Fraction)
    return st.dictionaries(st.sampled_from(masks), coeffs, max_size=3).map(
        lambda terms: GrassmannElement(num_generators, terms)
    )


def grassmann_pair():
    x1 = GrassmannElement.generator(2, 1)
    x2 = GrassmannElement.generator(2, 2)
    one = GrassmannElement.scalar(2, 1)
    return one, x1, x2


def test_parity_of_positions():
    assert [D21.parity(i) for i in (1, 2, 3)] == [0, 0, 1]
    with pytest.raises(DimensionError):
        D21.parity(4)


def test_superdim_is_a_frozen_value():
    # SuperDim keys matrices and operators, so equality, hashing and repr
    # are part of its contract
    assert SuperDim(2, 1) == D21 and not SuperDim(2, 1) != D21
    assert SuperDim(2, 1) != SuperDim(1, 2) and SuperDim(1, 1) != D21
    assert not SuperDim(2, 1) == (2, 1)
    assert SuperDim(2, 1) != (2, 1)
    assert hash(SuperDim(2, 1)) == hash((2, 1))
    assert len({SuperDim(2, 1), D21, SuperDim(1, 2)}) == 2
    assert repr(SuperDim(2, 1)) == "SuperDim(m=2, n=1)"
    assert (D21.m, D21.n, D21.size) == (2, 1, 3)
    with pytest.raises(AttributeError):
        D21.m = 3
    assert D21.m == 2
    for m, n in ((0, 0), (-1, 2)):
        with pytest.raises(DimensionError, match=r"^need m, n >= 0 with m \+ n >= 1$"):
            SuperDim(m, n)


def test_supertrace_signs():
    mat = SuperMatrix(D11, [[3, 5], [7, 2]])
    assert supertrace(mat) == 1
    assert supertrace(SuperMatrix.identity(D21)) == 2 - 1


def test_berezinian_worked_example():
    one, x1, x2 = grassmann_pair()
    mat = SuperMatrix(D11, [[one, x1], [x2, one]], 2)
    assert berezinian(mat) == one - x1 * x2


def test_berezinian_needs_gl_point():
    mat = SuperMatrix(D11, [[0, 0], [0, 1]])
    with pytest.raises(NotInvertible):
        berezinian(mat)


def test_berezinian_refuses_even_points_with_a_singular_body():
    # W's body is singular, so W's elimination sticks; then X's body is,
    # so the Schur complement's elimination sticks (its body is X's)
    one, x1, x2 = grassmann_pair()
    zero = GrassmannElement.zero(2)
    points = [
        SuperMatrix(D11, [[one, x1], [x2, x1 * x2]], 2),
        SuperMatrix(D11, [[x1 * x2, x1], [x2, one]], 2),
        SuperMatrix(D21, [[one, zero, x1], [zero, one, zero], [x2, zero, x1 * x2]], 2),
        SuperMatrix(D21, [[one, zero, zero], [zero, x1 * x2, x1], [zero, x2, one]], 2),
    ]
    for mat in points:
        assert mat.is_even_point()
        with pytest.raises(NotInvertible, match="^Berezinian needs a GL point$"):
            berezinian(mat)
        with pytest.raises(NotInvertible):
            ldu_factor(mat)


def test_transvections_compose_additively():
    one, x1, x2 = grassmann_pair()
    left = transvection(D11, 1, 2, x1, 2)
    right = transvection(D11, 1, 2, x2, 2)
    prod = left * right
    assert prod.entries[0][1] == x1 + x2
    assert prod.entries[0][0] == one


def test_transvection_parity_enforced():
    one, x1, x2 = grassmann_pair()
    with pytest.raises(ParityError):
        transvection(D11, 1, 2, one, 2)
    with pytest.raises(ParityError):
        transvection(D21, 1, 2, x1, 2)
    with pytest.raises(ParityError):
        transvection(D11, 1, 2, 1)


def test_dilation_needs_invertible_even_value():
    _, x1, x2 = grassmann_pair()
    with pytest.raises(ParityError):
        dilation(D11, 1, x1, 2)
    with pytest.raises(NotInvertible):
        dilation(D11, 1, x1 * x2, 2)
    with pytest.raises(NotInvertible):
        dilation(D11, 1, 0)


def test_ldu_worked_example():
    one, x1, x2 = grassmann_pair()
    zero = GrassmannElement.zero(2)
    mat = SuperMatrix(D11, [[one, x1], [x2, one]], 2)
    upper, blockdiag, lower = ldu_factor(mat)
    assert upper == SuperMatrix(D11, [[one, x1], [zero, one]], 2)
    assert blockdiag == SuperMatrix(D11, [[one - x1 * x2, zero], [zero, one]], 2)
    assert lower == SuperMatrix(D11, [[one, zero], [x2, one]], 2)
    assert upper * blockdiag * lower == mat


def test_ldu_of_identity():
    ident = SuperMatrix.identity(D21, 2)
    assert ldu_factor(ident) == (ident, ident, ident)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_even_det_paths_agree_with_expansion(size, data):
    rows = [
        [data.draw(even_entries()) for _ in range(size)] for _ in range(size)
    ]
    assert even_det(rows) == perm_det(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_even_det_expands_a_column_of_nilpotents(size, data):
    # a column of nilpotents leaves elimination without a unit pivot there,
    # so even_det must finish by expansion
    rows = [
        [data.draw(even_entries(4)) for _ in range(size)] for _ in range(size)
    ]
    col = data.draw(st.integers(min_value=0, max_value=size - 1))
    for row in rows:
        row[col] = row[col] - row[col].body()
    assert even_det(rows) == perm_det(rows)
    souls = [[e - e.body() for e in row] for row in rows]
    assert even_det(souls) == perm_det(souls)


def test_even_det_of_nilpotent_matrices():
    x = [GrassmannElement.generator(6, i) for i in range(1, 7)]
    a, b, c = x[0] * x[1], x[2] * x[3], x[4] * x[5]
    zero = GrassmannElement.zero(6)
    rows = [[a, zero, zero], [zero, b, zero], [zero, zero, c]]
    assert even_det(rows) == a * b * c != zero
    rows = [[a, b, c], [b, c, a], [c, a, b]]
    assert even_det(rows) == perm_det(rows)
    assert even_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5).map(Fraction), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_even_det_rational(rows):
    assert even_det(rows) == perm_det(rows)


def test_even_matrix_inverse_round_trip():
    one, x1, x2 = grassmann_pair()
    zero = GrassmannElement.zero(2)
    rows = [[one + x1 * x2, x1 * x2], [zero, one - x1 * x2]]
    inv = even_matrix_inverse(rows, zero, one)
    prod = [
        [sum((rows[i][k] * inv[k][j] for k in range(2)), zero) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[one, zero], [zero, one]]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.booleans(), st.data())
def test_even_matrix_inverse_round_trips_or_refuses(size, grassmann, data):
    if grassmann:
        entries = even_entries(4)
        zero, one = GrassmannElement.zero(4), GrassmannElement.scalar(4, 1)
    else:
        entries = st.integers(-3, 3).map(Fraction)
        zero, one = Fraction(0), Fraction(1)
    rows = [[data.draw(entries) for _ in range(size)] for _ in range(size)]
    body = [[e.body() if grassmann else e for e in row] for row in rows]
    if perm_det(body) == 0:
        with pytest.raises(NotInvertible):
            even_matrix_inverse(rows, zero, one)
        return
    inv = even_matrix_inverse(rows, zero, one)
    ident = [[one if i == j else zero for j in range(size)] for i in range(size)]

    def times(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(size)), zero) for j in range(size)]
            for i in range(size)
        ]

    assert times(rows, inv) == ident
    assert times(inv, rows) == ident


def test_even_matrix_inverse_refuses_a_singular_body():
    one, x1, x2 = grassmann_pair()
    zero = GrassmannElement.zero(2)
    rows = [[one, one + x1 * x2], [one, one]]
    assert even_det(rows) == -(x1 * x2)
    with pytest.raises(NotInvertible):
        even_matrix_inverse(rows, zero, one)


def test_even_det_and_inverse_take_rows_mixing_rationals_and_elements():
    one, x1, x2 = grassmann_pair()
    zero = GrassmannElement.zero(2)
    # the pivot of the first column is one, so the int in the pivot row
    # reaches the row update unscaled
    rows = [[one + x1 * x2, 1], [x1 * x2, Fraction(1, 2)]]
    assert even_det(rows) == perm_det(rows) == GrassmannElement(2, {0: Fraction(1, 2), 3: Fraction(-1, 2)})
    inv = even_matrix_inverse(rows, zero, one)
    prod = [
        [sum((rows[i][k] * inv[k][j] for k in range(2)), zero) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[one, zero], [zero, one]]


def test_superbracket_of_odd_pair():
    e12 = SuperMatrix.elementary(D11, 1, 2)
    e21 = SuperMatrix.elementary(D11, 2, 1)
    expect = SuperMatrix(D11, [[1, 0], [0, 1]])
    assert superbracket(e12, e21) == expect
    assert superbracket(e12, e12) == SuperMatrix(D11, [[0, 0], [0, 0]])
    assert block_parity(e12) == 1
    assert block_parity(SuperMatrix.elementary(D11, 1, 1)) == 0


def test_superbracket_rejects_mixed_parity():
    mixed = SuperMatrix(D11, [[1, 1], [0, 0]])
    assert block_parity(mixed) is None
    with pytest.raises(ParityError):
        superbracket(mixed, mixed)


def test_supertrace_twisted_commutativity():
    elems = [
        (i, j, SuperMatrix.elementary(D11, i, j))
        for i in (1, 2)
        for j in (1, 2)
    ]
    for (i, j, x), (k, l, y) in itertools.product(elems, repeat=2):
        px = (D11.parity(i) + D11.parity(j)) % 2
        py = (D11.parity(k) + D11.parity(l)) % 2
        sign = -1 if (px * py) % 2 else 1
        assert supertrace(x * y) == sign * supertrace(y * x)
        assert supertrace(superbracket(x, y)) == 0


def test_point_commutator_matches_scaled_bracket():
    one, x1, x2 = grassmann_pair()
    e12 = SuperMatrix.elementary(D11, 1, 2)
    e21 = SuperMatrix.elementary(D11, 2, 1)
    a_v = gl_point(x1, e12)
    b_w = gl_point(x2, e21)
    lhs = a_v * b_w - b_w * a_v
    # odd coefficients, odd matrices: the interchange sign is -1
    rhs = gl_point(x1 * x2, superbracket(e12, e21)).scale(-1)
    assert lhs == rhs


def test_gl_point_parity_mismatch():
    one, x1, _ = grassmann_pair()
    e12 = SuperMatrix.elementary(D11, 1, 2)
    e11 = SuperMatrix.elementary(D11, 1, 1)
    with pytest.raises(ParityError):
        gl_point(one, e12)
    with pytest.raises(ParityError):
        gl_point(x1, e11)


def test_random_gl_point_deterministic():
    a = random_gl_point(random.Random(7), D21, 4)
    b = random_gl_point(random.Random(7), D21, 4)
    assert a == b
    assert a.is_gl_point()


def _listed_draws(rng, n, odd, max_terms=2):
    """The draws of the sampler that listed every mask of the wanted parity."""
    terms = {} if odd else {0: Fraction(rng.randint(-3, 3))}
    masks = [m for m in range(1, 1 << n) if m.bit_count() % 2 == odd]
    for mask in rng.sample(masks, min(max_terms, len(masks))):
        coeff = rng.randint(-2, 2)
        if coeff:
            terms[mask] = Fraction(coeff)
    return GrassmannElement(n, terms)


def test_mask_sampling_matches_the_listed_masks():
    for n in range(0, 9):
        for odd in (False, True):
            listed = [m for m in range(1, 1 << n) if m.bit_count() % 2 == odd]
            assert [_nth_mask(i, odd) for i in range(len(listed))] == listed
            for seed in range(6):
                ours, theirs = random.Random(seed), random.Random(seed)
                for max_terms in (1, 2, 3):
                    got = _random_element(ours, n, odd, max_terms)
                    assert got == _listed_draws(theirs, n, odd, max_terms), (n, seed, odd)
                assert ours.getstate() == theirs.getstate()


def test_mask_sampling_at_the_generator_cap():
    n = MAX_GENERATORS
    half = 1 << n - 1
    top = (1 << n) - 1  # its parity is that of n
    assert (_nth_mask(0, False), _nth_mask(half - 2, False)) == (3, top - n % 2)
    assert (_nth_mask(0, True), _nth_mask(half - 1, True)) == (1, top - 1 + n % 2)
    for odd in (False, True):
        e = _random_element(random.Random(3), n, odd)
        assert e.parity() == odd and all(m < 1 << n for m in e.terms)


def test_ldu_reconstructs_random_points():
    rng = random.Random(11)
    for _ in range(10):
        g = random_gl_point(rng, D21, 4)
        upper, blockdiag, lower = ldu_factor(g)
        assert upper * blockdiag * lower == g


@settings(max_examples=30)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4).map(Fraction), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_elementary_factors_rebuild_block(rows):
    if perm_det(rows) == 0:
        with pytest.raises(NotInvertible):
            rational_elementary_factors(rows)
        return
    ops = rational_elementary_factors(rows)
    dim = SuperDim(2, 0)
    built = realize_elementary_factors(dim, 0, ops)
    assert [list(r) for r in built.entries] == rows


def test_elementary_factors_handle_swap_pivot():
    rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    ops = rational_elementary_factors(rows)
    built = realize_elementary_factors(SuperDim(2, 0), 0, ops)
    assert [list(r) for r in built.entries] == rows


def test_json_round_trip_both_rings():
    one, x1, x2 = grassmann_pair()
    mat = SuperMatrix(D11, [[one, x1], [x2, one - x1 * x2]], 2)
    assert SuperMatrix.from_json(mat.to_json()) == mat
    rational = SuperMatrix(D21, [[1, 2, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]])
    assert SuperMatrix.from_json(rational.to_json()) == rational


@pytest.mark.parametrize(
    "payload",
    [
        {"m": 1, "n": 1, "ring": "Q"},
        {"m": 1, "n": 1, "ring": "Q", "entries": [["1"]]},
        {"m": 1, "n": 1, "ring": "Q", "entries": [["1", "x"], ["0", "1"]]},
        {"m": 1, "n": 1, "ring": "grassmann", "entries": [["1", "0"], ["0", "1"]]},
        {"m": 0, "n": 0, "ring": "Q", "entries": []},
        {"m": 1, "n": 1, "ring": "other", "entries": [["1", "0"], ["0", "1"]]},
        [],
    ],
)
def test_json_rejects_malformed(payload):
    with pytest.raises(FormatError):
        SuperMatrix.from_json(payload)


def test_even_point_classification():
    one, x1, x2 = grassmann_pair()
    good = SuperMatrix(D11, [[one, x1], [x2, one]], 2)
    assert good.is_even_point() and good.is_gl_point()
    bad = SuperMatrix(D11, [[x1, x1], [x2, one]], 2)
    assert not bad.is_even_point()
    singular = SuperMatrix(D11, [[x1 * x2, x1], [x2, one]], 2)
    assert singular.is_even_point() and not singular.is_gl_point()
    zero = GrassmannElement.scalar(2, 0)
    # a mixed entry on a diagonal block
    assert not SuperMatrix(D11, [[one + x1, zero], [zero, one]], 2).is_even_point()
    assert not SuperMatrix(D11, [[one, zero], [zero, x2 + x1 * x2]], 2).is_even_point()
    # an even nonzero entry off the diagonal blocks, unit or nilpotent
    assert not SuperMatrix(D11, [[one, one], [zero, one]], 2).is_even_point()
    assert not SuperMatrix(D11, [[one, zero], [x1 * x2, one]], 2).is_even_point()
    # zero entries have either parity
    assert SuperMatrix(D11, [[zero, zero], [zero, zero]], 2).is_even_point()
    # over Q a nonzero entry off the diagonal blocks is refused, zero is not
    assert not SuperMatrix(D11, [[1, Fraction(1, 2)], [0, 1]]).is_even_point()
    assert not SuperMatrix(D11, [[1, 0], [-3, 1]]).is_even_point()
    assert SuperMatrix(SuperDim(2, 1), [[1, 2, 0], [3, 4, 0], [0, 0, 5]]).is_even_point()


def dense_matrix_product(a, b, zero):
    """Reference row-by-column product, each term left factor first."""
    size = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(size)), zero) for j in range(size)]
        for i in range(size)
    ]


@st.composite
def matrix_pairs(draw):
    """Two random square matrices over Q or over Lambda_3, mostly zeros;
    the Lambda_3 entries include odd elements, whose order matters."""
    dim = draw(st.sampled_from([D11, D21, SuperDim(1, 2)]))
    size = dim.size
    n = draw(st.sampled_from([None, 3]))
    if n is None:
        pool = [1, -1, 2, Fraction(3, 4)]
    else:
        x1, x2, x3 = (GrassmannElement.generator(3, i) for i in (1, 2, 3))
        pool = [GrassmannElement.scalar(3, 2), x1, x2, x1 + x3, x2 * x3, x1 * x2 * x3 - 1]
    entry = st.one_of(st.just(0), st.sampled_from(pool))
    rows = st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size)
    return SuperMatrix(dim, draw(rows), n), SuperMatrix(dim, draw(rows), n)


def assert_matches_dense(got, rows):
    """got stores no empty column and no zero entry, and equals and hashes
    as the matrix with the dense reference rows."""
    assert all(col and all(col.values()) for col in got.cols.values())
    want = SuperMatrix(got.dim, rows, got.grassmann_n)
    assert got == want and hash(got) == hash(want)


def vanishing_pair():
    """Lambda_3 matrices whose columns hold one entry each, chosen so that
    most products of those entries vanish: x1 x1 = x1 x2 x1 = 0."""
    x1, x2 = GrassmannElement.generator(3, 1), GrassmannElement.generator(3, 2)
    a = SuperMatrix(D11, [[x1, x2], [x1 * x2, 0]], 3)
    b = SuperMatrix(D11, [[x1, 0], [0, x1]], 3)
    return a, b


def homogeneous_part(mat, parity):
    """The rational matrix with the entries of the other block parity set to 0."""
    m = mat.dim.m
    rows = [
        [e if ((i < m) != (j < m)) == parity else 0 for j, e in enumerate(row)]
        for i, row in enumerate(mat.entries)
    ]
    return SuperMatrix(mat.dim, rows)


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
@example(vanishing_pair())
@example(vanishing_pair()[::-1])
@example((vanishing_pair()[1],) * 2)
def test_product_matches_dense_reference(pair):
    """+, -, *, scale and gl_point against dense references: no stored
    zeros, even after exact cancellation, and equal matrices hash equal."""
    a, b = pair
    size, zero = a.dim.size, a.zero_element
    ea, eb = a.entries, b.entries
    got = a * b
    assert_matches_dense(got, dense_matrix_product(ea, eb, zero))
    if a.grassmann_n is None:
        assert all(type(e) in (int, Fraction) for e in got.terms.values())
        if all(type(e) is int for m in pair for e in m.terms.values()):
            assert all(type(e) is int for e in got.terms.values())
    else:
        assert all(type(e) is GrassmannElement for e in got.terms.values())
    assert_matches_dense(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ea, eb)])
    assert_matches_dense(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ea, eb)])
    assert_matches_dense(a - a, [[zero] * size for _ in range(size)])
    assert_matches_dense(a + b - b, ea)
    for k in (0, -2, Fraction(1, 3)):
        assert_matches_dense(a.scale(k), [[x * k for x in row] for row in ea])
    if a.grassmann_n is None:
        x1, x2, x3 = (GrassmannElement.generator(3, i) for i in (1, 2, 3))
        coeffs = {
            0: [GrassmannElement.scalar(3, 2), x1 * x2 - Fraction(3, 2)],
            1: [x1, x2 + x1 * x2 * x3],
        }
        for parity, values in coeffs.items():
            mat = homogeneous_part(a, parity)
            for coeff in values + [GrassmannElement.zero(3)]:
                rows = [
                    [coeff * (-e if parity and a.dim.parity(r) else e) for e in row]
                    for r, row in enumerate(mat.entries, start=1)
                ]
                assert_matches_dense(gl_point(coeff, mat), rows)


def grassmann_entries(num_generators):
    """Entries of Lambda_N with assorted denominators, zero a third of the time."""
    coeffs = st.builds(
        Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
    )
    masks = st.integers(min_value=0, max_value=(1 << num_generators) - 1)
    elements = st.dictionaries(masks, coeffs, max_size=3).map(
        lambda terms: GrassmannElement(num_generators, terms)
    )
    return st.one_of(st.just(GrassmannElement.zero(num_generators)), elements, elements)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([D11, D21, SuperDim(2, 2)]), st.data())
def test_grassmann_product_matches_term_by_term_reference(dim, data):
    size = dim.size
    rows = st.lists(
        st.lists(grassmann_entries(4), min_size=size, max_size=size), min_size=size, max_size=size
    )
    a, b = SuperMatrix(dim, data.draw(rows), 4), SuperMatrix(dim, data.draw(rows), 4)
    got = a * b
    want = ref_matrix_product(a.entries, b.entries)
    assert [[e.terms for e in row] for row in got.entries] == want
    assert got == SuperMatrix(dim, [[GrassmannElement(4, t) for t in row] for row in want], 4)


def _repr_cases():
    q_ints = SuperMatrix(D21, [[1, 0, 0], [-3, 2, 0], [0, 0, 7]])
    q_fractions = SuperMatrix(
        D21, [[Fraction(1, 2), 0, 0], [Fraction(-6, 3), 1, 0], [0, 0, Fraction(5, 4)]]
    )
    x1, x2, x3 = (GrassmannElement.generator(3, i) for i in (1, 2, 3))
    lam = SuperMatrix(D21, [[2, 0, x1], [0, 1 - x1 * x2 * Fraction(1, 2), 0], [x3, 3 * x2, 1]], 3)
    return {
        "Q ints": q_ints,
        "Q fractions": q_fractions,
        "Lambda_3": lam,
        "Q product": q_fractions * q_ints.scale(2),
        "Lambda_3 product": lam * lam,
        "Q zero": q_ints - q_ints,
    }


# sha256 of repr, recorded while SuperMatrix stored every entry densely: the
# pinned group failures pick their inputs by the hash of a repr
PINNED_REPR = {
    "Q ints": "2414f3c6b38cc8fdaca7523b096254f04f5e5b3ddaa77a5d76a1f2604b6caa34",
    "Q fractions": "e42eb75b4724f348111d36501a8a4f0d9dbcd98ba147ca6c04192e5412ff9efa",
    "Lambda_3": "17946e01a3faf7e0875b2f8451bac5271e03f4dbcc3cc873c7e654b3ce20ec44",
    "Q product": "bcc342eda0562191d245f139e1f6d38adfe1e2672cb9952a70da705aa3bb4a41",
    "Lambda_3 product": "904a3dc08a4b123fa61cc1d3bd269ea30cf6d62fb994b370d0f83461af333580",
    "Q zero": "08148621bdc84cf12f484c1e4f000b1a5901528d1fc02baac0909cba2ebb8aec",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPR))
def test_repr_is_pinned(name):
    text = repr(_repr_cases()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPR[name]

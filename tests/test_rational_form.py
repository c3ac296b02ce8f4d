"""The exact form of rational entries: an int when integral, else a Fraction.

Integer inputs stay ints through every product, sum and bracket; a Fraction
that is integral compares and hashes equal to its int, so an entry stored
either way gives the same matrix or operator; and no library constructor
takes a float, a bool or a string for a rational.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import (
    DimensionError,
    GrassmannElement,
    SuperDim,
    SuperMatrix,
    TensorOperator,
    derivation_operator,
    dilation,
    superbracket,
    transposition_operator,
    transvection,
)
from superschur.grassmann import exact_rational

D10 = SuperDim(1, 0)
D11 = SuperDim(1, 1)
D20 = SuperDim(2, 0)

CONSTRUCTORS = {
    "exact_rational": exact_rational,
    "SuperMatrix over Q": lambda v: SuperMatrix(D10, [[v]]),
    "SuperMatrix over Lambda_2": lambda v: SuperMatrix(D10, [[v]], 2),
    "SuperMatrix.scale over Q": lambda v: SuperMatrix.identity(D11).scale(v),
    "SuperMatrix.scale over Lambda_2": lambda v: SuperMatrix.identity(D11, 2).scale(v),
    "transvection": lambda v: transvection(D20, 1, 2, v),
    "dilation": lambda v: dilation(D20, 1, v),
    "TensorOperator over Q": lambda v: TensorOperator(D10, 1, [[v]]),
    "TensorOperator over Lambda_2": lambda v: TensorOperator(D10, 1, [[v]], 2),
    "TensorOperator.scale": lambda v: TensorOperator.identity(D11, 2).scale(v),
    "GrassmannElement": lambda v: GrassmannElement(2, {0: v}),
    "GrassmannElement.scalar": lambda v: GrassmannElement.scalar(2, v),
    "GrassmannElement.monomial": lambda v: GrassmannElement.monomial(2, (1,), v),
}


@pytest.mark.parametrize("value", [0.1, True, "1/2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_refuse_floats_bools_and_strings(name, value):
    with pytest.raises(TypeError):
        CONSTRUCTORS[name](value)


@pytest.mark.parametrize(
    "build",
    [lambda e: SuperMatrix(D10, [[e]]), lambda e: TensorOperator(D10, 1, [[e]])],
    ids=["SuperMatrix", "TensorOperator"],
)
def test_rational_operand_refuses_grassmann_entries(build):
    with pytest.raises(DimensionError, match="cannot hold Grassmann entries"):
        build(GrassmannElement.generator(1, 1))


def test_exact_rational_keeps_one_form():
    half = Fraction(1, 2)
    assert exact_rational(half) is half
    assert type(exact_rational(Fraction(-6, 3))) is int and exact_rational(Fraction(-6, 3)) == -2
    assert type(exact_rational(7)) is int
    assert type(SuperMatrix(D10, [[Fraction(4, 2)]]).entries[0][0]) is int
    assert type(transvection(D20, 1, 2, Fraction(3)).entries[0][1]) is int


def entry_types(values) -> set:
    return {type(e) for e in values}


def stored_values(x):
    """The stored entries of a SuperMatrix or a TensorOperator."""
    return [e for col in x.cols.values() for e in col.values()]


def as_fractions(x):
    """x with each stored entry held as a Fraction, the form a product of
    Fractions can leave behind."""
    cols = {j: {i: Fraction(e) for i, e in col.items()} for j, col in x.cols.items()}
    return x._from_cols(x.dim, x.r, cols)


def both_forms(dim: SuperDim, rows):
    """The matrix with int entries, and the same matrix as Fractions."""
    as_ints = SuperMatrix(dim, rows)
    return as_ints, as_fractions(as_ints)


def homogeneous(dim: SuperDim, rows, parity: int):
    """rows with the entries of the other block parity set to 0."""
    m = dim.m
    return [
        [e if int((i < m) != (j < m)) == parity else 0 for j, e in enumerate(row)]
        for i, row in enumerate(rows)
    ]


@st.composite
def integer_matrices(draw):
    dim = draw(st.sampled_from([D11, SuperDim(2, 1), SuperDim(1, 2), D20]))
    size = dim.size
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    rows = st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size)
    return dim, draw(rows), draw(rows)


def assert_same(int_form, fraction_form):
    assert int_form == fraction_form
    assert hash(int_form) == hash(fraction_form)
    assert entry_types(stored_values(int_form)) <= {int}
    assert entry_types(stored_values(fraction_form)) <= {int, Fraction}


@settings(max_examples=60, deadline=None)
@given(integer_matrices(), st.sampled_from([0, 1, -2]), st.sampled_from([0, 1]), st.sampled_from([1, 2]))
def test_int_and_fraction_forms_agree(data, k, parity, r):
    dim, a_rows, b_rows = data
    a, a_frac = both_forms(dim, a_rows)
    b, b_frac = both_forms(dim, b_rows)
    assert_same(a, a_frac)
    assert SuperMatrix(dim, [[Fraction(e) for e in row] for row in a_rows]).entries == a.entries
    assert_same(a * b, a_frac * b_frac)
    assert_same(a + b, a_frac + b_frac)
    assert_same(a - b, a_frac - b_frac)
    assert_same(a.scale(k), a_frac.scale(Fraction(k)))
    assert entry_types(stored_values(a.scale(Fraction(1, 2)))) <= {int, Fraction}

    x, x_frac = both_forms(dim, homogeneous(dim, a_rows, parity))
    y, y_frac = both_forms(dim, homogeneous(dim, b_rows, 1 - parity))
    assert_same(superbracket(x, y), superbracket(x_frac, y_frac))
    theta_x, theta_y = derivation_operator(x, r), derivation_operator(y, r)
    theta_x_frac, theta_y_frac = derivation_operator(x_frac, r), derivation_operator(y_frac, r)
    assert_same(theta_x, theta_x_frac)
    assert_same(theta_x * theta_y, theta_x_frac * theta_y_frac)
    assert_same(theta_x - theta_y, theta_x_frac - theta_y_frac)
    assert_same(theta_x.scale(k), theta_x_frac.scale(Fraction(k)))
    if r > 1:
        tau = transposition_operator(dim, r, 1, 2)
        assert entry_types(stored_values(tau)) == {int}
        assert_same(tau * theta_x, tau * theta_x_frac)

    op = TensorOperator(dim, 1, a_rows)
    op_frac = as_fractions(op)
    assert_same(op, op_frac)
    assert_same(op * op, op_frac * op_frac)

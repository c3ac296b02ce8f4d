"""Exact arithmetic in finite Grassmann algebras."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import CapExceeded, DimensionError, FormatError, GrassmannElement, as_element
from superschur.grassmann import MAX_GENERATORS

N = 3


def elements(num_generators=N, max_coeff=4):
    coeffs = st.fractions(
        min_value=-max_coeff, max_value=max_coeff, max_denominator=6
    )
    masks = st.integers(min_value=0, max_value=(1 << num_generators) - 1)
    return st.dictionaries(masks, coeffs, max_size=4).map(
        lambda terms: GrassmannElement(num_generators, terms)
    )


def homogeneous(num_generators=N):
    return elements(num_generators).map(
        lambda e: (e.even_part(), e.odd_part())
    ).flatmap(lambda pair: st.sampled_from(pair))


def test_generators_square_to_zero():
    for i in range(1, N + 1):
        x = GrassmannElement.generator(N, i)
        assert (x * x).is_zero()


def test_generators_anticommute():
    x1 = GrassmannElement.generator(N, 1)
    x2 = GrassmannElement.generator(N, 2)
    assert x1 * x2 == -(x2 * x1)
    assert not (x1 * x2).is_zero()


def test_binomial_square_collapses():
    one = GrassmannElement.scalar(2, 1)
    x1 = GrassmannElement.generator(2, 1)
    assert (one + x1) * (one + x1) == one + 2 * x1


def test_soul_is_nilpotent():
    x1, x2, x3 = (GrassmannElement.generator(N, i) for i in (1, 2, 3))
    s = x1 + x2 * x3 + 2 * x1 * x2
    acc = s
    for _ in range(N):
        acc = acc * s
    assert acc.is_zero()


def test_inverse_of_one_plus_volume_term():
    one = GrassmannElement.scalar(2, 1)
    x1 = GrassmannElement.generator(2, 1)
    x2 = GrassmannElement.generator(2, 2)
    u = one + x1 * x2
    assert u.inverse() == one - x1 * x2
    assert u * u.inverse() == one


def test_zero_body_not_invertible():
    x1 = GrassmannElement.generator(2, 1)
    with pytest.raises(ArithmeticError):
        x1.inverse()


def test_parity_bookkeeping():
    x1 = GrassmannElement.generator(N, 1)
    x2 = GrassmannElement.generator(N, 2)
    assert x1.parity() == 1
    assert (x1 * x2).parity() == 0
    assert GrassmannElement.zero(N).parity() == 0
    assert (GrassmannElement.scalar(N, 1) + x1).parity() is None


def test_mixed_generator_counts_rejected():
    a = GrassmannElement.generator(2, 1)
    b = GrassmannElement.generator(3, 1)
    with pytest.raises(DimensionError):
        a + b


@given(elements(), elements(), elements())
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elements(), elements(), elements())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(homogeneous(), homogeneous())
def test_supercommutativity(a, b):
    sign = -1 if (a.parity() * b.parity()) % 2 else 1
    assert a * b == (b * a) * Fraction(sign)


@given(homogeneous(), homogeneous())
def test_parity_additive_on_products(a, b):
    prod = a * b
    if not prod.is_zero():
        assert prod.parity() == (a.parity() + b.parity()) % 2


@given(elements())
def test_body_plus_soul_decomposition(e):
    assert as_element(e.body(), N) + e.soul() == e
    assert e.even_part() + e.odd_part() == e


@settings(max_examples=60)
@given(elements())
def test_inverse_round_trip(e):
    one = GrassmannElement.scalar(N, 1)
    if e.body() == 0:
        with pytest.raises(ArithmeticError):
            e.inverse()
    else:
        assert e * e.inverse() == one
        assert e.inverse() * e == one


@given(elements())
def test_json_round_trip(e):
    assert GrassmannElement.from_json(e.to_json()) == e


def test_json_shape():
    x1 = GrassmannElement.generator(2, 1)
    x2 = GrassmannElement.generator(2, 2)
    e = GrassmannElement.scalar(2, Fraction(3, 2)) + 2 * x1 * x2
    assert e.to_json() == {
        "n": 2,
        "terms": [
            {"gens": [], "coeff": "3/2"},
            {"gens": [1, 2], "coeff": "2"},
        ],
    }
    assert GrassmannElement.zero(2).to_json() == {"n": 2, "terms": []}


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 2},
        {"terms": []},
        {"n": -1, "terms": []},
        {"n": 2, "terms": [{"gens": [2, 1], "coeff": "1"}]},
        {"n": 2, "terms": [{"gens": [1, 1], "coeff": "1"}]},
        {"n": 2, "terms": [{"gens": [3], "coeff": "1"}]},
        {"n": 2, "terms": [{"gens": [1], "coeff": "x"}]},
        {"n": 2, "terms": [{"gens": [1]}]},
        "nonsense",
    ],
)
def test_json_rejects_malformed(payload):
    with pytest.raises(FormatError):
        GrassmannElement.from_json(payload)


def test_repr_is_readable():
    x1 = GrassmannElement.generator(2, 1)
    x2 = GrassmannElement.generator(2, 2)
    e = GrassmannElement.scalar(2, Fraction(3, 2)) + 2 * x1 * x2
    assert repr(e) == "3/2 + 2*x1*x2"


def test_generator_count_is_capped():
    # the points workload and the CLI examples use Lambda_10
    assert MAX_GENERATORS >= 10
    assert GrassmannElement.generator(MAX_GENERATORS, MAX_GENERATORS).parity() == 1
    for n in (MAX_GENERATORS + 1, 10**6):
        with pytest.raises(CapExceeded):
            GrassmannElement(n, {1: 1})
        with pytest.raises(CapExceeded):
            GrassmannElement.scalar(n, 1)
        with pytest.raises(CapExceeded):
            GrassmannElement.from_json({"n": n, "terms": [{"gens": [n], "coeff": "1"}]})


def test_constructor_keeps_fraction_coefficients():
    coeff = Fraction(3, 7)
    elem = GrassmannElement(2, {3: coeff, 1: 2, 2: Fraction(0)})
    assert elem.terms == {3: coeff, 1: Fraction(2)}
    assert elem.terms[3] is coeff
    assert type(elem.terms[1]) is Fraction
    with pytest.raises(DimensionError):
        GrassmannElement(2, {4: 1})
    with pytest.raises(DimensionError):
        GrassmannElement(2, {-1: 1})

"""Exact arithmetic in finite Grassmann algebras."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import CapExceeded, DimensionError, FormatError, GrassmannElement, as_element
from superschur.grassmann import MAX_GENERATORS, _sum_of_products

from grassmann_oracles import (
    merge_sign,
    nonzero,
    ref_add,
    ref_mul,
    ref_sum_of_products,
)

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
    def parts(e):
        return [
            GrassmannElement(
                num_generators,
                {m: c for m, c in e.terms.items() if m.bit_count() % 2 == parity},
            )
            for parity in (0, 1)
        ]

    return elements(num_generators).map(parts).flatmap(st.sampled_from)


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
    soul = e - e.body()
    assert soul.body() == 0 and 0 not in soul.terms
    assert as_element(e.body(), N) + soul == e


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
        {"n": 2, "terms": [{"gens": [1], "coeff": "0"}, {"gens": [1], "coeff": "1"}]},
        "nonsense",
    ],
)
def test_json_rejects_malformed(payload):
    with pytest.raises(FormatError):
        GrassmannElement.from_json(payload)


def test_json_builds_the_lowest_terms_form():
    # unreduced and mixed denominators, alone and together
    coeffs = {0: "2/4", 1: "-6/9", 2: "1/3", 3: "5"}
    for masks in ([0], [1], [2], [3], [0, 1, 2, 3]):
        wire = [{"gens": [i + 1 for i in range(2) if m >> i & 1], "coeff": coeffs[m]} for m in masks]
        parsed = GrassmannElement.from_json({"n": 2, "terms": wire})
        built = GrassmannElement(2, {m: Fraction(coeffs[m]) for m in masks})
        assert (parsed._den, parsed._num, hash(parsed)) == (built._den, built._num, hash(built))
    for zero in ("0", "0/7", "-0", 0):
        parsed = GrassmannElement.from_json({"n": 1, "terms": [{"gens": [1], "coeff": zero}]})
        assert (parsed._den, parsed._num) == (1, {})


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


def test_json_refuses_exponent_strings():
    # "1e5" comes first: were exponents accepted again, the test fails on it
    # before Fraction is asked to expand the huge forms
    for coeff in ("1e5", "2E3", "1/1e2", "1e999999999", "1e-999999999"):
        with pytest.raises(FormatError, match="exponent"):
            GrassmannElement.from_json(
                {"n": 1, "terms": [{"gens": [1], "coeff": coeff}]}
            )


# --- a plain {mask: Fraction} reference ---------------------------------------


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_inverse(a, num_generators):
    u = a.get(0, Fraction(0))
    t = {m: -c / u for m, c in a.items() if m}
    acc, power = {0: Fraction(1)}, {0: Fraction(1)}
    for _ in range(num_generators):
        power = ref_mul(power, t)
        acc = ref_add(acc, power)
    return {m: c / u for m, c in acc.items()}


def ref_json(a, num_generators):
    return {
        "n": num_generators,
        "terms": [
            {"gens": [i + 1 for i in range(num_generators) if m >> i & 1], "coeff": str(a[m])}
            for m in sorted(a, key=lambda m: (m.bit_count(), m))
        ],
    }


def assert_canonical(e):
    """Int numerators over one positive denominator, in lowest terms."""
    assert type(e._den) is int and e._den > 0
    assert all(type(c) is int and c for c in e._num.values())
    assert gcd(e._den, *e._num.values()) == 1


def assert_matches(e, ref, num_generators):
    assert_canonical(e)
    expected = GrassmannElement(num_generators, ref)
    assert e.terms == ref
    assert e == expected and hash(e) == hash(expected)
    assert e.to_json() == ref_json(ref, num_generators)


@st.composite
def reference_triples(draw):
    """N <= 6 and three {mask: Fraction} dicts whose coefficients have
    denominators, including negative ones and shared factors."""
    num_generators = draw(st.integers(min_value=0, max_value=6))
    coeffs = st.builds(
        Fraction,
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=1, max_value=12),
    )
    masks = st.integers(min_value=0, max_value=(1 << num_generators) - 1)
    terms = st.dictionaries(masks, coeffs, max_size=6).map(nonzero)
    return num_generators, draw(terms), draw(terms), draw(terms)


@settings(max_examples=150, deadline=None)
@given(reference_triples())
def test_integer_form_matches_fraction_reference(triple):
    n, ra, rb, rc = triple
    a, b, c = (GrassmannElement(n, r) for r in (ra, rb, rc))
    for e, r in ((a, ra), (b, rb), (c, rc)):
        assert_matches(e, r, n)
    ab = a * b
    assert_matches(ab, ref_mul(ra, rb), n)
    assert_matches(ab * c, ref_mul(ref_mul(ra, rb), rc), n)
    assert_matches(a + b, ref_add(ra, rb), n)
    assert_matches(ab + c, ref_add(ref_mul(ra, rb), rc), n)
    assert_matches(a - b, ref_add(ra, ref_neg(rb)), n)
    assert_matches(-ab, ref_neg(ref_mul(ra, rb)), n)
    assert_matches(a - a, {}, n)
    mixed, r_mixed = ab + c, ref_add(ref_mul(ra, rb), rc)
    for e, r in ((a, ra), (mixed, r_mixed)):
        if r.get(0):
            assert_matches(e.inverse(), ref_inverse(r, n), n)
            assert_matches((-e).inverse(), ref_neg(ref_inverse(r, n)), n)
        else:
            with pytest.raises(ArithmeticError):
                e.inverse()
        assert (e.body(), e.is_zero()) == (r.get(0, Fraction(0)), not r)
    for scalar in (3, Fraction(-5, 6), 0):
        assert_matches(a * scalar, ref_mul(ra, nonzero({0: Fraction(scalar)})), n)
        assert_matches(scalar + a, ref_add(ra, nonzero({0: Fraction(scalar)})), n)
    assert (a == b) == (ra == rb)
    assert (a == ra.get(0, 0)) == (set(ra) <= {0})


def test_negative_body_inverse_keeps_a_positive_denominator():
    x1 = GrassmannElement.generator(2, 1)
    x2 = GrassmannElement.generator(2, 2)
    e = GrassmannElement.scalar(2, Fraction(-3, 4)) + Fraction(1, 2) * x1 * x2
    inv = e.inverse()
    assert_canonical(inv)
    assert inv.terms == {0: Fraction(-4, 3), 3: Fraction(-8, 9)}
    assert e * inv == 1


def test_sums_and_products_cancel_common_factors():
    x1 = GrassmannElement.generator(2, 1)
    half = GrassmannElement(2, {0: Fraction(1, 2), 1: Fraction(3, 2)})
    for e, terms in (
        (half + half, {0: Fraction(1), 1: Fraction(3)}),
        (half * 2, {0: Fraction(1), 1: Fraction(3)}),
        (half - Fraction(1, 2), {1: Fraction(3, 2)}),
        (half * x1 * 4, {1: Fraction(2)}),
    ):
        assert_canonical(e)
        assert e.terms == terms
    assert GrassmannElement(2, {0: Fraction(2, 4)}) == Fraction(1, 2)
    assert_canonical(GrassmannElement.zero(3))
    assert GrassmannElement.zero(3)._den == 1


def test_prefix_parity_matches_its_definition():
    # the kernel's inline prefix parity, on every mask at the generator cap:
    # each of the 2^16 monomials times x_j lands on its own monomial, so
    # each coefficient of the product is the merge sign of that monomial
    n = MAX_GENERATORS
    every = GrassmannElement(n, {m: 1 for m in range(1 << n)})
    for j in range(n):
        bit = 1 << j
        product = _sum_of_products(n, [(every, GrassmannElement(n, {bit: 1}))])
        assert product._den == 1
        assert product._num == {m | bit: merge_sign(m, bit) for m in range(1 << n) if not m & bit}


def test_merge_signs_match_the_crossing_count():
    # every ordered pair of disjoint masks on 6 generators
    n = 6
    for m1 in range(1 << n):
        left = GrassmannElement(n, {m1: 1})
        for m2 in range(1 << n):
            if not m1 & m2:
                product = left * GrassmannElement(n, {m2: 1})
                assert product.terms == {m1 | m2: merge_sign(m1, m2)}
    # and sampled disjoint pairs at the generator cap, where every shift
    # step of the prefix parity counts
    rng = random.Random(16)
    n = MAX_GENERATORS
    for _ in range(2000):
        m1 = rng.getrandbits(n)
        m2 = rng.getrandbits(n) & ~m1
        product = GrassmannElement(n, {m1: 1}) * GrassmannElement(n, {m2: 1})
        assert product.terms == {m1 | m2: merge_sign(m1, m2)}


# --- the multiply-accumulate kernel ------------------------------------------


def mixed_elements(num_generators, parity=None):
    """Elements of Lambda_N whose coefficients have assorted denominators,
    optionally of one parity."""
    coeffs = st.builds(
        Fraction,
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=1, max_value=12),
    )
    masks = st.integers(min_value=0, max_value=(1 << num_generators) - 1)
    if parity is not None:
        masks = masks.filter(lambda m: m.bit_count() % 2 == parity)
    return st.dictionaries(masks, coeffs, max_size=5).map(
        lambda terms: GrassmannElement(num_generators, terms)
    )


@st.composite
def kernel_cases(draw):
    """N <= 6, up to five (x, y) pairs and a start that may be None."""
    n = draw(st.integers(min_value=0, max_value=6))
    element = mixed_elements(n)
    pairs = draw(st.lists(st.tuples(element, element), max_size=5))
    return n, pairs, draw(st.none() | element)


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_sum_of_products_matches_term_by_term_reference(case):
    n, pairs, start = case
    assert_matches(_sum_of_products(n, pairs, start), ref_sum_of_products(pairs, start), n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), mixed_elements(n, parity=1), mixed_elements(n, parity=1))
))
def test_sum_of_products_keeps_odd_factors_in_order(case):
    n, x, y = case
    xy = _sum_of_products(n, [(x, y)])
    assert xy == -(y * x)
    assert_matches(xy, ref_mul(x.terms, y.terms), n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), mixed_elements(n), mixed_elements(n))
))
def test_sum_of_products_cancels_to_the_canonical_zero(case):
    n, x, y = case
    zero = GrassmannElement.zero(n)
    for total in (
        _sum_of_products(n, [(x, y), (-x, y)]),
        _sum_of_products(n, [(x, -y)], x * y),
        _sum_of_products(n, [(x, y)], -(x * y)),
    ):
        assert total == zero and hash(total) == hash(zero)
        assert total._den == 1 and not total._num


def test_sum_of_products_of_no_pairs():
    start = GrassmannElement(3, {0: Fraction(1, 6), 5: Fraction(-4, 9)})
    assert _sum_of_products(3, [], start) == start
    empty = _sum_of_products(3, [])
    assert empty == GrassmannElement.zero(3) and empty._den == 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=6).flatmap(lambda n: st.tuples(st.just(n), mixed_elements(n))),
    st.one_of(
        st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-6, 4)]),
        st.integers(min_value=-50, max_value=50),
        st.fractions(min_value=-20, max_value=20, max_denominator=30),
    ),
)
def test_rational_times_element_matches_the_kernel(case, s):
    n, e = case
    kernel = _sum_of_products(n, [(GrassmannElement.scalar(n, s), e)])
    for product in (s * e, e * s):
        assert_matches(product, ref_mul(nonzero({0: Fraction(s)}), e.terms), n)
        assert (product._num, product._den) == (kernel._num, kernel._den)
    if not s:
        assert (s * e)._den == 1 and not (s * e)._num
        assert 0 * e == GrassmannElement.zero(n)

"""Acceptance criteria: one test per criterion, each with its runtime budget.

Every equality below is exact rational or Grassmann arithmetic; there are no
tolerances anywhere.  Each test measures its own wall time and fails if it
exceeds the stated budget, so `pytest -v` shows one pass/fail line per
criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from superschur import (
    GrassmannElement,
    SuperDim,
    SuperMatrix,
    TensorOperator,
    adjacent_decomposition,
    algebra_generated,
    basis_words,
    berezinian,
    centralizer,
    count_ssyt,
    count_syt,
    derivation_operator,
    diagonal_operator,
    double_centralizer_report,
    enumerate_ssyt,
    ldu_factor,
    operator_from_transpositions,
    partitions,
    point_derivation_operator,
    random_gl_point,
    superbracket,
    supertrace,
    transposition_operator,
    transvection,
    word_index,
)

from perm_oracles import all_perms, cycle_decomposition
from tableau_oracles import enumerate_syt


class Budget:
    def __init__(self, limit_seconds: float):
        self.limit = limit_seconds
        self.start = time.monotonic()

    def done(self, label: str):
        elapsed = time.monotonic() - self.start
        print(f"PASS {label} ({elapsed:.2f}s, budget {self.limit:.0f}s)")
        assert elapsed < self.limit, f"{label} took {elapsed:.2f}s"


def elementary_pairs(dim):
    for i in range(1, dim.size + 1):
        for j in range(1, dim.size + 1):
            yield i, j, SuperMatrix.elementary(dim, i, j)


def test_criterion_1_worked_example_fillings():
    budget = Budget(1.0)
    assert enumerate_ssyt((2,), 1, 1) == [((1, 1),), ((1, 2),)]
    assert enumerate_ssyt((1, 1), 1, 1) == [((1,), (2,)), ((2,), (2,))]
    assert count_ssyt((2,), 1, 1) == 2
    assert count_ssyt((1, 1), 1, 1) == 2
    budget.done("criterion 1: (1|1) degree-2 shapes each have exactly 2 fillings")


def test_criterion_2_dimension_identity_by_enumeration():
    budget = Budget(30.0)
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for r in range(1, 6):
            left = 0
            for shape in partitions(r):
                left += len(enumerate_syt(shape)) * len(enumerate_ssyt(shape, m, n))
            right = sum(
                1 for _ in itertools.product(range(m + n), repeat=r)
            )
            assert left == right == (m + n) ** r, (m, n, r, left, right)
    budget.done("criterion 2: sum syt*ssyt = (m+n)^r for four (m,n), r <= 5")


def test_criterion_3_double_centralizer():
    budget = Budget(300.0)
    expected = {
        (1, 1, 2): (2, 8),
        (1, 1, 3): (6, 12),
        (2, 1, 2): (2, 41),
        (2, 0, 2): (2, 10),
        (2, 0, 3): (5, 20),
        (2, 1, 3): (6, 129),
        (2, 2, 3): (6, 688),
    }
    for (m, n, r), (dim_tau, dim_theta) in expected.items():
        report = double_centralizer_report(m, n, r)
        assert report["double_centralizer"] is True, (m, n, r, report)
        assert report["multiplicity_identity"] is True, (m, n, r)
        assert report["dim_tau"] == dim_tau, (m, n, r, report["dim_tau"])
        assert report["dim_theta"] == dim_theta, (m, n, r, report["dim_theta"])
        tau_sum = sum(
            count_syt(shape) ** 2
            for shape in partitions(r)
            if count_ssyt(shape, m, n) > 0
        )
        theta_sum = sum(count_ssyt(shape, m, n) ** 2 for shape in partitions(r))
        assert (dim_tau, dim_theta) == (tau_sum, theta_sum)

    # one structural spot check through the primitives themselves
    dim = SuperDim(1, 1)
    taus = [transposition_operator(dim, 2, 1, 2)]
    thetas = [derivation_operator(x, 2) for _, _, x in elementary_pairs(dim)]
    assert centralizer(dim, 2, taus).equals(algebra_generated(dim, 2, thetas))
    assert centralizer(dim, 2, thetas).equals(algebra_generated(dim, 2, taus))
    budget.done("criterion 3: mutual centralizers with matching dims, seven configs")


def test_criterion_4_derivation_homomorphism_and_sign_arbiter():
    budget = Budget(30.0)
    for m, n in ((1, 1), (2, 1)):
        dim = SuperDim(m, n)
        elems = list(elementary_pairs(dim))
        for r in (1, 2, 3):
            inclusive_broken = False
            for (i, j, x), (k, l, y) in itertools.product(elems, repeat=2):
                px = (dim.parity(i) + dim.parity(j)) % 2
                py = (dim.parity(k) + dim.parity(l)) % 2
                bracket = superbracket(x, y)
                lhs = derivation_operator(bracket, r)
                a = derivation_operator(x, r)
                b = derivation_operator(y, r)
                rhs = a * b + b * a if (px * py) % 2 else a * b - b * a
                assert lhs == rhs, (m, n, r, i, j, k, l)
                lhs_i = derivation_operator(bracket, r, odd_count="inclusive")
                a_i = derivation_operator(x, r, odd_count="inclusive")
                b_i = derivation_operator(y, r, odd_count="inclusive")
                rhs_i = a_i * b_i + b_i * a_i if (px * py) % 2 else a_i * b_i - b_i * a_i
                if lhs_i != rhs_i:
                    inclusive_broken = True
            assert inclusive_broken, (m, n, r)
    budget.done(
        "criterion 4: bracket homomorphism holds exclusively, fails inclusively"
    )


def test_criterion_5_permutation_action_well_defined():
    budget = Budget(30.0)
    dim = SuperDim(1, 1)

    def oracle(word, sigma):
        r = len(sigma)
        image = tuple(word[sigma[k] - 1] for k in range(r))
        exponent = sum(
            1
            for a in range(r)
            for b in range(a + 1, r)
            if sigma[a] > sigma[b]
            and dim.parity(word[sigma[a] - 1])
            and dim.parity(word[sigma[b] - 1])
        )
        return (-1) ** exponent, image

    for r in (3, 4):
        words = basis_words(dim, r)
        for sigma in all_perms(r):
            adjacent = operator_from_transpositions(dim, r, adjacent_decomposition(sigma))
            cycles = operator_from_transpositions(dim, r, cycle_decomposition(sigma))
            assert adjacent == cycles, sigma
            for word in words:
                column = adjacent.cols[word_index(dim, word)]
                sign, image = oracle(word, sigma)
                hits = {idx: c for idx, c in column.items() if c}
                assert hits == {word_index(dim, image): Fraction(sign)}, (sigma, word)
    budget.done(
        "criterion 5: tau decomposition-independent and matches the sign oracle"
    )


def test_criterion_6_group_algebra_linkage():
    budget = Budget(60.0)
    configs = ((1, 1, 2), (1, 1, 3), (2, 1, 2))
    N = 2
    alphas = [GrassmannElement.generator(N, 1), GrassmannElement.generator(N, 2)]
    for m, n, r in configs:
        dim = SuperDim(m, n)
        ident = TensorOperator.identity(dim, r, N)
        for i in range(1, dim.size + 1):
            for j in range(1, dim.size + 1):
                if i == j or (dim.parity(i) + dim.parity(j)) % 2 == 0:
                    continue
                elementary = SuperMatrix.elementary(dim, i, j)
                for alpha in alphas:
                    rho = diagonal_operator(transvection(dim, i, j, alpha, N), r)
                    assert rho == ident + point_derivation_operator(
                        elementary, alpha, r
                    ), (m, n, r, i, j)

    pair_counts = {(1, 1, 2): 8, (1, 1, 3): 6, (2, 1, 2): 6}
    total = 0
    for (m, n, r), count in pair_counts.items():
        dim = SuperDim(m, n)
        rng = random.Random(60 + r + dim.size)
        for _ in range(count):
            g = random_gl_point(rng, dim, 4)
            h = random_gl_point(rng, dim, 4)
            assert diagonal_operator(g, r) * diagonal_operator(h, r) == diagonal_operator(g * h, r)
            total += 1
    assert total == 20
    budget.done(
        "criterion 6: rho(E_ij(alpha)) = id + theta-point, rho multiplicative on 20 pairs"
    )


def test_criterion_7_berezinian():
    budget = Budget(60.0)
    N = 4
    one = GrassmannElement.scalar(N, 1)
    for m, n in ((1, 1), (2, 1)):
        dim = SuperDim(m, n)
        rng = random.Random(700 + dim.size)
        for _ in range(50):
            g = random_gl_point(rng, dim, N)
            h = random_gl_point(rng, dim, N)
            assert berezinian(g * h) == berezinian(g) * berezinian(h)

        odd_values = [GrassmannElement.generator(N, 1), GrassmannElement.generator(N, 2)]
        even_values = [GrassmannElement.scalar(N, 3), GrassmannElement.monomial(N, (1, 2))]
        for i in range(1, dim.size + 1):
            for j in range(1, dim.size + 1):
                if i == j:
                    continue
                slot_odd = (dim.parity(i) + dim.parity(j)) % 2 == 1
                for value in odd_values if slot_odd else even_values:
                    assert berezinian(transvection(dim, i, j, value, N)) == one

        for (i, j, x), (k, l, y) in itertools.product(list(elementary_pairs(dim)), repeat=2):
            assert supertrace(superbracket(x, y)) == 0
    budget.done(
        "criterion 7: Ber multiplicative on 50 pairs twice, Ber(E)=1, str kills brackets"
    )


def test_criterion_8_ldu_reconstruction():
    budget = Budget(30.0)
    for m, n in ((1, 1), (2, 1), (2, 2)):
        dim = SuperDim(m, n)
        rng = random.Random(800 + dim.size)
        for _ in range(50):
            g = random_gl_point(rng, dim, 4)
            upper, blockdiag, lower = ldu_factor(g)
            assert upper * blockdiag * lower == g
    budget.done("criterion 8: LDU reconstructs 50 seeded GL points per (m,n)")


def test_criterion_9_no_one_dimensional_representations():
    budget = Budget(30.0)
    for m in (1, 2):
        for n in (1, 2):
            for r in range(1, 7):
                for shape in partitions(r):
                    count = count_ssyt(shape, m, n)
                    if count > 0:
                        assert count >= 2, (m, n, shape, count)
    for r in range(1, 7):
        assert count_ssyt((r,), 1, 0) == 1
    budget.done(
        "criterion 9: admissible shapes always admit >= 2 fillings when n >= 1"
    )

"""Independent Grassmann oracles for the tests: products and sums over plain
{mask: Fraction} dicts, one term at a time, with the merge sign counted
crossing by crossing.  The package merges monomials by a prefix-parity mask
and sums whole products in one kernel, so neither is checked against
itself.
"""

from fractions import Fraction


def merge_sign(left_mask, right_mask):
    # number of pairs (i in left, j in right) with i > j, i.e. crossings
    # when the concatenation is re-sorted
    crossings = 0
    j = right_mask
    while j:
        low = j & -j
        crossings += (left_mask >> low.bit_length()).bit_count()
        j ^= low
    return -1 if crossings & 1 else 1


def nonzero(terms):
    return {m: c for m, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return nonzero(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if not m1 & m2:
                merged = m1 | m2
                out[merged] = out.get(merged, Fraction(0)) + c1 * c2 * merge_sign(m1, m2)
    return nonzero(out)


def ref_sum_of_products(pairs, start=None):
    """start + x1*y1 + x2*y2 + ... for Grassmann elements, as {mask: Fraction}:
    each product formed left factor first and added on, one at a time."""
    acc = {} if start is None else dict(start.terms)
    for x, y in pairs:
        acc = ref_add(acc, ref_mul(x.terms, y.terms))
    return acc


def ref_matrix_product(a, b):
    """Row-by-column product of square matrices of Grassmann elements, as
    rows of {mask: Fraction}."""
    side = len(a)
    return [
        [ref_sum_of_products([(a[i][k], b[k][j]) for k in range(side)]) for j in range(side)]
        for i in range(side)
    ]

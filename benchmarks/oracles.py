"""Independent arithmetic the benchmark checks superschur's outputs against.

Nothing here imports superschur: Grassmann elements are plain
``{mask: Fraction}`` dicts, matrices are lists of lists, and the tableau
counts come from the hook-length formula and brute-force enumeration.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# --- Grassmann algebra on plain dicts -----------------------------------------


def g_mul(a: dict, b: dict) -> dict:
    """Product in the Grassmann algebra; a sign for each generator of ``a``
    that has to move right past a smaller generator of ``b``."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            swaps = sum(
                1
                for i in range(ma.bit_length())
                if ma >> i & 1
                for j in range(i)
                if mb >> j & 1
            )
            c = ca * cb if swaps % 2 == 0 else -ca * cb
            total = out.get(ma | mb, 0) + c
            if total:
                out[ma | mb] = total
            else:
                out.pop(ma | mb, None)
    return out


def g_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        total = out.get(m, 0) + c
        if total:
            out[m] = total
        else:
            out.pop(m, None)
    return out


def g_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def g_scalar(value) -> dict:
    value = Fraction(value)
    return {0: value} if value else {}


def mat_mul(a: list, b: list) -> list:
    size = len(b)
    return [
        [
            _sum_elems(g_mul(row[k], b[k][j]) for k in range(size))
            for j in range(len(b[0]))
        ]
        for row in a
    ]


def _sum_elems(elems) -> dict:
    out: dict = {}
    for e in elems:
        out = g_add(out, e)
    return out


def element_to_wire(elem: dict, n: int) -> dict:
    terms = [
        {"gens": [i + 1 for i in range(n) if mask >> i & 1], "coeff": str(c)}
        for mask, c in sorted(elem.items())
    ]
    return {"n": n, "terms": terms}


def element_from_wire(data: dict, n: int) -> dict:
    if data["n"] != n:
        raise ValueError(f"element over Lambda_{data['n']}, wanted Lambda_{n}")
    out = {}
    for term in data["terms"]:
        mask = sum(1 << (i - 1) for i in term["gens"])
        if mask in out:
            raise ValueError("duplicate monomial")
        coeff = Fraction(term["coeff"])
        if coeff:
            out[mask] = coeff
    return out


def matrix_to_wire(rows: list, m: int, n: int, gn: int) -> dict:
    return {
        "m": m,
        "n": n,
        "ring": "grassmann",
        "grassmann_n": gn,
        "entries": [[element_to_wire(e, gn) for e in row] for row in rows],
    }


def matrix_from_wire(data: dict, gn: int) -> list:
    if data["ring"] != "grassmann" or data["grassmann_n"] != gn:
        raise ValueError("factor over an unexpected ring")
    return [[element_from_wire(e, gn) for e in row] for row in data["entries"]]


# --- rational determinants ------------------------------------------------------


def permutation_det(rows: list) -> Fraction:
    """Leibniz expansion: slow, obviously right, fine up to 3x3."""
    size = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b]
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


# --- tableaux ---------------------------------------------------------------------


def partitions(r: int, largest: int | None = None):
    largest = r if largest is None else largest
    if r == 0:
        yield ()
        return
    for first in range(min(r, largest), 0, -1):
        for rest in partitions(r - first, first):
            yield (first,) + rest


def hook_length_count(shape: tuple) -> int:
    """Number of standard fillings, f_lambda, by the hook-length formula."""
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conjugate[j] - i - 1) + 1
    return math.factorial(sum(shape)) // hooks


def hook_admissible(shape: tuple, m: int, n: int) -> bool:
    """Berele-Regev hook condition: lambda_{m+1} <= n."""
    return len(shape) <= m or shape[m] <= n


def valid_super_filling(filling: tuple, m: int) -> bool:
    """Even letters 1..m weakly increase along rows and strictly down
    columns; odd letters m+1.. strictly along rows and weakly down columns;
    every even letter sits before and above every odd one in its row and
    column (the even letters form a subdiagram)."""
    for i, row in enumerate(filling):
        for j, s in enumerate(row):
            if j + 1 < len(row):
                right = row[j + 1]
                if s > right or (s == right and s > m):
                    return False
            if i + 1 < len(filling) and j < len(filling[i + 1]):
                below = filling[i + 1][j]
                if s > below or (s == below and s <= m):
                    return False
    return True


def brute_force_fillings(shape: tuple, m: int, n: int) -> set:
    """Every semistandard filling, by trying all (m+n)^|shape| fillings."""
    out = set()
    cells = sum(shape)
    for letters in itertools.product(range(1, m + n + 1), repeat=cells):
        rows, at = [], 0
        for width in shape:
            rows.append(letters[at : at + width])
            at += width
        filling = tuple(rows)
        if valid_super_filling(filling, m):
            out.add(filling)
    return out


def sum_of_squares_dim_theta(m: int, n: int, r: int) -> Fraction:
    """dim of the centralizer of tau: (1/r!) sum_sigma prod over the cycles of
    sigma of (m + (-1)^(len-1) n)^2."""
    total = 0
    for sigma in itertools.permutations(range(r)):
        seen = [False] * r
        term = 1
        for start in range(r):
            if seen[start]:
                continue
            length, k = 0, start
            while not seen[k]:
                seen[k] = True
                k = sigma[k]
                length += 1
            term *= (m + (-1) ** (length - 1) * n) ** 2
        total += term
    return Fraction(total, math.factorial(r))


# --- signed permutations ------------------------------------------------------------


def signed_place_permutation(word: tuple, sigma: tuple, m: int) -> tuple[int, tuple]:
    """Closed form: image[k] = word[sigma(k)] with one sign per inversion of
    sigma whose two letters are both odd."""
    image = tuple(word[s - 1] for s in sigma)
    odd_inversions = sum(
        1
        for a, b in itertools.combinations(range(len(sigma)), 2)
        if sigma[a] > sigma[b] and word[sigma[a] - 1] > m and word[sigma[b] - 1] > m
    )
    return (-1 if odd_inversions % 2 else 1), image

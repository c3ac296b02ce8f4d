"""Named verification suites behind the command line's verify subcommand.

Each suite returns a list of check records: plain dicts with at least
"check" and "pass" keys plus enough context to reproduce the run.  Every
comparison is exact; sampled checks take an explicit seed and report it.

A suite forms each elementary object once (E_ij with its parity, each
bracket {E_ij, E_kl}, each theta(E_ij), each Lambda_2 point, each signed
transposition tau(i j)) and the checks that need it read it from one table.
The actions suite decides its two S_r records by the Coxeter presentation of
S_r: O(r^2) products of the transpositions in its table, whatever r is, and
its failure lists name the relations that fail; no permutation operator is
formed, passing or failing.  A product that a loop over ordered pairs reads
at (a, b) and again at (b, a) is formed once too.  The group suite draws its
TRIALS = 5 seeded pairs (g, h) once, and one pass over them feeds every
sampled check.

Nested brackets, theta of a bracket and gl_point(a b, .) of a bracket are
all read from the tables by one linear step, _linear_image.  {E_ij, E_kl} is
a sum c E_e over at most two elementary matrices of one parity, and a linear
image f of it is the sum of c f(E_e) over the entries c the bracket stores,
summed in the shared {column: {row: entry}} layout and compared as such; a
single entry with c = 1 gives f(E_e)'s own map.  So {E_ij, {E_kl, E_st}} is
the sum of c {E_ij, E_e}, theta({E_ij, E_kl}) the sum of c theta(E_e), and
gl_point(a b, {E_ij, E_kl}) the sum of c gl_point(a b, E_e).  The sums are
exact; they equal the dense forms because the bracket is bilinear and theta
and gl_point(a b, .) linear on each parity, which tests/test_suites.py checks
on random rational combinations.

The loops over pairs and triples of elementary matrices are settled once per
orbit of S_m x S_n, the relabelings s of the even letters among themselves
and of the odd letters among themselves.  Such an s keeps every parity, and
so every sign rule: with P_s the unsigned permutation matrix that relabels
each letter (of a word, at r > 1), the true bracket has {sx, sy} = s{x, y},
and each identity checked at s of a tuple is the one at the tuple,
conjugated by P_s.  A check first confirms that its table of elementary
objects is equivariant, the entry at s(key) being P_s (entry at key) P_s^-1,
for one transposition and one long cycle of each parity class, which
generate the group, so it holds for the whole group.  The Jacobi check needs
nothing but the equivariant bracket table, each side being a polynomial in
its entries; the even-rules check also confirms its Lambda_2 points and the
images gl_point(c, E_e); the actions suite confirms theta(E_ij) and forms
brackets only at the tuples it searches, superbracket being under test in
the bracket suite.  Relabeling a tuple relabels both sides of the identity
at it, so when every orbit representative holds, every tuple does: the
representatives are the tuples whose letters of each parity first appear in
increasing order from the first of their class, and the theta and even-rules
checks take one pair per orbit of unordered pairs, in both orders, so the
two products of a pair are formed once.  The proof assumes one property of
the exact sparse kernel (supermatrix._Sparse): its product commutes with a
simultaneous relabeling of rows and columns, that is with conjugation by an
unsigned permutation matrix, as an exact product does.

Each of the three checks has one search, given the tuples to search and
first_only, and _settled holds the policy: with equivariant tables it
searches the representatives for a first failure, and when there is none the
check passes.  When the group is trivial (m, n <= 1), a table is not
equivariant or a representative fails, the same search runs over every
tuple, drawn lazily in loop order, and lists every failure.  The antisymmetry
and supertrace checks run over every pair: there superbracket and supertrace
are under test.

A SuperMatrix keeps only its nonzero entries, so the bracket table, the
nested brackets and the even-rules check cost the nonzeros they touch.  The
even-rules check multiplies the Lambda_2 points gl_point(a, E_ij)
themselves, so its left side is the ordinary commutator of the realized
points; its right side reads a table of gl_point(c, E_e) over the distinct
coefficients c = a b.

The bracket suite takes no r, and the cap bounds (m+n)^2, the dimension of
gl(m|n), before any of its (m+n)^6 Jacobi triples is formed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .commutant import algebra_generated, centralizer
from .errors import SUITE_NAMES, DimensionError, check_cap
from .grassmann import GrassmannElement
from .supermatrix import (
    SuperDim,
    SuperMatrix,
    berezinian,
    dilation,
    gl_point,
    ldu_factor,
    random_gl_point,
    rational_elementary_factors,
    realize_elementary_factors,
    superbracket,
    supertrace,
    transvection,
)
from .tableaux import dimension_table
from .tensor import (
    TensorOperator,
    derivation_operator,
    diagonal_operator,
    point_derivation_operator,
    transposition_operator,
    transposition_table,
)


def _elementary_pairs(dim: SuperDim):
    """(i, j, E_ij, parity of E_ij) over the (i, j) grid, row by row."""
    for i in range(1, dim.size + 1):
        for j in range(1, dim.size + 1):
            yield i, j, SuperMatrix.elementary(dim, i, j), dim.parity(i) ^ dim.parity(j)


class _Brackets(dict):
    """{(i, j, k, l): {E_ij, E_kl}}, each bracket formed through the
    module-level superbracket when it is first read, from matrix[i, j] =
    E_ij."""

    def __init__(self, matrix: dict):
        super().__init__()
        self.matrix = matrix

    def __missing__(self, key):
        i, j, k, l = key
        self[key] = value = superbracket(self.matrix[i, j], self.matrix[k, l])
        return value


def _bracket_table(elems) -> dict:
    """The brackets of the elementary matrices in elems, each formed when
    first read."""
    return _Brackets({(i, j): x for i, j, x, _ in elems})


def _linear_image(*parts) -> dict:
    """The cols map of the sum of sign * c * image(a, b) over each part
    (sign, x, image) and each entry c that the matrix x stores at (a, b),
    1-based, image(a, b) being an operand: the image of x under the linear
    map that sends E_ab to image(a, b), summed over the parts.  A single
    entry with sign * c = 1 gives image(a, b).cols itself, not a copy."""
    terms = [
        (sign * c, image(a + 1, b + 1).cols)
        for sign, x, image in parts
        for b, col in x.cols.items()
        for a, c in col.items()
    ]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    # a product c * v of nonzeros is nonzero, so only a sum can leave a zero
    out = {}
    cancelled = False
    for c, cols in terms:
        for j, col in cols.items():
            if j not in out:
                out[j] = {i: c * v for i, v in col.items()}
                continue
            acc = out[j]
            for i, v in col.items():
                if i in acc:
                    acc[i] = e = acc[i] + c * v
                    cancelled = cancelled or not e
                else:
                    acc[i] = c * v
    if not cancelled:
        return out
    return {j: kept for j, col in out.items() if (kept := {i: v for i, v in col.items() if v})}


def _each_once(form):
    """form(a, b) for a loop over ordered pairs that reads each product twice,
    at (a, b) and again at (b, a): formed at the first read, dropped at the
    second, so it is formed once and only pairs still waiting are kept."""
    waiting = {}

    def read(a, b):
        if (a, b) in waiting:
            return waiting.pop((a, b))
        waiting[a, b] = value = form(a, b)
        return value

    return read


def _record(name: str, ok: bool, **extra) -> dict:
    out = {"check": name, "pass": bool(ok)}
    out.update(extra)
    return out


# --- relabeling letters by S_m x S_n -------------------------------------------


def _letter_generators(dim: SuperDim) -> list[tuple[int, ...]]:
    """Generators of S_m x S_n, the relabelings of the even letters among
    themselves and the odd letters among themselves, each given as the
    0-based images of the letters 0..m+n-1: per parity class of two or more
    letters the transposition of its first two, and from three letters its
    long cycle too.  Empty when the group is trivial."""
    size = dim.size
    gens = []
    for lo, hi in ((0, dim.m), (dim.m, size)):
        if hi - lo >= 2:
            swap = list(range(size))
            swap[lo], swap[lo + 1] = lo + 1, lo
            gens.append(tuple(swap))
        if hi - lo >= 3:
            gens.append((*range(lo), *range(lo + 1, hi), lo, *range(hi, size)))
    return gens


def _representatives(dim: SuperDim, k: int) -> list[tuple[int, ...]]:
    """One k-tuple of 1-based letters per S_m x S_n orbit: the tuples whose
    even letters first appear in the order 1, 2, ... and whose odd letters in
    the order m+1, m+2, ..., which is the least tuple of each orbit.  Built a
    position at a time, each position taking a letter already used or the
    next unused one of either parity."""
    m, n = dim.m, dim.n
    # the prefixes built so far, grouped by how many even and odd letters
    # they use
    level = {(0, 0): [()]}
    for _ in range(k):
        grown = {}
        for (evens, odds), prefixes in level.items():
            for a in range(1, min(evens + 1, m) + 1):
                grown.setdefault((max(evens, a), odds), []).extend([p + (a,) for p in prefixes])
            for b in range(1, min(odds + 1, n) + 1):
                grown.setdefault((evens, max(odds, b)), []).extend([p + (m + b,) for p in prefixes])
        level = grown
    return [p for prefixes in level.values() for p in prefixes]


def _least_relabeling(m: int, key: tuple) -> tuple:
    """The representative of key's orbit: its letters renumbered in order of
    first appearance within each parity class."""
    evens, odds = {}, {}
    return tuple(
        evens.setdefault(a, len(evens) + 1) if a <= m else odds.setdefault(a, m + len(odds) + 1)
        for a in key
    )


def _pair_representatives(dim: SuperDim) -> list[tuple[int, ...]]:
    """Ordered pairs (i, j, k, l) of elementary matrices E_ij, E_kl that meet
    every S_m x S_n orbit of ordered pairs: per orbit of unordered pairs the
    representative (i, j, k, l) not above that of the swapped (k, l, i, j),
    then that swap unless the two halves are equal, so the two products of
    a pair are read at neighbouring pairs."""
    pairs = []
    for key in _representatives(dim, 4):
        swapped = (*key[2:], *key[:2])
        if key <= _least_relabeling(dim.m, swapped):
            pairs += [key] if key == swapped else [key, swapped]
    return pairs


def _word_permutation(s, r: int) -> list[int]:
    """The index permutation of degree-r words that relabels every letter
    by s (0-based images), words indexed as tensor.word_index numbers them."""
    size = len(s)
    perm = list(s)
    for _ in range(r - 1):
        perm = [p * size + t for p in perm for t in s]
    return perm


def _equivariant(table: dict, s, perm) -> bool:
    """Whether table[s . key] is table[key] relabeled by perm for every key,
    where s (0-based images) relabels each letter of the 1-based key and
    perm sends each basis index of the _Sparse entries to its image: entry
    (i, j) of the one is entry (perm[i], perm[j]) of the other, which is
    P table[key] P^-1 for the unsigned permutation matrix P of perm.  The
    table holds every key that s relabels a key to."""
    letter = (0, *(t + 1 for t in s))
    for key, value in table.items():
        image = table[tuple(map(letter.__getitem__, key))].cols
        relabeled = {perm[j]: {perm[i]: e for i, e in col.items()} for j, col in value.cols.items()}
        if relabeled != image:
            return False
    return True


def _settled(equivariant: bool, representatives, every, search, *args) -> list:
    """The failures search(tuples, *args, first_only=...) lists: [] when the
    tables are equivariant and no orbit representative fails, otherwise
    every failure among the tuples of every, in loop order."""
    if equivariant and not search(representatives, *args, first_only=True):
        return []
    return search(every, *args, first_only=False)


# --- bracket -----------------------------------------------------------------


def _point_coefficients(N: int) -> dict:
    """{parity: coefficients a} at which the bracket suite realizes the
    Lambda_N points a (x) E_ij, for E_ij of that parity."""
    one = GrassmannElement.scalar(N, 1)
    x1 = GrassmannElement.generator(N, 1)
    x2 = GrassmannElement.generator(N, 2)
    return {0: [one, x1 * x2, one + x1 * x2], 1: [x1, x2, x1 + x2]}


def _jacobi_failures(triples, bracket, parity, first_only: bool) -> list:
    """[i, j, k, l, s, t] at the triples of triples where {E_ij, {E_kl,
    E_st}} = {{E_ij, E_kl}, E_st} + sign {E_kl, {E_ij, E_st}} fails, with
    sign = (-1)^{p(E_ij) p(E_kl)} and parity[i, j] = p(E_ij): all of them in
    loop order, or the first.  Each nested bracket is read from the bracket
    table by _linear_image."""
    bad = []
    for i, j, k, l, s, t in triples:
        sign = -1 if parity[i, j] & parity[k, l] else 1
        lhs = _linear_image((1, bracket[k, l, s, t], lambda a, b: bracket[i, j, a, b]))
        rhs = _linear_image(
            (1, bracket[i, j, k, l], lambda a, b: bracket[a, b, s, t]),
            (sign, bracket[i, j, s, t], lambda a, b: bracket[k, l, a, b]),
        )
        if lhs != rhs:
            bad.append([i, j, k, l, s, t])
            if first_only:
                break
    return bad


def _even_rules_failures(pairs, points, coefficient_pairs, bracket, parity, first_only: bool):
    """[i, j, k, l, repr(a), repr(b)] at the pairs of pairs and coefficient
    pairs (a, b) where the ordinary commutator of the points a (x) E_ij and
    b (x) E_kl differs from gl_point(a b, {E_ij, E_kl}), read by
    _linear_image from the table of gl_point(a b, E_e): all of them in loop
    order, or those at the first pair that has any.  coefficient_pairs[px,
    py] lists (ia, ib, a, b, table) for E_ij of parity px and E_kl of parity
    py, a being the ia-th coefficient of points[i, j] and b the ib-th of
    points[k, l].  Each product of two points is formed once."""
    products = _each_once(lambda x, y: [[v * w for w in points[y]] for v in points[x]])
    bad = []
    for i, j, k, l in pairs:
        px, py = parity[i, j], parity[k, l]
        sign = -1 if px & py else 1
        vw, wv = products((i, j), (k, l)), products((k, l), (i, j))
        xy = bracket[i, j, k, l]
        for ia, ib, a, b, images in coefficient_pairs[px, py]:
            right = _linear_image((sign, xy, lambda e, f: images[e, f]))
            if (vw[ia][ib] - wv[ib][ia]).cols != right:
                bad.append([i, j, k, l, repr(a), repr(b)])
        if bad and first_only:
            break
    return bad


def suite_bracket(m: int, n: int, cap: int | None = None) -> list[dict]:
    """Exact identities of the rational bracket and the supertrace.

    Elementary matrices span each homogeneous component, so settling a
    multilinear identity at every elementary tuple settles it.  The
    antisymmetry and supertrace checks run over every pair.  The Jacobi
    check reads its three nested brackets per triple from the table, and
    the even-rules check compares the ordinary commutator of the Lambda_2
    points a (x) E_ij and b (x) E_kl with gl_point(a b, {E_ij, E_kl}), read
    from gl_point(a b, E_e); _linear_image makes both reads.  _settled
    decides each of the two once per S_m x S_n orbit when the table, and for
    the even rules the points and the images, are equivariant (see the
    module docstring).

    The cap bounds (m+n)^2, the dimension of gl(m|n), before the (m+n)^6
    Jacobi triples are formed.
    """
    check_cap(m, n, 2, cap, what=f"gl({m}|{n})")
    dim = SuperDim(m, n)
    elems = list(_elementary_pairs(dim))
    bracket = _bracket_table(elems)

    # Lambda_2 points a (x) E_ij for coefficients a of the parity of E_ij;
    # their ordinary commutators are checked against the even-rules bracket
    # gl_point(a b, {E_ij, E_kl})
    N = 2
    coeffs = _point_coefficients(N)
    points = {(i, j): [gl_point(a, x) for a in coeffs[p]] for i, j, x, p in elems}
    # coefficient_pairs[px, py] lists each pair (a, b) read at E_ij of parity
    # px and E_kl of parity py, with the table of gl_point(a b, E_e) over the
    # E_e of parity px ^ py, realized once per distinct coefficient a b
    realized = {0: {}, 1: {}}
    coefficient_pairs = {}
    for px, py in itertools.product((0, 1), repeat=2):
        table = realized[px ^ py]
        coefficient_pairs[px, py] = []
        for (ia, a), (ib, b) in itertools.product(enumerate(coeffs[px]), enumerate(coeffs[py])):
            c = a * b
            if c not in table:
                table[c] = {(i, j): gl_point(c, x) for i, j, x, p in elems if p == px ^ py}
            coefficient_pairs[px, py].append((ia, ib, a, b, table[c]))
    matrix = bracket.matrix
    trace = _each_once(lambda a, b: supertrace(matrix[a] * matrix[b]))

    bad_anti, bad_sym, bad_str = [], [], []
    for (i, j, _, px), (k, l, _, py) in itertools.product(elems, repeat=2):
        odd = px & py
        xy = bracket[i, j, k, l]
        if xy != bracket[k, l, i, j].scale(1 if odd else -1):
            bad_anti.append([i, j, k, l])
        if trace((i, j), (k, l)) != (-1 if odd else 1) * trace((k, l), (i, j)):
            bad_sym.append([i, j, k, l])
        if supertrace(xy) != 0:
            bad_str.append([i, j, k, l])

    gens = _letter_generators(dim)
    symmetric = bool(gens) and all(_equivariant(bracket, s, s) for s in gens)
    count = len(points[1, 1])  # points per E_ij, the same for either parity
    tables = [{e: row[t] for e, row in points.items()} for t in range(count)]
    tables += [table for part in realized.values() for table in part.values()]
    points_symmetric = symmetric and all(_equivariant(t, s, s) for s in gens for t in tables)
    parity = {(i, j): p for i, j, _, p in elems}
    letters = range(1, dim.size + 1)
    bad_jacobi = _settled(
        symmetric,
        _representatives(dim, 6),
        itertools.product(letters, repeat=6),
        _jacobi_failures,
        bracket,
        parity,
    )
    bad_even = _settled(
        points_symmetric,
        _pair_representatives(dim),
        itertools.product(letters, repeat=4),
        _even_rules_failures,
        points,
        coefficient_pairs,
        bracket,
        parity,
    )

    return [
        _record("bracket_antisymmetry", not bad_anti, m=m, n=n, failures=bad_anti[:3]),
        _record("bracket_jacobi", not bad_jacobi, m=m, n=n, failures=bad_jacobi[:3]),
        _record("supertrace_twisted_symmetry", not bad_sym, m=m, n=n, failures=bad_sym[:3]),
        _record("supertrace_kills_brackets", not bad_str, m=m, n=n, failures=bad_str[:3]),
        _record(
            "even_rules_consistency", not bad_even, m=m, n=n, grassmann_n=N, failures=bad_even[:3]
        ),
    ]


# --- actions -----------------------------------------------------------------


def _theta_failures(pairs, thetas, brackets, parity, first_only: bool) -> list:
    """[i, j, k, l] at the pairs of pairs where theta({E_ij, E_kl}) =
    theta(E_ij) theta(E_kl) -+ theta(E_kl) theta(E_ij) fails, the sign + when
    both are odd (parity[i, j] = p(E_ij)): all of them in loop order, or the
    first.  theta of the bracket is read from the table thetas by
    _linear_image, and each product of two thetas is formed once."""
    times = _each_once(lambda a, b: thetas[a] * thetas[b])
    bad = []
    for i, j, k, l in pairs:
        first, second = times((i, j), (k, l)), times((k, l), (i, j))
        rhs = first + second if parity[i, j] & parity[k, l] else first - second
        if _linear_image((1, brackets[i, j, k, l], lambda a, b: thetas[a, b])) != rhs.cols:
            bad.append([i, j, k, l])
            if first_only:
                break
    return bad


def _coxeter_relations(dim, r: int, taus):
    """(relation, left side, right side) for each relation that makes the
    table taus of signed transpositions tau(i j) an action of S_r, formed
    lazily, one relation at a time.  With s_i = tau(i i+1):
    s_i^2 = 1, s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}, s_i s_j = s_j s_i for
    |i - j| >= 2, and tau(i j) = s_i tau(i+1 j) s_i for j > i + 1."""
    s = {i: taus[i, i + 1] for i in range(1, r)}
    one = TensorOperator.identity(dim, r)
    for i in range(1, r):
        yield ("square", i), s[i] * s[i], one
        if i + 1 < r:
            yield ("braid", i), s[i] * s[i + 1] * s[i], s[i + 1] * s[i] * s[i + 1]
        for j in range(i + 2, r):
            yield ("commute", i, j), s[i] * s[j], s[j] * s[i]
        for j in range(i + 2, r + 1):
            yield ("conjugate", i, j), taus[i, j], s[i] * taus[i + 1, j] * s[i]


def suite_actions(m: int, n: int, r: int, cap: int | None = None) -> list[dict]:
    """The symmetric-group and derivation actions on degree-r words.

    The S_r side is decided by the relations of _coxeter_relations, each
    checked once, at O(r^2) products and with no sample at any r.  The
    square, braid and commute relations present S_r on the s_i, so they
    hold exactly when sigma -> the product of the s_i along a word for sigma
    is a homomorphism: tau_right_action passes when none of them fails.  The
    conjugate relations make each directly built tau(i j) the value at
    (i j), so all the relations hold exactly when any two transposition
    decompositions of any sigma give one operator, adjacent_decomposition
    and a decomposition along the cycles among them (both compose to sigma,
    checked in tests/test_tensor.py): tau_decomposition_independence passes
    when no relation fails.  Each record lists the first three failures it counts,
    such as ["braid", 1] or ["conjugate", 1, 3].

    _settled decides theta_bracket_homomorphism once per S_m x S_n orbit of
    pairs when the table of theta(E_ij) is equivariant (see the module
    docstring).  The inclusive control searches every pair in loop order for
    its first failure, forming the brackets it reads as it goes.
    """
    check_cap(m, n, r, cap)
    dim = SuperDim(m, n)
    taus = transposition_table(dim, r)
    bad = [list(name) for name, lhs, rhs in _coxeter_relations(dim, r, taus) if lhs != rhs]
    presentation = [name for name in bad if name[0] != "conjugate"]
    checks = [
        _record("tau_decomposition_independence", not bad, m=m, n=n, r=r, failures=bad[:3]),
        _record("tau_right_action", not presentation, m=m, n=n, r=r, failures=presentation[:3]),
    ]

    elems = list(_elementary_pairs(dim))
    brackets = _bracket_table(elems)
    parity = {(i, j): p for i, j, _, p in elems}
    letters = range(1, dim.size + 1)
    thetas = {(i, j): derivation_operator(x, r, odd_count="exclusive") for i, j, x, _ in elems}
    gens = _letter_generators(dim)
    symmetric = bool(gens) and all(_equivariant(thetas, s, _word_permutation(s, r)) for s in gens)
    bad = _settled(
        symmetric,
        _pair_representatives(dim),
        itertools.product(letters, repeat=4),
        _theta_failures,
        thetas,
        brackets,
        parity,
    )
    checks.append(
        _record("theta_bracket_homomorphism", not bad, m=m, n=n, r=r, failures=bad[:3])
    )

    if m == 0 or n == 0:
        checks.append(
            _record(
                "theta_inclusive_sign_fails",
                True,
                m=m,
                n=n,
                r=r,
                skipped=True,
                note="no odd elementary matrices, both sign conventions coincide",
            )
        )
    else:
        inclusive = {
            (i, j): derivation_operator(x, r, odd_count="inclusive") for i, j, x, _ in elems
        }
        every = itertools.product(letters, repeat=4)
        bad = _theta_failures(every, inclusive, brackets, parity, first_only=True)
        checks.append(
            _record(
                "theta_inclusive_sign_fails",
                bool(bad),
                m=m,
                n=n,
                r=r,
                witness=bad[0] if bad else None,
            )
        )

    bad = []
    for pos in range(1, r):
        tau = taus[pos, pos + 1]
        for i, j, _, _ in elems:
            th = thetas[i, j]
            if tau * th != th * tau:
                bad.append([pos, i, j])
    checks.append(
        _record("tau_theta_commute", not bad, m=m, n=n, r=r, failures=bad[:3])
    )
    return checks


# --- schurweyl ---------------------------------------------------------------


def symmetric_group_generators(dim: SuperDim, r: int) -> list[TensorOperator]:
    return [transposition_operator(dim, r, i, i + 1) for i in range(1, r)]


def derivation_generators(dim: SuperDim, r: int) -> list[TensorOperator]:
    """theta of the Chevalley generators E_ii, E_i,i+1 and E_i+1,i: 3(m+n) - 2
    operators generating the same algebra as all (m+n)^2 theta(E_ij), hence
    with the same centralizer.

    Every other E_ij is an iterated supercommutator of them (E_ij =
    [E_i,i+1, E_i+1,j] for j > i + 1, and likewise below the diagonal), and
    theta preserves the superbracket, so each theta(E_ij) is a polynomial in
    the Chevalley images.
    """
    size = dim.size
    return [
        derivation_operator(SuperMatrix.elementary(dim, i, j), r)
        for i in range(1, size + 1)
        for j in range(1, size + 1)
        if abs(i - j) <= 1
    ]


def suite_schurweyl(m: int, n: int, r: int, cap: int | None = None) -> list[dict]:
    """Mutual centralizers and the tableaux dimension bookkeeping: the signed
    symmetric-group algebra alg(tau) and the derivation algebra alg(theta)
    centralize each other, the tableaux counts match their two dimensions,
    and sum syt * ssyt is the word count (m+n)^r.

    cent(tau) = alg(theta) and cent(theta) = alg(tau) are decided without
    comparing the spaces.  Once every tau generator commutes with every
    theta generator, alg(theta) lies in cent(tau) and alg(tau) in
    cent(theta); equal dimensions then make both inclusions equalities.  So
    the suite computes both centralizers and the commute check first, and
    only when the generators commute does it close each algebra ``within``
    the other's centralizer.  When they do not, both closures are bounded by
    End(V) only and report the algebras' exact dimensions.
    """
    side = check_cap(m, n, r, cap)
    dim = SuperDim(m, n)
    perm_gens = symmetric_group_generators(dim, r)
    der_gens = derivation_generators(dim, r)
    cent_perm = centralizer(dim, r, perm_gens)
    cent_der = centralizer(dim, r, der_gens)
    commute = all(t * th == th * t for t in perm_gens for th in der_gens)
    perm_algebra = algebra_generated(dim, r, perm_gens, within=cent_der if commute else None)
    der_algebra = algebra_generated(dim, r, der_gens, within=cent_perm if commute else None)
    dim_tau, dim_theta = perm_algebra.dim, der_algebra.dim

    table = dimension_table(m, n, r)
    ok = (
        commute
        and (cent_perm.dim, cent_der.dim) == (dim_theta, dim_tau)
        and dim_tau == sum(row["syt"] ** 2 for row in table if row["admissible"])
        and dim_theta == sum(row["ssyt"] ** 2 for row in table)
    )
    multiplicity_ok = sum(row["syt"] * row["ssyt"] for row in table) == side
    per_shape = [{"shape": row["shape"], "syt": row["syt"], "ssyt": row["ssyt"]} for row in table]
    return [
        _record(
            "double_centralizer",
            ok,
            m=m,
            n=n,
            r=r,
            dim_tau=dim_tau,
            dim_theta=dim_theta,
            double_centralizer=ok,
            multiplicity_identity=multiplicity_ok,
            per_shape=per_shape,
        ),
        _record("multiplicity_identity", multiplicity_ok, m=m, n=n, r=r, total=side),
    ]


# --- group -------------------------------------------------------------------


def _classical_even_part_ok(m: int, n: int, r: int) -> bool:
    """rho(I + E_ij) = P_0 + ... + P_r and P_{r+1} = 0 for every even E_ij,
    where P_0 = I and P_k = P_{k-1} (theta(E_ij) - (k-1) delta_ij I) / k.

    For i != j the sum is exp theta(E_ij); for i = j, P_{r+1} = 0 makes
    theta(E_ii) diagonalizable with eigenvalues in 0..r, and the sum is the
    binomial series 2^theta(E_ii).  Each side is a polynomial in the other,
    by log or by Lagrange, so the group points and the derivations generate
    one rational algebra (the classical unsigned statement), and a rescaled
    rho or theta breaks the identity.
    """
    dim = SuperDim(m, n)
    one = TensorOperator.identity(dim, r)
    for i, j, elem, parity in _elementary_pairs(dim):
        if parity:
            continue
        theta = derivation_operator(elem, r)
        term = total = one
        for k in range(1, r + 2):
            step = theta - one.scale(k - 1) if i == j else theta
            term = (term * step).scale(Fraction(1, k))
            if k <= r:
                total = total + term
        if term.cols or diagonal_operator(SuperMatrix.identity(dim) + elem, r) != total:
            return False
    return True


TRIALS = 5  # seeded pairs (g, h) drawn by the group suite


def _even_invertibles(N: int):
    soul = GrassmannElement.monomial(N, (1, 2))
    return [
        GrassmannElement.scalar(N, 2),
        GrassmannElement.scalar(N, 1) + soul,
        GrassmannElement.scalar(N, Fraction(-3, 2)) + soul,
    ]


def _factored_body(dim: SuperDim, body) -> SuperMatrix:
    """The rational matrix of a block-diagonal body, multiplied back from
    the elementary factors of its two diagonal blocks."""
    m = dim.m
    top = rational_elementary_factors([row[:m] for row in body[:m]])
    bottom = rational_elementary_factors([row[m:] for row in body[m:]])
    return realize_elementary_factors(dim, 0, top) * realize_elementary_factors(dim, m, bottom)


def suite_group(
    m: int, n: int, r: int, grassmann_n: int = 4, seed: int = 0, cap: int | None = None
) -> list[dict]:
    """Group-level checks: Berezinian, factorizations, and the diagonal action.

    The one-parameter linkage ties the diagonal group action to the
    derivation action on one-parameter generators.  Odd generators:
    rho(I + alpha E_ij) = identity + point-derivation for alpha in {x1, x2}.
    Even off-diagonal generators: the same identity for the nilpotent
    alpha = x1 x2.  The even part proper is the identity rho(I + E_ij) =
    sum_k P_k on the rational points of every even one-parameter subgroup
    (see _classical_even_part_ok).

    The TRIALS seeded pairs (g, h) are drawn once and one pass over them
    feeds every sampled check; each product g * h is formed once.
    """
    check_cap(m, n, r, cap)
    if grassmann_n < 2:
        raise DimensionError("need at least two Grassmann generators")
    dim = SuperDim(m, n)
    N = grassmann_n
    alphas = {
        1: [GrassmannElement.generator(N, 1), GrassmannElement.generator(N, 2)],
        0: [GrassmannElement.monomial(N, (1, 2))],
    }
    rho_one = TensorOperator.identity(dim, r, N)
    linked = {0: True, 1: True}
    for i, j, elem, parity in _elementary_pairs(dim):
        if i == j:
            continue
        for alpha in alphas[parity]:
            lhs = diagonal_operator(transvection(dim, i, j, alpha, N), r)
            if lhs != rho_one + point_derivation_operator(elem, alpha, r):
                linked[parity] = False
    classical_ok = _classical_even_part_ok(m, n, r)

    ident = SuperMatrix.identity(dim, N)
    one = GrassmannElement.scalar(N, 1)

    bad_one = []
    odd_values = [GrassmannElement.generator(N, 1), GrassmannElement.generator(N, 2)]
    even_values = [GrassmannElement.scalar(N, 3), GrassmannElement.monomial(N, (1, 2))]
    for i, j, _, slot in _elementary_pairs(dim):
        if i != j:
            for value in odd_values if slot else even_values:
                if berezinian(transvection(dim, i, j, value, N)) != one:
                    bad_one.append([i, j, repr(value)])
    for i in range(1, dim.size + 1):
        for value in _even_invertibles(N):
            want = value if i <= m else value.inverse()
            if berezinian(dilation(dim, i, value, N)) != want:
                bad_one.append([i, i, repr(value)])

    rng = random.Random(seed)
    points = [(random_gl_point(rng, dim, N), random_gl_point(rng, dim, N)) for _ in range(TRIALS)]
    bad_rho, bad_ber, bad_str, bad_gen = [], [], [], []
    bad_ldu = [] if ldu_factor(ident) == (ident, ident, ident) else ["identity"]
    for t, (g, h) in enumerate(points):
        gh = g * h
        if diagonal_operator(g, r) * diagonal_operator(h, r) != diagonal_operator(gh, r):
            bad_rho.append(t)
        if berezinian(gh) != berezinian(g) * berezinian(h):
            bad_ber.append(t)
        if supertrace(gh) != supertrace(h * g):
            bad_str.append(t)
        upper, blockdiag, lower = ldu_factor(g)
        if upper * blockdiag * lower != g:
            bad_ldu.append(t)
        body = g.body_matrix()
        if _factored_body(dim, body) != SuperMatrix(dim, body):
            bad_gen.append(t)

    def sampled(name, bad, **where):
        return _record(name, not bad, **where, seed=seed, trials=TRIALS, failures=bad[:3])

    rho_identity = diagonal_operator(ident, r) == rho_one
    ber_identity = berezinian(ident) == one and berezinian(SuperMatrix.identity(dim)) == 1
    return [
        _record(
            "one_parameter_linkage",
            linked[1] and linked[0] and classical_ok,
            m=m,
            n=n,
            r=r,
            grassmann_n=N,
            odd_generator_identity=linked[1],
            even_nilpotent_identity=linked[0],
            classical_even_part=classical_ok,
        ),
        _record("rho_identity", rho_identity, m=m, n=n, r=r, grassmann_n=N),
        sampled("rho_homomorphism", bad_rho, m=m, n=n, r=r, grassmann_n=N),
        _record("berezinian_identity", ber_identity, m=m, n=n, grassmann_n=N),
        _record(
            "berezinian_one_parameter", not bad_one, m=m, n=n, grassmann_n=N, failures=bad_one[:3]
        ),
        sampled("berezinian_multiplicative", bad_ber, m=m, n=n, grassmann_n=N),
        sampled("supertrace_even_symmetry", bad_str, m=m, n=n, grassmann_n=N),
        sampled("ldu_reconstruction", bad_ldu, m=m, n=n, grassmann_n=N),
        sampled("one_parameter_generation", bad_gen, m=m, n=n),
    ]


def run_suite(
    name: str,
    m: int,
    n: int,
    r: int,
    grassmann_n: int = 4,
    seed: int = 0,
    cap: int | None = None,
) -> list[dict]:
    if name == "bracket":
        return suite_bracket(m, n, cap=cap)
    if name == "actions":
        return suite_actions(m, n, r, cap=cap)
    if name == "schurweyl":
        return suite_schurweyl(m, n, r, cap=cap)
    if name == "group":
        return suite_group(m, n, r, grassmann_n=grassmann_n, seed=seed, cap=cap)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")

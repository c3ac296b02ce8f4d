"""Named verification suites behind the command line's verify subcommand.

Each suite returns a list of check records: plain dicts with at least
"check" and "pass" keys plus enough context to reproduce the run.  Every
comparison is exact; sampled checks take an explicit seed and report it.

A suite forms each elementary object once (E_ij with its parity, each
bracket {E_ij, E_kl}, each theta(E_ij), each Lambda_2 point, each signed
transposition tau(i j)) and the checks that need it read it from one table;
the actions suite reads every link of both decompositions of each sigma from
its table of transpositions.  A product that a loop over ordered pairs reads
at (a, b) and again at (b, a) is formed once too.  The group suite draws its
TRIALS = 5 seeded pairs (g, h) once, and one pass over them feeds every
sampled check.

Nested brackets and theta of a bracket are read from the bracket table by
bilinearity.  {E_ij, E_kl} is a sum c E_e over at most two elementary
matrices of one parity, so {E_ij, {E_kl, E_st}} is the sum of c {E_ij, E_e}
over table entries, and theta({E_ij, E_kl}) the sum of c theta(E_e), which
for a single term with c = 1 is theta(E_e) itself.  Both sums are exact
rational arithmetic, and every elementary tuple is still checked, so the
checks stay exhaustive; they equal the dense forms because the bracket is
bilinear and theta linear on each parity, which tests/test_suites.py checks
on random rational combinations.

A SuperMatrix keeps only its nonzero entries, so the bracket table, the
nested brackets and the even-rules check cost the nonzeros they touch.  The
even-rules check multiplies the Lambda_2 points gl_point(a, E_ij)
themselves, so its left side is the ordinary commutator of the realized
points.  Its right side gl_point(a b, {E_ij, E_kl}) is read by linearity in
the matrix, as the sum of t gl_point(a b, E_e) over the terms t E_e of the
bracket, from a table of gl_point(c, E_e) over the distinct coefficients
c = a b; tests/test_suites.py checks that gl_point is linear in this way.

The bracket suite takes no r, and the cap bounds (m+n)^2, the dimension of
gl(m|n), before any of its (m+n)^6 Jacobi triples is formed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .commutant import algebra_generated, double_centralizer_report
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
from .tensor import (
    TensorOperator,
    adjacent_decomposition,
    all_perms,
    compose,
    cycle_decomposition,
    derivation_operator,
    diagonal_operator,
    operator_from_transpositions,
    point_derivation_operator,
    transposition_table,
)


def _elementary_pairs(dim: SuperDim):
    """(i, j, E_ij, parity of E_ij) over the (i, j) grid, row by row."""
    for i in range(1, dim.size + 1):
        for j in range(1, dim.size + 1):
            yield i, j, SuperMatrix.elementary(dim, i, j), dim.parity(i) ^ dim.parity(j)


def _bracket_table(elems) -> dict:
    """{(i, j, k, l): {E_ij, E_kl}} over every ordered pair of elementary
    matrices, formed through the module-level superbracket."""
    return {
        (i, j, k, l): superbracket(x, y)
        for (i, j, x, _), (k, l, y, _) in itertools.product(elems, repeat=2)
    }


def _bilinear(*parts) -> dict:
    """The sum of sign * c * images[e] over each part (sign, coeffs, images)
    and each item (e, c) of coeffs, where each images[e] is a {key: entry}
    map; returned as such a map with no zero entries."""
    out = {}
    for sign, coeffs, images in parts:
        for e, c in coeffs.items():
            c = sign * c
            for f, v in images[e].items():
                out[f] = out[f] + c * v if f in out else c * v
    return {f: v for f, v in out.items() if v}


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


# --- bracket -----------------------------------------------------------------


def _point_coefficients(N: int) -> dict:
    """{parity: coefficients a} at which the bracket suite realizes the
    Lambda_N points a (x) E_ij, for E_ij of that parity."""
    one = GrassmannElement.scalar(N, 1)
    x1 = GrassmannElement.generator(N, 1)
    x2 = GrassmannElement.generator(N, 2)
    return {0: [one, x1 * x2, one + x1 * x2], 1: [x1, x2, x1 + x2]}


def suite_bracket(m: int, n: int, cap: int | None = None) -> list[dict]:
    """Exact identities of the rational bracket and the supertrace.

    Elementary matrices span each homogeneous component, so exhausting
    elementary tuples settles every multilinear identity checked here.  The
    Jacobi check reads its three nested brackets per triple from the table:
    {E_ij, {E_kl, E_st}} is the sum of c {E_ij, E_e} over the terms c E_e of
    {E_kl, E_st}, and likewise for the other two, compared as maps of
    terms.  The even-rules check compares the ordinary commutator of the
    Lambda_2 points a (x) E_ij and b (x) E_kl with gl_point(a b, {E_ij, E_kl})
    read by linearity from gl_point(a b, E_e).

    The cap bounds (m+n)^2, the dimension of gl(m|n), before the (m+n)^6
    Jacobi triples are formed.
    """
    check_cap(m, n, 2, cap, what=f"gl({m}|{n})")
    dim = SuperDim(m, n)
    elems = list(_elementary_pairs(dim))
    pairs = list(itertools.product(elems, repeat=2))
    bracket = _bracket_table(elems)
    # by_left[i, j][k, l] and by_right[k, l][i, j] are the terms of {E_ij, E_kl}
    by_left = {(i, j): {} for i, j, _, _ in elems}
    by_right = {(i, j): {} for i, j, _, _ in elems}
    for (i, j, k, l), xy in bracket.items():
        by_left[i, j][k, l] = by_right[k, l][i, j] = xy.terms

    # Lambda_2 points a (x) E_ij for coefficients a of the parity of E_ij;
    # their ordinary commutators are checked against the even-rules bracket
    # gl_point(a b, {E_ij, E_kl}), read as the sum of t gl_point(a b, E_e)
    # over the terms t E_e of the bracket
    N = 2
    coeffs = _point_coefficients(N)
    points = {(i, j): [gl_point(a, x) for a in coeffs[p]] for i, j, x, p in elems}
    # coefficient_pairs[px, py] lists each pair (a, b) read at E_ij of parity
    # px and E_kl of parity py, with the terms of gl_point(a b, E_e) for each
    # E_e of parity px ^ py, tabulated once per distinct coefficient a b
    realized = {0: {}, 1: {}}
    coefficient_pairs = {}
    for px, py in itertools.product((0, 1), repeat=2):
        table = realized[px ^ py]
        coefficient_pairs[px, py] = []
        for (ia, a), (ib, b) in itertools.product(enumerate(coeffs[px]), enumerate(coeffs[py])):
            c = a * b
            if c not in table:
                table[c] = {(i, j): gl_point(c, x).terms for i, j, x, p in elems if p == px ^ py}
            coefficient_pairs[px, py].append((ia, ib, a, b, table[c]))
    matrix = {(i, j): x for i, j, x, _ in elems}
    trace = _each_once(lambda a, b: supertrace(matrix[a] * matrix[b]))
    products = _each_once(lambda a, b: [[v * w for w in points[b]] for v in points[a]])

    bad_anti, bad_sym, bad_str, bad_even = [], [], [], []
    for (i, j, x, px), (k, l, y, py) in pairs:
        odd = px & py
        xy = bracket[i, j, k, l]
        if xy != bracket[k, l, i, j].scale(1 if odd else -1):
            bad_anti.append([i, j, k, l])
        if trace((i, j), (k, l)) != (-1 if odd else 1) * trace((k, l), (i, j)):
            bad_sym.append([i, j, k, l])
        if supertrace(xy) != 0:
            bad_str.append([i, j, k, l])
        vw, wv = products((i, j), (k, l)), products((k, l), (i, j))
        for ia, ib, a, b, images in coefficient_pairs[px, py]:
            right = _bilinear((-1 if odd else 1, by_left[i, j][k, l], images))
            if (vw[ia][ib] - wv[ib][ia]).terms != right:
                bad_even.append([i, j, k, l, repr(a), repr(b)])

    bad_jacobi = []
    for (i, j, _, px), (k, l, _, py), (s, t, _, _) in itertools.product(elems, repeat=3):
        of_x, of_y = by_left[i, j], by_left[k, l]
        lhs = _bilinear((1, of_y[s, t], of_x))
        rhs = _bilinear((1, of_x[k, l], by_right[s, t]), (-1 if px & py else 1, of_x[s, t], of_y))
        if lhs != rhs:
            bad_jacobi.append([i, j, k, l, s, t])

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


def _theta_homomorphism(dim, elems, brackets, r: int, odd_count: str, first_only: bool):
    """theta of every elementary matrix under one sign convention, and the
    pairs [i, j, k, l] where theta({E_ij, E_kl}) differs from the graded
    commutator of theta(E_ij) and theta(E_kl): all of them, or the first.

    brackets[i, j, k, l] is {E_ij, E_kl}, and theta of it is read by
    linearity as the sum of c theta(E_ab) over its terms c E_ab, each term
    with c = 1 being theta(E_ab) itself, not a copy.
    """
    thetas = {(i, j): derivation_operator(x, r, odd_count=odd_count) for i, j, x, _ in elems}
    times = _each_once(lambda a, b: thetas[a] * thetas[b])
    zero = TensorOperator.zero(dim, r)
    bad = []
    for (i, j, _, px), (k, l, _, py) in itertools.product(elems, repeat=2):
        parts = [
            thetas[a + 1, b + 1] if c == 1 else thetas[a + 1, b + 1].scale(c)
            for b, col in brackets[i, j, k, l].cols.items()
            for a, c in col.items()
        ]
        lhs = sum(parts[1:], parts[0]) if parts else zero
        first = times((i, j), (k, l))
        second = times((k, l), (i, j))
        if lhs != (first + second if px & py else first - second):
            bad.append([i, j, k, l])
            if first_only:
                break
    return thetas, bad


def suite_actions(m: int, n: int, r: int, seed: int = 0, cap: int | None = None) -> list[dict]:
    """The symmetric-group and derivation actions on degree-r words."""
    check_cap(m, n, r, cap)
    dim = SuperDim(m, n)
    checks = []

    perms = list(all_perms(r))
    taus = transposition_table(dim, r)
    operators = {}
    bad = []
    for sigma in perms:
        via_adjacent = operator_from_transpositions(dim, r, adjacent_decomposition(sigma), taus)
        via_cycles = operator_from_transpositions(dim, r, cycle_decomposition(sigma), taus)
        if via_adjacent != via_cycles:
            bad.append(list(sigma))
        operators[sigma] = via_adjacent
    checks.append(
        _record("tau_decomposition_independence", not bad, m=m, n=n, r=r, failures=bad[:3])
    )

    bad = []
    sampled = None
    if len(perms) <= 24:
        pairs = itertools.product(perms, repeat=2)
    else:
        rng = random.Random(seed)
        sampled = 100
        pairs = ((rng.choice(perms), rng.choice(perms)) for _ in range(sampled))
    for sigma, pi in pairs:
        if operators[sigma] * operators[pi] != operators[compose(sigma, pi)]:
            bad.append([list(sigma), list(pi)])
    extra = {"seed": seed, "sampled_pairs": sampled} if sampled else {}
    checks.append(
        _record("tau_right_action", not bad, m=m, n=n, r=r, failures=bad[:3], **extra)
    )

    elems = list(_elementary_pairs(dim))
    brackets = _bracket_table(elems)
    thetas, bad = _theta_homomorphism(dim, elems, brackets, r, "exclusive", first_only=False)
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
        _, bad = _theta_homomorphism(dim, elems, brackets, r, "inclusive", first_only=True)
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


def suite_schurweyl(m: int, n: int, r: int, cap: int | None = None) -> list[dict]:
    """Mutual centralizers and the tableaux dimension bookkeeping."""
    report = double_centralizer_report(m, n, r, cap=cap)
    first = {"check": "double_centralizer", "pass": report["double_centralizer"]}
    first.update(report)
    second = _record(
        "multiplicity_identity",
        report["multiplicity_identity"],
        m=m,
        n=n,
        r=r,
        total=(m + n) ** r,
    )
    return [first, second]


# --- group -------------------------------------------------------------------


def _classical_even_part_ok(m: int, n: int, r: int) -> bool:
    """The diagonal-block group points and diagonal-block derivations
    generate the same rational algebra (the classical unsigned statement)."""
    dim = SuperDim(m, n)
    group_ops = []
    der_ops = []
    for i, j, elem, parity in _elementary_pairs(dim):
        if parity == 0:
            point = dilation(dim, i, 2) if i == j else transvection(dim, i, j, 1)
            group_ops.append(diagonal_operator(point, r))
            der_ops.append(derivation_operator(elem, r))
    lhs = algebra_generated(dim, r, group_ops)
    rhs = algebra_generated(dim, r, der_ops)
    return lhs.equals(rhs)


def rho_theta_equality_report(
    m: int, n: int, r: int, grassmann_n: int = 4, cap: int | None = None
) -> dict:
    """Check the linkage between the diagonal group action and the
    derivation action on one-parameter generators.

    Odd generators: diagonal(I + alpha e_ij) = identity + point-derivation
    for alpha in {x1, x2}.  Even off-diagonal generators: same identity for
    the nilpotent alpha = x1 x2.  The even part proper is covered by the
    classical algebra equality on rational points.
    """
    check_cap(m, n, r, cap)
    if grassmann_n < 2:
        raise DimensionError("need at least two Grassmann generators")
    dim = SuperDim(m, n)
    N = grassmann_n
    ident = TensorOperator.identity(dim, r, N)
    alphas = {
        1: [GrassmannElement.generator(N, 1), GrassmannElement.generator(N, 2)],
        0: [GrassmannElement.monomial(N, (1, 2))],
    }

    ok = {0: True, 1: True}
    for i, j, elem, parity in _elementary_pairs(dim):
        if i == j:
            continue
        for alpha in alphas[parity]:
            lhs = diagonal_operator(transvection(dim, i, j, alpha, N), r)
            if lhs != ident + point_derivation_operator(elem, alpha, r):
                ok[parity] = False

    classical_ok = _classical_even_part_ok(m, n, r)
    return {
        "m": m,
        "n": n,
        "r": r,
        "grassmann_n": N,
        "odd_generator_identity": ok[1],
        "even_nilpotent_identity": ok[0],
        "classical_even_part": classical_ok,
        "pass": ok[1] and ok[0] and classical_ok,
    }


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

    The TRIALS seeded pairs (g, h) are drawn once and one pass over them
    feeds every sampled check; each product g * h is formed once.
    """
    report = rho_theta_equality_report(m, n, r, grassmann_n=grassmann_n, cap=cap)
    dim = SuperDim(m, n)
    N = grassmann_n
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

    rho_identity = diagonal_operator(ident, r) == TensorOperator.identity(dim, r, N)
    ber_identity = berezinian(ident) == one and berezinian(SuperMatrix.identity(dim)) == 1
    return [
        {"check": "one_parameter_linkage", **report},
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
        return suite_actions(m, n, r, seed=seed, cap=cap)
    if name == "schurweyl":
        return suite_schurweyl(m, n, r, cap=cap)
    if name == "group":
        return suite_group(m, n, r, grassmann_n=grassmann_n, seed=seed, cap=cap)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")

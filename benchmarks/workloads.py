"""The benchmark's workloads: seeded superschur command lines, each paired
with a checker that tests its stdout against ``oracles``.

A workload is a list of ``Op``s, one per command; a pass runs each once in
list order.  The seed fixes every input: the command order, the sampled
permutations, and the GL points fed to ``berezinian`` and ``factor``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O


class WrongOutput(Exception):
    """A command printed something the independent computation disagrees with."""


def expect(cond, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


@dataclass
class Op:
    argv: list
    check: Callable[[str], None]
    stdin: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv[:1] + [a for a in self.argv[1:] if a != "-"])


def json_lines(out: str) -> list:
    return [json.loads(line) for line in out.splitlines()]


# --- schurweyl ----------------------------------------------------------------

SCHURWEYL_CONFIGS = [(1, 1, 2), (1, 1, 3), (1, 1, 4), (2, 1, 2), (1, 2, 2), (2, 0, 3), (3, 0, 2)]


def shape_counts(m: int, n: int, r: int) -> list:
    """(shape, f_lambda, brute-force fillings) for every partition of r."""
    return [
        (shape, O.hook_length_count(shape), O.brute_force_fillings(shape, m, n))
        for shape in O.partitions(r)
    ]


def check_schurweyl(m: int, n: int, r: int, counts: list, out: str) -> None:
    records = json_lines(out)
    expect(len(records) == 2, f"expected 2 records, got {len(records)}")
    first, second = records
    expect(first["check"] == "double_centralizer" and first["pass"] is True, "double_centralizer failed")
    expect(first["double_centralizer"] is True and first["multiplicity_identity"] is True, "report flags false")
    dim_tau = sum(f * f for shape, f, _ in counts if O.hook_admissible(shape, m, n))
    expect(first["dim_tau"] == dim_tau, f"dim_tau {first['dim_tau']} != {dim_tau}")
    dim_theta = O.sum_of_squares_dim_theta(m, n, r)
    expect(first["dim_theta"] == dim_theta, f"dim_theta {first['dim_theta']} != {dim_theta}")
    want = [{"shape": list(s), "syt": f, "ssyt": len(fill)} for s, f, fill in counts]
    expect(first["per_shape"] == want, "per_shape counts disagree with the oracles")
    expect(sum(row["syt"] * row["ssyt"] for row in first["per_shape"]) == (m + n) ** r, "sum syt*ssyt != (m+n)^r")
    expect(second == {"check": "multiplicity_identity", "m": m, "n": n, "pass": True, "r": r, "total": (m + n) ** r}, "multiplicity_identity record")


def check_tableaux_table(m: int, n: int, r: int, counts: list, out: str) -> None:
    lines = out.splitlines()
    expect(lines[0].split() == ["shape", "syt", "ssyt", "admissible"], "table header")
    expect(len(lines) == len(counts) + 2, "table row count")
    for line, (shape, f, fillings) in zip(lines[1:], counts):
        admissible = "yes" if O.hook_admissible(shape, m, n) else "no"
        want = [json.dumps(list(shape), separators=(",", ":")), str(f), str(len(fillings)), admissible]
        expect(line.split() == want, f"table row {line!r} != {want}")
        expect((admissible == "yes") == bool(fillings), "hook condition disagrees with enumeration")
    total = (m + n) ** r
    expect(lines[-1] == f"sum syt*ssyt = {total} = ({m}+{n})^{r} = {total}", "identity line")


def check_tableaux_json(m: int, n: int, r: int, counts: list, out: str) -> None:
    rows = json.loads(out)
    expect(len(rows) == len(counts), "json row count")
    for row, (shape, f, fillings) in zip(rows, counts):
        expect(row["shape"] == list(shape) and row["syt"] == f, f"shape/syt of {row['shape']}")
        expect(row["ssyt"] == len(fillings), f"ssyt of {shape}: {row['ssyt']} != {len(fillings)}")
        expect(row["admissible"] == O.hook_admissible(shape, m, n), f"admissible of {shape}")
        listed = [
            tuple(tuple(int(s[1:]) + (m if s[0] == "u" else 0) for s in line) for line in filling)
            for filling in row["fillings"]
        ]
        expect(len(set(listed)) == len(listed) and set(listed) == fillings, f"fillings of {shape}")


def schurweyl(seed: int) -> tuple[list, Callable]:
    ops = []
    for m, n, r in SCHURWEYL_CONFIGS:
        counts = shape_counts(m, n, r)
        dims = ["-m", str(m), "-n", str(n), "-r", str(r)]
        for argv, checker in (
            (["verify", "schurweyl"] + dims, check_schurweyl),
            (["tableaux"] + dims, check_tableaux_table),
            (["tableaux"] + dims + ["--format", "json", "--list"], check_tableaux_json),
        ):
            ops.append(Op(argv, lambda out, c=checker, a=(m, n, r, counts): c(*a, out)))
    random.Random(seed).shuffle(ops)
    return ops, lambda: None


# --- actions -------------------------------------------------------------------

ACTIONS_CONFIGS = [(1, 1, 3), (1, 1, 4), (2, 1, 2), (2, 1, 3), (2, 2, 2)]
BRACKET_CONFIGS = [(1, 1), (2, 1), (1, 2)]
ACTIONS_CHECKS = [
    "tau_decomposition_independence",
    "tau_right_action",
    "theta_bracket_homomorphism",
    "theta_inclusive_sign_fails",
    "tau_theta_commute",
]
BRACKET_CHECKS = [
    "bracket_antisymmetry",
    "bracket_jacobi",
    "supertrace_twisted_symmetry",
    "supertrace_kills_brackets",
    "even_rules_consistency",
]
SIGN_SAMPLE = 12


def check_records(names: list, fields: dict, out: str) -> list:
    records = json_lines(out)
    expect([rec["check"] for rec in records] == names, f"check names {[rec['check'] for rec in records]}")
    for rec in records:
        expect(rec["pass"] is True, f"{rec['check']} did not pass")
        expect(all(rec.get(k) == v for k, v in fields.items()), f"{rec['check']} reports other sizes")
    return records


def check_actions(m: int, n: int, r: int, out: str) -> None:
    records = check_records(ACTIONS_CHECKS, {"m": m, "n": n, "r": r}, out)
    control = records[ACTIONS_CHECKS.index("theta_inclusive_sign_fails")]
    if m and n:
        expect(not control.get("skipped") and control["witness"], "inclusive-sign control found no witness")


def check_permutation_sample(seed: int) -> None:
    """Compare sampled signed place permutations from the library with the
    closed-form sign, column by column."""
    from superschur.supermatrix import SuperDim
    from superschur.tensor import basis_words, permutation_operator

    rng = random.Random(seed)
    for _ in range(SIGN_SAMPLE):
        m, n, r = rng.choice(ACTIONS_CONFIGS)
        sigma = tuple(rng.sample(range(1, r + 1), r))
        words = basis_words(SuperDim(m, n), r)
        index = {w: i for i, w in enumerate(words)}
        op = permutation_operator(SuperDim(m, n), r, sigma)
        for col, word in enumerate(words):
            sign, image = O.signed_place_permutation(word, sigma, m)
            column = [row[col] for row in op.matrix]
            want = [0] * len(words)
            want[index[image]] = sign
            expect(column == want, f"({m}|{n}) sigma={sigma} word={word}: signed image differs")


def actions(seed: int) -> tuple[list, Callable]:
    ops = []
    for m, n, r in ACTIONS_CONFIGS:
        argv = ["verify", "actions", "-m", str(m), "-n", str(n), "-r", str(r)]
        ops.append(Op(argv, lambda out, a=(m, n, r): check_actions(*a, out)))
    for m, n in BRACKET_CONFIGS:
        argv = ["verify", "bracket", "-m", str(m), "-n", str(n)]
        ops.append(Op(argv, lambda out, a={"m": m, "n": n}: check_records(BRACKET_CHECKS, a, out)))
    random.Random(seed).shuffle(ops)
    return ops, lambda: check_permutation_sample(seed)


# --- points ----------------------------------------------------------------------

POINT_CONFIGS = [(1, 1, 4), (2, 1, 6), (2, 2, 8), (3, 2, 8)]
PAIRS_PER_CONFIG = 10
GROUP_CONFIGS = [(1, 1, 2, 4), (1, 1, 3, 6), (2, 2, 1, 10), (3, 2, 1, 8)]
GROUP_CHECKS = [
    "one_parameter_linkage",
    "rho_identity",
    "rho_homomorphism",
    "berezinian_identity",
    "berezinian_one_parameter",
    "berezinian_multiplicative",
    "supertrace_even_symmetry",
    "ldu_reconstruction",
    "one_parameter_generation",
]


def random_rational_invertible(rng, size: int) -> list:
    while True:
        rows = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))) for _ in range(size)] for _ in range(size)]
        if O.permutation_det(rows):
            return rows


def random_odd(rng, pattern, gn: int) -> dict:
    """One or two odd monomials (degree 1 or 3) with coefficients +-1, +-2.
    The monomials come from ``pattern``, the coefficients from ``rng``."""
    out: dict = {}
    for _ in range(pattern.randint(1, 2)):
        mask = sum(1 << i for i in pattern.sample(range(gn), pattern.choice((1, 1, 3))))
        out = O.g_add(out, {mask: Fraction(rng.choice((-2, -1, 1, 2)))})
    return out


@dataclass
class Point:
    """g = U diag(X, W) L with U, L unipotent with odd off-diagonal blocks."""

    m: int
    n: int
    gn: int
    rows: list
    berezinian: Fraction  # det X / det W, from the Fraction determinants
    supertrace: dict

    def wire(self) -> str:
        return json.dumps(O.matrix_to_wire(self.rows, self.m, self.n, self.gn), sort_keys=True)


def make_point(rows: list, m: int, n: int, gn: int, berezinian: Fraction) -> Point:
    strace: dict = {}
    for i in range(m + n):
        strace = O.g_add(strace, rows[i][i] if i < m else O.g_neg(rows[i][i]))
    return Point(m, n, gn, rows, berezinian, strace)


def random_point(rng, pattern, m: int, n: int, gn: int) -> Point:
    size = m + n
    x = random_rational_invertible(rng, m)
    w = random_rational_invertible(rng, n)
    diag = [[{} for _ in range(size)] for _ in range(size)]
    upper = [[O.g_scalar(int(i == j)) for j in range(size)] for i in range(size)]
    lower = [[O.g_scalar(int(i == j)) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            if i < m and j < m:
                diag[i][j] = O.g_scalar(x[i][j])
            elif i >= m and j >= m:
                diag[i][j] = O.g_scalar(w[i - m][j - m])
            elif i < m:
                upper[i][j] = random_odd(rng, pattern, gn)
            else:
                lower[i][j] = random_odd(rng, pattern, gn)
    rows = O.mat_mul(O.mat_mul(upper, diag), lower)
    return make_point(rows, m, n, gn, O.permutation_det(x) / O.permutation_det(w))


def check_berezinian(p: Point, out: str) -> None:
    data = json.loads(out)
    ber = O.element_from_wire(data["berezinian"], p.gn)
    expect(ber == O.g_scalar(p.berezinian), f"berezinian {data['berezinian']} != {p.berezinian}")
    expect(O.element_from_wire(data["supertrace"], p.gn) == p.supertrace, "supertrace differs")


def check_factor(p: Point, out: str) -> None:
    data = json.loads(out)
    expect(data["verified"] is True, "factor did not verify")
    upper, blockdiag, lower = (O.matrix_from_wire(data[k], p.gn) for k in ("upper", "blockdiag", "lower"))
    m, size = p.m, p.m + p.n
    for i in range(size):
        for j in range(size):
            same_block = (i < m) == (j < m)
            unit = O.g_scalar(int(i == j))
            expect(not same_block or upper[i][j] == unit and lower[i][j] == unit, "unipotent factor diagonal block")
            expect(same_block or blockdiag[i][j] == {}, "block-diagonal factor off-diagonal block")
            expect(not (i >= m and j < m) or upper[i][j] == {}, "upper factor lower-left block")
            expect(not (i < m and j >= m) or lower[i][j] == {}, "lower factor upper-right block")
    expect(O.mat_mul(O.mat_mul(upper, blockdiag), lower) == p.rows, "factors do not multiply back")


def check_group(m: int, n: int, gn: int, out: str) -> None:
    records = check_records(GROUP_CHECKS, {"m": m, "n": n}, out)
    expect(all(rec.get("grassmann_n", gn) == gn for rec in records), "group records report another N")


def points(seed: int) -> tuple[list, Callable]:
    rng = random.Random(seed)
    ops = []
    for m, n, gn in POINT_CONFIGS:
        # Which monomials fill the odd blocks is fixed per configuration, so
        # every seed asks for about the same Grassmann work; the seed draws
        # the rational blocks and every coefficient.
        pattern = random.Random(f"points ({m}|{n}) over Lambda_{gn}")
        for _ in range(PAIRS_PER_CONFIG):
            g, h = random_point(rng, pattern, m, n, gn), random_point(rng, pattern, m, n, gn)
            gh = make_point(O.mat_mul(g.rows, h.rows), m, n, gn, g.berezinian * h.berezinian)
            for p in (g, h, gh):
                text = p.wire()
                ops.append(Op(["berezinian", "-"], lambda out, p=p: check_berezinian(p, out), text))
                ops.append(Op(["factor", "-"], lambda out, p=p: check_factor(p, out), text))
    for m, n, r, gn in GROUP_CONFIGS:
        argv = ["verify", "group", "-m", str(m), "-n", str(n), "-r", str(r), "--grassmann-n", str(gn), "--seed", str(seed)]
        ops.append(Op(argv, lambda out, a=(m, n, gn): check_group(*a, out)))
    rng.shuffle(ops)
    return ops, lambda: None


WORKLOADS = {"schurweyl": schurweyl, "actions": actions, "points": points}

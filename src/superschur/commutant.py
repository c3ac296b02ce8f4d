"""Exact linear algebra over Q for spaces and algebras of tensor operators.

An operator on a word space of side D is flattened row-major into a sparse
vector ``{i * D + j: entry}`` of width D^2 that holds only its nonzero
entries.  Entries are ints or Fractions, never floats.

``RowSpace`` keeps a subspace in reduced row-echelon form, one sparse
integer row per pivot: the row's lowest nonzero column, where every other
row holds 0.  Each row is its reduced row-echelon row scaled to a primitive
integer vector (gcd 1) with a positive pivot entry.  Rational input is
scaled by the lcm of its denominators on entry, and elimination
cross-multiplies and divides out the gcd, so it forms no Fraction.
Reducing a vector clears only the pivots that are nonzero in it; since the
rows are fully reduced, one pass leaves it reduced.  The reduced
row-echelon form of a subspace is unique, and so is its primitive scaling:
dimension, membership and equality are exact, and two spaces are equal
exactly when their rows are.

``algebra_generated`` multiplies the current independent set by the
generators, as sparse products, until the row space stops growing.

``centralizer`` solves [g, X] = 0 for the unknowns X_kl in three steps, each
exact for any generator set:

* weight classes: a diagonal generator d gives (d_k - d_l) X_kl = 0, so
  only the unknowns whose k and l agree on every diagonal generator are
  kept;
* signed orbits: a monomial generator, g e_k = a_k e_pi(k), gives
  X_pi(k)pi(l) = (a_k / a_l) X_kl.  Following these maps from a kept unknown
  writes each unknown of its orbit as a multiple of the first.  An orbit
  that comes back to an unknown with another multiple, or that reaches an
  unknown not kept, is zero;
* every other generator gives [g, X]_ij = sum_k g_ik X_kj - X_ik g_kj,
  written over the nonzero orbits only and solved with ``RowSpace``; the
  kernel is then expanded back to flattened operators.

The signed place permutations tau are monomial, so cent(tau) needs no
elimination.  The derivations theta(E_ii) are diagonal, so cent(theta)
solves for sum over weights of (block size)^2 unknowns, not side^2.

``derivation_generators`` returns theta of the Chevalley generators E_ii,
E_i,i+1 and E_i+1,i only.  Every other E_ij is an iterated supercommutator
of them (E_ij = [E_i,i+1, E_i+1,j] for j > i + 1, and likewise below the
diagonal), and theta preserves the superbracket, so each theta(E_ij) is a
polynomial in the Chevalley images: both sets generate the same associative
algebra and have the same centralizer.

``double_centralizer_report`` decides cent(tau) = alg(theta) and
cent(theta) = alg(tau) without comparing the spaces.  Once every tau
generator commutes with every theta generator, alg(theta) lies in cent(tau)
and alg(tau) in cent(theta); equal dimensions then make both inclusions
equalities.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CapExceeded, DimensionError
from .supermatrix import SuperDim, SuperMatrix
from .tableaux import dimension_table
from .tensor import TensorOperator, transposition_operator, derivation_operator

DEFAULT_CAP = 64

# A sparse vector: {column: nonzero int or Fraction}.
Vector = dict


def check_cap(m: int, n: int, r: int, cap: int | None) -> int:
    side = (m + n) ** r
    limit = DEFAULT_CAP if cap is None else cap
    if side > limit:
        raise CapExceeded(
            f"word space has dimension {side} > cap {limit}; raise the cap to proceed"
        )
    return side


def _exact(e):
    """e as an int when it is integral, else as a Fraction."""
    if type(e) is int:
        return e
    e = Fraction(e)
    return e.numerator if e.denominator == 1 else e


def _ratio(a, b):
    """a / b exactly: an int when it is integral, else a Fraction."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _exact(Fraction(a) / b)


def _sparse(vec, width: int) -> Vector:
    """The nonzero entries of a dense sequence or of a {column: value} map,
    scaled by the lcm of their denominators to ints."""
    if isinstance(vec, dict):
        if any(not 0 <= c < width for c in vec):
            raise DimensionError("vector column out of range")
        items = vec.items()
    else:
        if len(vec) != width:
            raise DimensionError("vector width mismatch")
        items = enumerate(vec)
    out = {c: e for c, e in items if e}
    if all(type(e) is int for e in out.values()):
        return out
    exact = {c: Fraction(e) for c, e in out.items()}
    scale = lcm(*(e.denominator for e in exact.values()))
    return {c: e.numerator * (scale // e.denominator) for c, e in exact.items() if e}


def _primitive(v: Vector, pivot: int) -> Vector:
    """The integer vector v divided by the gcd of its entries, signed so
    that v[pivot] > 0."""
    g = gcd(*v.values())
    if v[pivot] < 0:
        g = -g
    return v if g == 1 else {c: e // g for c, e in v.items()}


def _dense(vec: Vector, width: int) -> list[Fraction]:
    return [Fraction(vec.get(c, 0)) for c in range(width)]


def _subtract(target: Vector, c, row: Vector) -> None:
    """target -= c * row in place, dropping the entries that cancel."""
    for col, e in row.items():
        x = target.get(col, 0) - c * e
        if x:
            target[col] = x
        else:
            del target[col]


def flatten(op: TensorOperator) -> Vector:
    """The nonzero entries of op, row-major: entry (i, j) at i * side + j."""
    if op.grassmann_n is not None:
        raise DimensionError("row spaces hold rational operators only")
    side = op.side
    return {i * side + j: _exact(e) for j, col in enumerate(op.cols) for i, e in col.items()}


def _rows(op: TensorOperator) -> list[Vector]:
    """op's rows as sparse maps: rows[i] = {j: a_ij}."""
    rows: list[Vector] = [{} for _ in range(op.side)]
    for j, col in enumerate(op.cols):
        for i, e in col.items():
            rows[i][j] = _exact(e)
    return rows


def _product(a: Vector, b_rows: list[Vector], side: int) -> Vector:
    """The flattened product a @ b, with b given by its rows."""
    out_rows: dict[int, Vector] = {}
    for idx, x in a.items():
        i, k = divmod(idx, side)
        _subtract(out_rows.setdefault(i, {}), -x, b_rows[k])
    return {i * side + j: e for i, row in out_rows.items() for j, e in row.items()}


class RowSpace:
    """A subspace of Q^width kept in reduced row-echelon form, one primitive
    integer row per pivot.

    Vectors are given dense, as a sequence of length ``width``, or sparse,
    as a ``{column: value}`` map, with int or Fraction entries.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows: dict[int, Vector] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    @property
    def rows(self) -> list[list[Fraction]]:
        """The reduced rows, dense, with 1 at each pivot, in pivot order."""
        out = []
        for p in self.pivots:
            row = self._rows[p]
            out.append([Fraction(row.get(c, 0), row[p]) for c in range(self.width)])
        return out

    def _reduce(self, v: Vector) -> Vector:
        """Clear, in place, v's entries at the pivots: scale v by the lcm of
        those rows' pivot entries, then subtract a multiple of each row.

        Row p is zero at every other pivot, so subtracting it leaves v's
        other pivot entries alone and one pass suffices.
        """
        rows = self._rows
        hits = [p for p in v if p in rows]
        if not hits:
            return v
        scale = lcm(*(rows[p][p] for p in hits))
        if scale != 1:
            for c in v:
                v[c] *= scale
        for p in hits:
            row = rows[p]
            _subtract(v, v[p] // row[p], row)
        return v

    def contains(self, vec) -> bool:
        return not self._reduce(_sparse(vec, self.width))

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the space grew."""
        v = self._reduce(_sparse(vec, self.width))
        if not v:
            return False
        pivot = min(v)
        v = _primitive(v, pivot)
        lead = v[pivot]
        # keep the other rows reduced against the new pivot
        rows = self._rows
        for p in [p for p, row in rows.items() if pivot in row]:
            row = rows[p]
            c = row[pivot]
            if lead != 1:
                row = {col: lead * e for col, e in row.items()}
            _subtract(row, c, v)
            rows[p] = _primitive(row, p)
        rows[pivot] = v
        return True

    def equals(self, other: "RowSpace") -> bool:
        return self.width == other.width and self._rows == other._rows

    def kernel(self) -> list[Vector]:
        """A basis of the vectors orthogonal to every row: one per free
        column f, holding 1 at f and -row[f] / row[p] at each row's pivot p."""
        entries: dict[int, list[tuple[int, object]]] = {}
        for p, row in self._rows.items():
            lead = row[p]
            for c, e in row.items():
                if c != p:
                    entries.setdefault(c, []).append((p, _ratio(-e, lead)))
        basis = []
        for f in range(self.width):
            if f not in self._rows:
                vec = {f: 1}
                for p, e in entries.get(f, ()):
                    vec[p] = e
                basis.append(vec)
        return basis


class OperatorSpace:
    """A rational span of tensor operators with exact membership tests,
    kept as the row space of the flattened operators."""

    def __init__(self, dim: SuperDim, r: int):
        self.dim = dim
        self.r = r
        side = dim.size ** r
        self.space = RowSpace(side * side)

    @property
    def dimension(self) -> int:
        return self.space.dim

    def add(self, op: TensorOperator) -> bool:
        if op.dim != self.dim or op.r != self.r:
            raise DimensionError("operator lives on a different space")
        return self.space.add(flatten(op))

    def contains(self, op: TensorOperator) -> bool:
        return self.space.contains(flatten(op))

    def equals(self, other: "OperatorSpace") -> bool:
        return (
            self.dim == other.dim
            and self.r == other.r
            and self.space.equals(other.space)
        )


def span(dim: SuperDim, r: int, ops) -> OperatorSpace:
    out = OperatorSpace(dim, r)
    for op in ops:
        out.add(op)
    return out


def algebra_generated(dim: SuperDim, r: int, generators) -> OperatorSpace:
    """The unital associative algebra generated by the given operators.

    Closure multiplies the current independent set by the original
    generators only: every product word grows one letter at a time on the
    right, so this reaches the full algebra.
    """
    side = dim.size ** r
    gens = list(generators)
    result = OperatorSpace(dim, r)
    frontier = []
    for op in [TensorOperator.identity(dim, r)] + gens:
        if result.add(op):
            frontier.append(flatten(op))
    gen_rows = [_rows(g) for g in gens]
    while frontier:
        fresh = []
        for left in frontier:
            for rows in gen_rows:
                candidate = _product(left, rows, side)
                if result.space.add(candidate):
                    fresh.append(candidate)
        frontier = fresh
    return result


def kernel_basis(rows, width: int) -> list[list[Fraction]]:
    """Exact kernel of the linear system given by ``rows`` (over Q)."""
    space = RowSpace(width)
    for row in rows:
        space.add(row)
    return [_dense(vec, width) for vec in space.kernel()]


def _lowest_lead_last(vectors: list[Vector]) -> list[Vector]:
    """The vectors by descending lowest column, the order to add them in.

    A row holds nothing left of its pivot, so a new pivot left of all those
    already kept needs no row reduced against it; this order makes that
    the common case.  The space is the same in any order, the work is not:
    the theta system on (2|0), r = 6 took 18 s in the order written and
    0.2 s in this one (Python 3.11, one x86 core).
    """
    return sorted(vectors, key=min, reverse=True)


def centralizer(dim: SuperDim, r: int, generators) -> OperatorSpace:
    """All operators commuting with every one of the given operators.

    The centralizer of an algebra equals the centralizer of any set that
    generates it, so callers may pass either a full basis or just the
    generators.  Diagonal generators keep the unknowns inside weight
    classes, monomial ones tie them into signed orbits, and only the rest
    are solved as a linear system (see the module docstring).
    """
    side = dim.size ** r
    diagonal, monomial, general = [], [], []
    for g in generators:
        if g.dim != dim or g.r != r:
            raise DimensionError("operator lives on a different space")
        cols = [{i: _exact(e) for i, e in col.items()} for col in g.cols]
        if all(col.keys() <= {j} for j, col in enumerate(cols)):
            diagonal.append([col.get(j, 0) for j, col in enumerate(cols)])
        elif all(len(col) == 1 for col in cols) and len({i for col in cols for i in col}) == side:
            # g e_k = a_k e_pi(k), kept as (pi(k), a_k)
            monomial.append([next(iter(col.items())) for col in cols])
        else:
            general.append((cols, _rows(g)))

    # weight[k] numbers the class of k's values on the diagonal generators
    labels: dict[tuple, int] = {}
    weight = [labels.setdefault(tuple(d[k] for d in diagonal), len(labels)) for k in range(side)]

    # each nonzero orbit maps its unknowns to their multiples of the first
    orbits: list[dict[int, object]] = []
    seen: set[int] = set()
    for first in range(side * side):
        k, l = divmod(first, side)
        if weight[k] != weight[l] or first in seen:
            continue
        orbit = {first: 1}
        members = [first]
        zero = False
        for s in members:
            a, b = divmod(s, side)
            for images in monomial:
                (ta, ea), (tb, eb) = images[a], images[b]
                if weight[ta] != weight[tb]:
                    zero = True
                    continue
                t = ta * side + tb
                x = _ratio(orbit[s] * ea, eb)
                if t not in orbit:
                    orbit[t] = x
                    members.append(t)
                elif orbit[t] != x:
                    zero = True
        seen.update(members)
        if not zero:
            orbits.append(orbit)

    # X_kl enters [g, X]_il as g_ik X_kl and [g, X]_kj as -X_kl g_lj
    system = RowSpace(len(orbits))
    nonzero: list[Vector] = []
    for g_cols, g_rows in general:
        equations: dict[int, Vector] = {}
        for var, orbit in enumerate(orbits):
            for s, x in orbit.items():
                k, l = divmod(s, side)
                for i, e in g_cols[k].items():
                    eq = equations.setdefault(i * side + l, {})
                    eq[var] = eq.get(var, 0) + e * x
                for j, e in g_rows[l].items():
                    eq = equations.setdefault(k * side + j, {})
                    eq[var] = eq.get(var, 0) - e * x
        for eq in equations.values():
            eq = {var: c for var, c in eq.items() if c}
            if eq:
                nonzero.append(eq)
    for eq in _lowest_lead_last(nonzero):
        system.add(eq)
    out = OperatorSpace(dim, r)
    expanded = [
        {s: c * x for var, c in vec.items() for s, x in orbits[var].items()}
        for vec in system.kernel()
    ]
    for vec in _lowest_lead_last(expanded):
        out.space.add(vec)
    return out


# --- reports -----------------------------------------------------------------


def symmetric_group_generators(dim: SuperDim, r: int) -> list[TensorOperator]:
    return [transposition_operator(dim, r, i, i + 1) for i in range(1, r)]


def derivation_generators(dim: SuperDim, r: int) -> list[TensorOperator]:
    """theta of the Chevalley generators E_ii, E_i,i+1 and E_i+1,i: 3(m+n) - 2
    operators generating the same algebra as all (m+n)^2 theta(E_ij), hence
    with the same centralizer (see the module docstring)."""
    size = dim.size
    return [
        derivation_operator(SuperMatrix.elementary(dim, i, j), r)
        for i in range(1, size + 1)
        for j in range(1, size + 1)
        if abs(i - j) <= 1
    ]


def double_centralizer_report(m: int, n: int, r: int, cap: int | None = None) -> dict:
    """Check that the signed symmetric-group algebra and the derivation
    algebra centralize each other, and that the tableaux counts match the
    two dimensions and the total word count."""
    check_cap(m, n, r, cap)
    dim = SuperDim(m, n)
    perm_gens = symmetric_group_generators(dim, r)
    der_gens = derivation_generators(dim, r)
    perm_algebra = algebra_generated(dim, r, perm_gens)
    der_algebra = algebra_generated(dim, r, der_gens)
    cent_perm = centralizer(dim, r, perm_gens)
    cent_der = centralizer(dim, r, der_gens)
    # commuting generators give alg(theta) <= cent(tau) and alg(tau) <= cent(theta)
    side = dim.size ** r
    taus = [(flatten(g), _rows(g)) for g in perm_gens]
    thetas = [(flatten(g), _rows(g)) for g in der_gens]
    commute = all(
        _product(t, th_rows, side) == _product(th, t_rows, side)
        for t, t_rows in taus
        for th, th_rows in thetas
    )
    double_ok = (
        commute
        and cent_perm.dimension == der_algebra.dimension
        and cent_der.dimension == perm_algebra.dimension
    )

    table = dimension_table(m, n, r)
    sum_syt_sq = sum(row["syt"] ** 2 for row in table if row["admissible"])
    sum_ssyt_sq = sum(row["ssyt"] ** 2 for row in table)
    mult_sum = sum(row["syt"] * row["ssyt"] for row in table)
    dims_ok = perm_algebra.dimension == sum_syt_sq and der_algebra.dimension == sum_ssyt_sq

    return {
        "m": m,
        "n": n,
        "r": r,
        "dim_tau": perm_algebra.dimension,
        "dim_theta": der_algebra.dimension,
        "double_centralizer": bool(double_ok and dims_ok),
        "multiplicity_identity": mult_sum == side,
        "per_shape": [
            {"shape": row["shape"], "syt": row["syt"], "ssyt": row["ssyt"]}
            for row in table
        ],
    }

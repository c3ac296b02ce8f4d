"""Exact linear algebra over Q for spaces and algebras of tensor operators.

An operator on a word space of side D is flattened row-major into a sparse
vector ``{i * D + j: entry}`` of width D^2 that holds only its nonzero
entries.  Entries come in the form ``exact_rational`` gives: an int when
integral, else a Fraction, never a float.

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

``algebra_generated`` and ``centralizer`` return the ``RowSpace`` of their
flattened operators.  ``algebra_generated`` multiplies the current
independent set by the generators, as sparse products, until the row space
stops growing.  Given ``within``, a space the caller knows holds the whole
algebra, it also stops once its dimension reaches ``within.dim``: the two
spaces are then equal, and no later product can add to it.  Since row p of
``within`` is its only row nonzero at pivot p, a vector of ``within`` is
fixed by its entries at the pivots, so the bounded closure is reduced in
those ``within.dim`` coordinates instead of side^2.  When it fills
``within`` the answer is a copy of ``within``; otherwise the full vectors
that grew it, independent in those coordinates, span the algebra.  Nothing
checks that the algebra lies in ``within``; a wrong bound can give a
smaller, wrong answer.

Given ``within``, the closure also never forms a candidate of a full weight
class.  ``tensor.word_weights`` numbers each word's content, so entry
(i, j) has class w[i] - w[j], and a product of homogeneous operators, all
entries in one class, has the sum of their classes.  Every generator and
every row of ``within`` must be homogeneous (``DimensionError``
otherwise), so the algebra and ``within`` are the direct sums of their
class parts, and the class-c part of ``within`` has as many rows as
``within`` has rows of class c.  Once that many grown vectors, independent
and in the algebra, have class c, they span the class-c part of
``within``, and so every class-c candidate lies in their span.

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

The expanded kernel is already in reduced row-echelon form, so no second
elimination runs.  An orbit's first unknown is its lowest column, and the
orbits are numbered last first.  A kernel vector holds 1 at its free
unknown f and is otherwise nonzero only at pivots below f, which are later
orbits; no other kernel vector touches f.  Expanded, its lowest column is
the first of f's orbit, where it holds 1 and every other row holds 0.
Each is scaled to its primitive integer row and stored under that pivot.

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
equalities.  So it computes both centralizers and the commute check first,
and only when the generators commute does it close each algebra
``within`` the other's centralizer.  When they do not, both closures run to
the end and report their full dimensions.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, inf, lcm
from operator import itemgetter

from .errors import DimensionError, check_cap
from .grassmann import exact_rational
from .supermatrix import SuperDim, SuperMatrix
from .tableaux import dimension_table
from .tensor import TensorOperator, derivation_operator, transposition_operator, word_weights

# A sparse vector: {column: nonzero int or Fraction}.
Vector = dict


def _ratio(a, b):
    """a / b exactly: an int when it is integral, else a Fraction."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return exact_rational(Fraction(a) / b)


def _sparse(vec, width: int) -> Vector:
    """The nonzero entries of a dense sequence or of a {column: value} map,
    scaled by the lcm of their denominators to ints."""
    if isinstance(vec, dict):
        if vec and (min(vec) < 0 or max(vec) >= width):
            raise DimensionError("vector column out of range")
        items = vec.items()
    else:
        if len(vec) != width:
            raise DimensionError("vector width mismatch")
        items = enumerate(vec)
    out = dict(filter(itemgetter(1), items))
    if set(map(type, out.values())) <= {int}:
        return out
    exact = {c: exact_rational(e) for c, e in out.items()}
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
    return {i * side + j: exact_rational(e) for j, col in op.cols.items() for i, e in col.items()}


def _rows(op: TensorOperator) -> list[Vector]:
    """op's rows as sparse maps: rows[i] = {j: a_ij}."""
    rows: list[Vector] = [{} for _ in range(op.side)]
    for j, col in op.cols.items():
        for i, e in col.items():
            rows[i][j] = exact_rational(e)
    return rows


def _product(a: Vector, b_rows: list[Vector], side: int) -> Vector:
    """The flattened product a @ b, with b given by its rows."""
    out: Vector = {}
    get = out.get
    for idx, x in a.items():
        k = idx % side
        base = idx - k
        for j, e in b_rows[k].items():
            c = base + j
            y = get(c, 0) + x * e
            if y:
                out[c] = y
            else:
                del out[c]
    return out


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


def algebra_generated(
    dim: SuperDim, r: int, generators, within: RowSpace | None = None
) -> RowSpace:
    """The unital associative algebra generated by the given operators, as
    the row space of its flattened operators.

    Closure multiplies the current independent set by the original
    generators only: every product word grows one letter at a time on the
    right, so this reaches the full algebra.  Given ``within``, a candidate
    of a weight class whose part of ``within`` the grown vectors already
    fill lies in the span and is not formed (see the module docstring).

    ``within``, when given, must be a space of flattened operators that the
    caller knows contains the whole algebra; closure stops as soon as the
    algebra's dimension reaches ``within.dim``, since the two are then
    equal.  That containment is not checked: a space that does not contain
    the algebra gives a wrong answer.  ``double_centralizer_report`` passes
    a centralizer only after checking that the generators commute.  Every
    generator and every row of ``within`` must be weight-homogeneous,
    all its entries in one class; ``DimensionError`` is raised otherwise.
    """
    side = dim.size ** r
    width = side * side
    ops = [TensorOperator.identity(dim, r)] + list(generators)
    if any(op.dim != dim or op.r != r for op in ops):
        raise DimensionError("operator lives on a different space")
    gen_vecs, gen_rows = list(map(flatten, ops[1:])), list(map(_rows, ops[1:]))
    if within is None:
        space, limit = RowSpace(width), None
        # one class for every vector, with room for all of them
        gen_class, room = [0] * len(gen_rows), {0: inf}

        def coords(vec: Vector) -> Vector:
            return vec

    else:
        if within.width != width:
            raise DimensionError("bounding space lives on a different space")
        # within's rows are reduced, so each vector of it is fixed by its
        # entries at within's pivots: close in those, numbered 0..dim-1
        position = {p: i for i, p in enumerate(within.pivots)}
        space, limit = RowSpace(within.dim), within.dim
        weight = word_weights(dim, r)

        def coords(vec: Vector) -> Vector:
            return {position[c]: e for c, e in vec.items() if c in position}

        def klass(vec: Vector) -> int:
            found = {weight[c // side] - weight[c % side] for c in vec}
            if len(found) > 1:
                raise DimensionError("operator is not weight-homogeneous")
            return found.pop() if found else 0

        gen_class = list(map(klass, gen_vecs))
        # room[c]: the rows of within's class-c part that the grown vectors
        # do not fill yet; homogeneous rows make within the sum of these parts
        room = Counter(map(klass, within._rows.values()))

    # (full vector, class) for each vector that grew the space, in the order
    # it did; each is multiplied by every generator in turn, so words grow
    # breadth first
    grown = []
    identity = flatten(ops[0])
    if space.add(coords(identity)):
        grown.append((identity, 0))
        room[0] -= 1
    for left, cls in grown:
        if space.dim == limit:
            break
        for rows, g_cls in zip(gen_rows, gen_class):
            c = cls + g_cls
            if not room.get(c):
                continue
            candidate = _product(left, rows, side)
            if space.add(coords(candidate)):
                grown.append((candidate, c))
                room[c] -= 1
                if space.dim == limit:
                    break
    if within is None:
        return space
    out = RowSpace(width)
    if space.dim == limit:
        # the algebra is within; copy its rows, as RowSpace.add edits rows in place
        out._rows = {p: dict(row) for p, row in within._rows.items()}
    else:
        # their pivot coordinates are independent, so these are a basis
        for vec, _ in grown:
            out.add(vec)
    return out


def kernel_basis(rows, width: int) -> list[list[Fraction]]:
    """Exact kernel of the linear system given by ``rows`` (over Q)."""
    space = RowSpace(width)
    for row in rows:
        space.add(row)
    return [_dense(vec, width) for vec in space.kernel()]


def centralizer(dim: SuperDim, r: int, generators) -> RowSpace:
    """All operators commuting with every one of the given operators, as the
    row space of their flattened forms.

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
        cols = {j: {i: exact_rational(e) for i, e in col.items()} for j, col in g.cols.items()}
        if all(col.keys() == {j} for j, col in cols.items()):
            diagonal.append([cols[j][j] if j in cols else 0 for j in range(side)])
        elif (
            len(cols) == side
            and all(len(col) == 1 for col in cols.values())
            and len({i for col in cols.values() for i in col}) == side
        ):
            # g e_k = a_k e_pi(k), kept as (pi(k), a_k)
            monomial.append([next(iter(cols[k].items())) for k in range(side)])
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

    # unknown 0 is the last orbit, so each kernel vector, expanded, is a
    # reduced row already (see the module docstring)
    orbits.reverse()
    # X_kl enters [g, X]_il as g_ik X_kl and [g, X]_kj as -X_kl g_lj
    system = RowSpace(len(orbits))
    nonzero: list[Vector] = []
    for g_cols, g_rows in general:
        equations: dict[int, Vector] = {}
        for var, orbit in enumerate(orbits):
            for s, x in orbit.items():
                k, l = divmod(s, side)
                for i, e in g_cols.get(k, {}).items():
                    eq = equations.setdefault(i * side + l, {})
                    eq[var] = eq.get(var, 0) + e * x
                for j, e in g_rows[l].items():
                    eq = equations.setdefault(k * side + j, {})
                    eq[var] = eq.get(var, 0) - e * x
        for eq in equations.values():
            eq = {var: c for var, c in eq.items() if c}
            if eq:
                nonzero.append(eq)
    # lowest column last: a row holds nothing left of its pivot, so a new
    # pivot left of all those kept needs no row reduced against it.  The
    # space is the same in any order, the work is not: the theta system on
    # (2|0), r = 6 takes 1.2 s in the order written and 0.1 s in this one
    # (Python 3.11, one x86 core)
    for eq in sorted(nonzero, key=min, reverse=True):
        system.add(eq)
    out = RowSpace(side * side)
    for vec in system.kernel():
        expanded = {s: c * x for var, c in vec.items() for s, x in orbits[var].items()}
        row = _sparse(expanded, out.width)
        pivot = min(row)
        out._rows[pivot] = _primitive(row, pivot)
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
    side = check_cap(m, n, r, cap)
    dim = SuperDim(m, n)
    perm_gens = symmetric_group_generators(dim, r)
    der_gens = derivation_generators(dim, r)
    cent_perm = centralizer(dim, r, perm_gens)
    cent_der = centralizer(dim, r, der_gens)
    # commuting generators give alg(theta) <= cent(tau) and alg(tau) <= cent(theta),
    # so each closure may stop once it fills that centralizer
    commute = all(t * th == th * t for t in perm_gens for th in der_gens)
    perm_algebra = algebra_generated(dim, r, perm_gens, within=cent_der if commute else None)
    der_algebra = algebra_generated(dim, r, der_gens, within=cent_perm if commute else None)
    double_ok = (
        commute
        and cent_perm.dim == der_algebra.dim
        and cent_der.dim == perm_algebra.dim
    )

    table = dimension_table(m, n, r)
    sum_syt_sq = sum(row["syt"] ** 2 for row in table if row["admissible"])
    sum_ssyt_sq = sum(row["ssyt"] ** 2 for row in table)
    mult_sum = sum(row["syt"] * row["ssyt"] for row in table)
    dims_ok = perm_algebra.dim == sum_syt_sq and der_algebra.dim == sum_ssyt_sq

    return {
        "m": m,
        "n": n,
        "r": r,
        "dim_tau": perm_algebra.dim,
        "dim_theta": der_algebra.dim,
        "double_centralizer": bool(double_ok and dims_ok),
        "multiplicity_identity": mult_sum == side,
        "per_shape": [
            {"shape": row["shape"], "syt": row["syt"], "ssyt": row["ssyt"]}
            for row in table
        ],
    }

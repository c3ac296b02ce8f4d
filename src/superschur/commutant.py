"""Exact linear algebra over Q for spaces and algebras of tensor operators.

An operator on a word space of side D is flattened row-major into a sparse
vector ``{i * D + j: entry}`` of width D^2 that holds only its nonzero
entries, each read as the operator stores it, an int or a Fraction.

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
stops growing, always inside a bound: ``within``, a space the caller knows
holds the whole algebra, by default End(V), the centralizer of no
operators.  It also stops once its dimension reaches ``within.dim``: the
two spaces are then equal, and no later product can add to it.  Since row
p of ``within`` is its only row nonzero at pivot p, a vector of ``within``
is fixed by its entries at the pivots, so the closure is reduced in those
``within.dim`` coordinates, fewer than side^2 unless ``within`` is End(V).
When it fills ``within`` the answer is a copy of ``within``; otherwise the
full vectors that grew it, independent in those coordinates, span the
algebra.  Nothing checks that the algebra lies in ``within``; a wrong bound
can give a smaller, wrong answer.

The closure also never forms a candidate of a full weight class.
``tensor.word_weights`` numbers each word's content, so entry (i, j) has
class w[i] - w[j], and a product of homogeneous operators, all entries in
one class, has the sum of their classes.  Every generator and every row of
``within`` must be homogeneous (``DimensionError`` otherwise), so the
algebra and ``within`` are the direct sums of their class parts, and the
class-c part of ``within`` has as many rows as ``within`` has rows of class
c.  Once that many grown vectors, independent and in the algebra, have
class c, they span the class-c part of ``within``, and so every class-c
candidate lies in their span.

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
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import DimensionError
from .grassmann import exact_rational
from .supermatrix import SuperDim
from .tensor import TensorOperator, word_weights

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
    return {i * side + j: e for j, col in op.cols.items() for i, e in col.items()}


def _rows(op: TensorOperator) -> list[Vector]:
    """op's rows as sparse maps: rows[i] = {j: a_ij}."""
    rows: list[Vector] = [{} for _ in range(op.side)]
    for j, col in op.cols.items():
        for i, e in col.items():
            rows[i][j] = e
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
    right, so this reaches the full algebra.  A candidate of a weight class
    whose part of ``within`` the grown vectors already fill lies in the
    span and is not formed (see the module docstring).

    ``within`` must be a space of flattened operators that the caller knows
    contains the whole algebra; closure stops as soon as the algebra's
    dimension reaches ``within.dim``, since the two are then equal.  That
    containment is not checked: a space that does not contain the algebra
    gives a wrong answer.  Left out, ``within`` is End(V), the centralizer
    of no operators, which holds every algebra.  The schurweyl suite passes
    a centralizer only after checking that the generators commute.
    Every generator and every row of ``within`` must be weight-homogeneous,
    all its entries in one class; ``DimensionError`` is raised otherwise.
    """
    side = dim.size ** r
    width = side * side
    ops = [TensorOperator.identity(dim, r)] + list(generators)
    if any(op.dim != dim or op.r != r for op in ops):
        raise DimensionError("operator lives on a different space")
    gen_rows = list(map(_rows, ops[1:]))
    if within is None:
        within = centralizer(dim, r, [])
    if within.width != width:
        raise DimensionError("bounding space lives on a different space")
    weight = word_weights(dim, r)

    def klass(vec: Vector) -> int:
        found = {weight[c // side] - weight[c % side] for c in vec}
        if len(found) > 1:
            raise DimensionError("operator is not weight-homogeneous")
        return found.pop() if found else 0

    gen_class = [klass(flatten(op)) for op in ops[1:]]
    # room[c]: the rows of within's class-c part that the grown vectors do
    # not fill yet; homogeneous rows make within the sum of these parts
    room = Counter(map(klass, within._rows.values()))
    # within's rows are reduced, so each vector of it is fixed by its
    # entries at within's pivots: close in those, numbered 0..dim-1
    position = {p: i for i, p in enumerate(within.pivots)}
    space = RowSpace(within.dim)
    # (full vector, class) for each vector that grew the space, in the order
    # it did; each is multiplied by every generator in turn, so words grow
    # breadth first
    grown = []

    def add(vec: Vector, cls: int) -> None:
        if space.add({position[c]: e for c, e in vec.items() if c in position}):
            grown.append((vec, cls))
            room[cls] -= 1

    add(flatten(ops[0]), 0)
    for left, cls in grown:
        if space.dim == within.dim:
            break
        for rows, g_cls in zip(gen_rows, gen_class):
            c = cls + g_cls
            if room[c]:
                add(_product(left, rows, side), c)
    out = RowSpace(width)
    if space.dim == within.dim:
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
        cols = g.cols
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

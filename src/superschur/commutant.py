"""Exact linear algebra over Q for spaces and algebras of tensor operators.

An operator on a word space of side D is flattened row-major into a sparse
vector ``{i * D + j: entry}`` of width D^2 that holds only its nonzero
entries.  Entries are ints or Fractions, never floats.

``RowSpace`` keeps a subspace in reduced row-echelon form, one sparse row per
pivot: the row's lowest nonzero column, where the row holds 1 and every other
row holds 0.  Reducing a vector subtracts only the rows whose pivots are
nonzero in it; since the rows are fully reduced, one pass leaves it reduced.
The reduced row-echelon form of a subspace is unique, so dimension,
membership and equality are exact, and two spaces are equal exactly when
their rows are.

``algebra_generated`` multiplies the current independent set by the
generators, as sparse products, until the row space stops growing.
``centralizer`` writes one equation
[g, X]_ij = sum_k g_ik X_kj - X_ik g_kj per entry from g's nonzero entries
alone, and reads the kernel off the reduced system.

``double_centralizer_report`` decides cent(tau) = alg(theta) and
cent(theta) = alg(tau) without comparing the spaces.  Once every tau
generator commutes with every theta generator, alg(theta) lies in cent(tau)
and alg(tau) in cent(theta); equal dimensions then make both inclusions
equalities.
"""

from __future__ import annotations

from fractions import Fraction

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


def _sparse(vec, width: int) -> Vector:
    """The nonzero entries of a dense sequence or of a {column: value} map."""
    if isinstance(vec, dict):
        if any(not 0 <= c < width for c in vec):
            raise DimensionError("vector column out of range")
        items = vec.items()
    else:
        if len(vec) != width:
            raise DimensionError("vector width mismatch")
        items = enumerate(vec)
    return {c: _exact(e) for c, e in items if e}


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


def unflatten(dim: SuperDim, r: int, vec: Vector) -> TensorOperator:
    side = dim.size ** r
    cols: list[Vector] = [{} for _ in range(side)]
    for idx, e in vec.items():
        i, j = divmod(idx, side)
        cols[j][i] = Fraction(e)
    return TensorOperator._from_cols(dim, r, cols)


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
    """A subspace of Q^width kept in reduced row-echelon form.

    Vectors are given dense, as a sequence of length ``width``, or sparse,
    as a ``{column: value}`` map.
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
        """The reduced rows, dense, in pivot order."""
        return [_dense(self._rows[p], self.width) for p in self.pivots]

    def _reduce(self, v: Vector) -> Vector:
        """Subtract from v, in place, the rows whose pivots are nonzero in it.

        Row p is zero at every other pivot, so subtracting it leaves v's
        other pivot entries alone and one pass suffices.
        """
        rows = self._rows
        for p in [c for c in v if c in rows]:
            _subtract(v, v[p], rows[p])
        return v

    def contains(self, vec) -> bool:
        return not self._reduce(_sparse(vec, self.width))

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the space grew."""
        v = self._reduce(_sparse(vec, self.width))
        if not v:
            return False
        pivot = min(v)
        lead = v[pivot]
        if lead == -1:
            v = {c: -e for c, e in v.items()}
        elif lead != 1:
            inv = 1 / Fraction(lead)
            v = {c: e * inv for c, e in v.items()}
        # keep the other rows reduced against the new pivot
        for row in [row for row in self._rows.values() if pivot in row]:
            _subtract(row, row[pivot], v)
        self._rows[pivot] = v
        return True

    def equals(self, other: "RowSpace") -> bool:
        return self.width == other.width and self._rows == other._rows

    def kernel(self) -> list[Vector]:
        """A basis of the vectors orthogonal to every row: one per free
        column f, holding 1 at f and -row[f] at each row's pivot."""
        entries: dict[int, list[tuple[int, object]]] = {}
        for p, row in self._rows.items():
            for c, e in row.items():
                if c != p:
                    entries.setdefault(c, []).append((p, e))
        basis = []
        for f in range(self.width):
            if f not in self._rows:
                vec = {f: 1}
                for p, e in entries.get(f, ()):
                    vec[p] = -e
                basis.append(vec)
        return basis


class OperatorSpace:
    """A rational span of tensor operators with exact membership tests.

    ``vectors`` holds the flattened operators that grew the span, in order;
    ``operators`` builds them as dense operators when read.
    """

    def __init__(self, dim: SuperDim, r: int):
        self.dim = dim
        self.r = r
        side = dim.size ** r
        self.space = RowSpace(side * side)
        self.vectors: list[Vector] = []

    @property
    def dimension(self) -> int:
        return self.space.dim

    @property
    def operators(self) -> list[TensorOperator]:
        return [unflatten(self.dim, self.r, v) for v in self.vectors]

    def add(self, op: TensorOperator) -> bool:
        if op.dim != self.dim or op.r != self.r:
            raise DimensionError("operator lives on a different space")
        return self.add_vector(flatten(op))

    def add_vector(self, vec: Vector) -> bool:
        if self.space.add(vec):
            self.vectors.append(vec)
            return True
        return False

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
    result = span(dim, r, [TensorOperator.identity(dim, r)] + gens)
    gen_rows = [_rows(g) for g in gens]
    frontier = list(result.vectors)
    while frontier:
        fresh = []
        for left in frontier:
            for rows in gen_rows:
                candidate = _product(left, rows, side)
                if result.add_vector(candidate):
                    fresh.append(candidate)
        frontier = fresh
    return result


def kernel_basis(rows, width: int) -> list[list[Fraction]]:
    """Exact kernel of the linear system given by ``rows`` (over Q)."""
    space = RowSpace(width)
    for row in rows:
        space.add(row)
    return [_dense(vec, width) for vec in space.kernel()]


def centralizer(dim: SuperDim, r: int, generators) -> OperatorSpace:
    """All operators commuting with every one of the given operators.

    The centralizer of an algebra equals the centralizer of any set that
    generates it, so callers may pass either a full basis or just the
    generators.
    """
    side = dim.size ** r
    system = RowSpace(side * side)
    for g in generators:
        g_rows = _rows(g)
        g_cols = [{k: _exact(e) for k, e in col.items()} for col in g.cols]
        for i in range(side):
            for j in range(side):
                # sum_k g_ik X_kj - X_ik g_kj, unknown X_kl at k * side + l
                equation = {k * side + j: e for k, e in g_rows[i].items()}
                _subtract(equation, 1, {i * side + k: e for k, e in g_cols[j].items()})
                if equation:
                    system.add(equation)
    out = OperatorSpace(dim, r)
    for vec in system.kernel():
        out.add_vector(vec)
    return out


# --- reports -----------------------------------------------------------------


def symmetric_group_generators(dim: SuperDim, r: int) -> list[TensorOperator]:
    return [transposition_operator(dim, r, i, i + 1) for i in range(1, r)]


def derivation_generators(dim: SuperDim, r: int) -> list[TensorOperator]:
    out = []
    for i in range(1, dim.size + 1):
        for j in range(1, dim.size + 1):
            out.append(derivation_operator(SuperMatrix.elementary(dim, i, j), r))
    return out


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

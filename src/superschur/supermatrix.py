"""Block matrices over Q or a Grassmann algebra, graded (m|n).

Rows and columns 1..m are even, m+1..m+n are odd.  An even point has even
entries on the diagonal blocks and odd entries off them; a GL point is an
even point whose two diagonal blocks have invertible rational body.  Matrix
products are the ordinary row-by-column ones with factors multiplied left to
right, which matters once entries anticommute.

Determinants, inverses, the Berezinian, the LDU factors and the elementary
factorization all come from one Gauss-Jordan elimination that divides only
by units.  The even part of Lambda_N is a local ring: an element is a unit
exactly when its body is nonzero, and the nilpotents form an ideal.  Row
operations with even coefficients therefore act on the body matrix as
rational elimination does, so a matrix with invertible body offers a unit
pivot in every column.  The blocks the group side works with have one:
either diagonal block of a GL point, and the Schur complement X - Y W^-1 Z,
whose body is body(X).  A column without a unit pivot means the body is
singular; only even_det goes on from there, by expanding along that column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, FormatError, NotInvertible, ParityError
from .grassmann import (
    GrassmannElement,
    as_element,
    check_generators,
    is_json_int,
    rational_from_json,
)


@dataclass(frozen=True)
class SuperDim:
    """The graded dimension (m|n): m even basis directions, n odd ones."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise DimensionError("need m, n >= 0 with m + n >= 1")

    @property
    def size(self) -> int:
        return self.m + self.n

    def parity(self, index: int) -> int:
        """Parity of the 1-based basis index: 0 for 1..m, 1 for m+1..m+n."""
        if not 1 <= index <= self.size:
            raise DimensionError(f"index {index} not in 1..{self.size}")
        return 0 if index <= self.m else 1


class SuperMatrix:
    """A square matrix over Q (``grassmann_n is None``) or Lambda_N."""

    __slots__ = ("dim", "grassmann_n", "entries")

    def __init__(self, dim: SuperDim, entries, grassmann_n: int | None = None):
        size = dim.size
        if len(entries) != size or any(len(row) != size for row in entries):
            raise DimensionError(f"entries must be {size}x{size}")
        if grassmann_n is None:
            rows = tuple(
                tuple(self._as_rational(e) for e in row) for row in entries
            )
        else:
            rows = tuple(
                tuple(as_element(e, grassmann_n) for e in row) for row in entries
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "grassmann_n", grassmann_n)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _from_rows(cls, dim: SuperDim, rows, grassmann_n: int | None = None) -> "SuperMatrix":
        """Wrap rows whose entries are already Fractions (over Q) or elements
        of Lambda_N, skipping the coercion of every entry."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "dim", dim)
        object.__setattr__(mat, "grassmann_n", grassmann_n)
        object.__setattr__(mat, "entries", tuple(tuple(row) for row in rows))
        return mat

    def __setattr__(self, name, value):
        raise AttributeError("SuperMatrix is immutable")

    @staticmethod
    def _as_rational(e):
        if isinstance(e, GrassmannElement):
            raise DimensionError("rational matrix cannot hold Grassmann entries")
        return Fraction(e)

    # --- ring plumbing --------------------------------------------------

    @property
    def zero_element(self):
        if self.grassmann_n is None:
            return Fraction(0)
        return GrassmannElement.zero(self.grassmann_n)

    @property
    def one_element(self):
        if self.grassmann_n is None:
            return Fraction(1)
        return GrassmannElement.scalar(self.grassmann_n, 1)

    def _check_compatible(self, other: "SuperMatrix"):
        if self.dim != other.dim:
            raise DimensionError("graded dimensions differ")
        if self.grassmann_n != other.grassmann_n:
            raise DimensionError("matrices live over different rings")

    # --- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, dim: SuperDim, grassmann_n: int | None = None) -> "SuperMatrix":
        if grassmann_n is None:
            zero, one = Fraction(0), Fraction(1)
        else:
            zero = GrassmannElement.zero(grassmann_n)
            one = GrassmannElement.scalar(grassmann_n, 1)
        size = dim.size
        rows = [[one if i == j else zero for j in range(size)] for i in range(size)]
        return cls._from_rows(dim, rows, grassmann_n)

    @classmethod
    def zero(cls, dim: SuperDim, grassmann_n: int | None = None) -> "SuperMatrix":
        size = dim.size
        return cls(dim, [[0] * size for _ in range(size)], grassmann_n)

    @classmethod
    def elementary(cls, dim: SuperDim, i: int, j: int) -> "SuperMatrix":
        """The rational matrix with a single 1 in row i, column j (1-based)."""
        size = dim.size
        if not (1 <= i <= size and 1 <= j <= size):
            raise DimensionError(f"position ({i},{j}) not in 1..{size}")
        zero = Fraction(0)
        rows = [[zero] * size for _ in range(size)]
        rows[i - 1][j - 1] = Fraction(1)
        return cls._from_rows(dim, rows)

    def lift(self, grassmann_n: int) -> "SuperMatrix":
        """Reinterpret a rational matrix inside Lambda_N."""
        if self.grassmann_n is not None:
            if self.grassmann_n != grassmann_n:
                raise DimensionError("matrix already lives over a different ring")
            return self
        return SuperMatrix(self.dim, self.entries, grassmann_n)

    # --- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        """Row-by-column product over the nonzero entries of both factors,
        each term formed left factor first."""
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_compatible(other)
        rows = _block_product(self.entries, other.entries, self.dim.size, self.zero_element)
        return SuperMatrix._from_rows(self.dim, rows, self.grassmann_n)

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_compatible(other)
        rows = [
            [a + b if b else a for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ]
        return SuperMatrix._from_rows(self.dim, rows, self.grassmann_n)

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_compatible(other)
        rows = [
            [a - b if b else a for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ]
        return SuperMatrix._from_rows(self.dim, rows, self.grassmann_n)

    def scale(self, value) -> "SuperMatrix":
        """Multiply every entry by a central scalar (int or Fraction)."""
        factor = Fraction(value)
        rows = [[e * factor if e else e for e in row] for row in self.entries]
        return SuperMatrix._from_rows(self.dim, rows, self.grassmann_n)

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.grassmann_n == other.grassmann_n
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, self.grassmann_n, self.entries))

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries
        )
        ring = "Q" if self.grassmann_n is None else f"Lambda_{self.grassmann_n}"
        return f"SuperMatrix({self.dim.m}|{self.dim.n} over {ring}: {body})"

    # --- block structure --------------------------------------------------

    def blocks(self):
        """(X, Y, Z, W): top-left m x m, top-right m x n, bottom-left, bottom-right."""
        m = self.dim.m
        e = self.entries
        x = [list(row[:m]) for row in e[:m]]
        y = [list(row[m:]) for row in e[:m]]
        z = [list(row[:m]) for row in e[m:]]
        w = [list(row[m:]) for row in e[m:]]
        return x, y, z, w

    def is_even_point(self) -> bool:
        """Diagonal blocks even, off-diagonal blocks odd (entrywise); a
        nonzero rational is even and zero has either parity."""
        m = self.dim.m
        rational = self.grassmann_n is None
        return all(
            not e or (0 if rational else e.parity()) == int((i < m) != (j < m))
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def body_matrix(self) -> list[list[Fraction]]:
        if self.grassmann_n is None:
            return [list(row) for row in self.entries]
        return [[e.body() for e in row] for row in self.entries]

    def is_gl_point(self) -> bool:
        """Even point whose diagonal-block bodies are invertible over Q."""
        if not self.is_even_point():
            return False
        m = self.dim.m
        body = self.body_matrix()
        zero, one = Fraction(0), Fraction(1)
        return all(
            _gauss_jordan(block, (), zero, one)[2] is None
            for block in ([row[:m] for row in body[:m]], [row[m:] for row in body[m:]])
        )

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        out = {"m": self.dim.m, "n": self.dim.n}
        if self.grassmann_n is None:
            out["ring"] = "Q"
            out["entries"] = [[str(e) for e in row] for row in self.entries]
        else:
            out["ring"] = "grassmann"
            out["grassmann_n"] = self.grassmann_n
            out["entries"] = [[e.to_json() for e in row] for row in self.entries]
        return out

    @classmethod
    def from_json(cls, data) -> "SuperMatrix":
        if not isinstance(data, dict):
            raise FormatError("supermatrix must be a JSON object")
        for key in ("m", "n", "ring", "entries"):
            if key not in data:
                raise FormatError(f"supermatrix is missing {key!r}")
        m, n = data["m"], data["n"]
        if not (is_json_int(m) and is_json_int(n)):
            raise FormatError("'m' and 'n' must be integers")
        try:
            dim = SuperDim(m, n)
        except DimensionError as exc:
            raise FormatError(str(exc)) from exc
        ring = data["ring"]
        entries = data["entries"]
        size = dim.size
        if (
            not isinstance(entries, list)
            or len(entries) != size
            or any(not isinstance(row, list) or len(row) != size for row in entries)
        ):
            raise FormatError(f"'entries' must be a {size}x{size} array")
        if ring == "Q":
            rows = [[rational_from_json(e, "entry") for e in row] for row in entries]
            return cls(dim, rows)
        if ring == "grassmann":
            gn = data.get("grassmann_n")
            if not is_json_int(gn) or gn < 0:
                raise FormatError("'grassmann_n' must be a nonnegative integer")
            check_generators(gn)
            rows = []
            for row in entries:
                parsed = []
                for e in row:
                    if isinstance(e, dict):
                        elem = GrassmannElement.from_json(e)
                        if elem.num_generators != gn:
                            raise FormatError(
                                "entry generator count disagrees with grassmann_n"
                            )
                        parsed.append(elem)
                    else:
                        parsed.append(
                            GrassmannElement.scalar(gn, rational_from_json(e, "entry"))
                        )
                rows.append(parsed)
            return cls(dim, rows, gn)
        raise FormatError("'ring' must be 'Q' or 'grassmann'")


# --- determinants over the even commutative subring ---------------------


def _is_unit(e) -> bool:
    if isinstance(e, GrassmannElement):
        return e.body() != 0
    return e != 0


def _inverse(e):
    return e.inverse() if isinstance(e, GrassmannElement) else 1 / Fraction(e)


def _gauss_jordan(rows, rhs, zero, one):
    """Reduce [rows | rhs] towards [I | rows^-1 rhs], dividing only by units.

    ``rhs`` holds one row per row of ``rows`` (or is empty).  Returns
    (det, work, stuck, steps).  ``work`` is the reduced [rows | rhs]; ``stuck``
    is None when every column found a unit pivot, so det is det(rows) and
    ``row[len(rows):]`` of ``work`` is rows^-1 rhs.  Otherwise it is the first
    column with none: columns before it are reduced, det is the product of
    their pivots and swap signs, and the block work[stuck:][stuck:] is what
    remains, with only nilpotent entries in its first column.  ``steps``
    lists the row operations in order: ("swap", col, row), ("scale", col,
    pivot) and ("add", row, col, factor) for row -= factor * row col.
    """
    size = len(rows)
    work = [list(row) for row in rows]
    for row, extra in zip(work, rhs):
        row.extend(extra)
    width = len(work[0]) if work else 0
    det = one
    steps = []
    for col in range(size):
        pivot = next((r for r in range(col, size) if _is_unit(work[r][col])), None)
        if pivot is None:
            return det, work, col, steps
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
            steps.append(("swap", col, pivot))
        prow = work[col]
        p = prow[col]
        det = det * p
        if p != one:
            inv = _inverse(p)
            prow[col] = one
            for j in range(col + 1, width):
                if prow[j]:
                    prow[j] = prow[j] * inv
            steps.append(("scale", col, p))
        for r, row in enumerate(work):
            factor = row[col]
            if r != col and factor:
                row[col] = zero
                for j in range(col + 1, width):
                    if prow[j]:
                        row[j] = row[j] - factor * prow[j]
                steps.append(("add", r, col, factor))
    return det, work, None, steps


def _det_times(rows, scale, zero, one):
    """scale * det(rows): eliminate, then expand along a stuck column.

    Each term of the expansion carries a nilpotent factor, so once the
    running multiplier is zero the minor below it is never computed.
    """
    det, work, stuck, _ = _gauss_jordan(rows, (), zero, one)
    scale = scale * det
    if stuck is None or not scale:
        return scale
    block = [row[stuck:] for row in work[stuck:]]
    acc = zero
    for i, row in enumerate(block):
        term = scale * row[0]
        if term:
            minor = [r[1:] for k, r in enumerate(block) if k != i]
            term = _det_times(minor, term, zero, one)
            acc = acc - term if i & 1 else acc + term
    return acc


def even_det(rows, zero=None, one=None):
    """Determinant of a square matrix with entries in the even subring.

    Entries must commute (rationals, or even Grassmann elements); parity is
    the caller's responsibility since diagonal blocks of even points satisfy
    it by construction.  Defined on every such matrix: when the body is
    singular the elimination stops at a column of nilpotents and the rest is
    expanded along it.
    """
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise DimensionError("determinant needs a square matrix")
    if zero is None or one is None:
        sample = rows[0][0] if size else Fraction(0)
        if isinstance(sample, GrassmannElement):
            zero = GrassmannElement.zero(sample.num_generators)
            one = GrassmannElement.scalar(sample.num_generators, 1)
        else:
            zero, one = Fraction(0), Fraction(1)
    return _det_times(rows, one, zero, one)


def even_matrix_inverse(rows, zero, one):
    """Inverse over the even subring; needs a unit determinant."""
    size = len(rows)
    ident = [[one if i == j else zero for j in range(size)] for i in range(size)]
    _, work, stuck, _ = _gauss_jordan(rows, ident, zero, one)
    if stuck is not None:
        raise NotInvertible("matrix determinant has zero body")
    return [row[size:] for row in work]


# --- supertrace, Berezinian, factorization --------------------------------


def supertrace(mat: SuperMatrix):
    """Trace of the top-left block minus trace of the bottom-right block."""
    m = mat.dim.m
    acc = mat.zero_element
    for i in range(mat.dim.size):
        d = mat.entries[i][i]
        acc = acc + d if i < m else acc - d
    return acc


def _block_product(a, b, width, zero):
    """a * b for blocks given as lists of rows, b with ``width`` columns,
    over the nonzero entries of both, each term formed left factor first."""
    rows = []
    for a_row in a:
        out = [zero] * width
        for x, b_row in zip(a_row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        out[j] = out[j] + x * y
        rows.append(out)
    return rows


def _schur_parts(mat: SuperMatrix):
    """det W, W^-1, W^-1 Z and X - Y W^-1 Z for an even point [[X, Y], [Z, W]],
    or None when the body of W is singular.

    One elimination of [W | I | Z] gives det W, W^-1 and W^-1 Z.
    """
    zero, one = mat.zero_element, mat.one_element
    x, y, z, w = mat.blocks()
    m, n = mat.dim.m, mat.dim.n
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    rhs = [i_row + z_row for i_row, z_row in zip(ident, z)]
    det_w, work, stuck, _ = _gauss_jordan(w, rhs, zero, one)
    if stuck is not None:
        return None
    w_inv = [row[n : 2 * n] for row in work]
    winv_z = [row[2 * n :] for row in work]
    y_winv_z = _block_product(y, winv_z, m, zero)
    schur = [
        [a - b if b else a for a, b in zip(x_row, p_row)]
        for x_row, p_row in zip(x, y_winv_z)
    ]
    return det_w, w_inv, winv_z, schur


def berezinian(mat: SuperMatrix):
    """det(W)^{-1} det(X - Y W^{-1} Z) for a GL point [[X, Y], [Z, W]]; an
    even point is one exactly when W and X - Y W^-1 Z eliminate to the end."""
    parts = _schur_parts(mat) if mat.is_even_point() else None
    if parts is not None:
        det_w, _, _, schur = parts
        det_s, _, stuck, _ = _gauss_jordan(schur, (), mat.zero_element, mat.one_element)
        if stuck is None:
            return _inverse(det_w) * det_s
    raise NotInvertible("Berezinian needs a GL point")


def ldu_factor(mat: SuperMatrix):
    """Write a GL point as upper * blockdiag * lower.

    upper = [[I, Y W^{-1}], [0, I]], blockdiag = [[X - Y W^{-1} Z, 0], [0, W]],
    lower = [[I, 0], [W^{-1} Z, I]].  The Schur complement in blockdiag is the
    numerator of the Berezinian.
    """
    if not mat.is_gl_point():
        raise NotInvertible("LDU factorization needs a GL point")
    zero, one = mat.zero_element, mat.one_element
    m, n = mat.dim.m, mat.dim.n
    _, w_inv, winv_z, schur = _schur_parts(mat)
    _, y, _, w = mat.blocks()
    y_winv = _block_product(y, w_inv, n, zero)

    def assemble(top_left, top_right, bottom_left, bottom_right):
        rows = [a + b for a, b in zip(top_left, top_right)]
        rows += [a + b for a, b in zip(bottom_left, bottom_right)]
        return SuperMatrix._from_rows(mat.dim, rows, mat.grassmann_n)

    ident = lambda k: [[one if i == j else zero for j in range(k)] for i in range(k)]
    zeros = lambda r, c: [[zero] * c for _ in range(r)]
    upper = assemble(ident(m), y_winv, zeros(n, m), ident(n))
    blockdiag = assemble(schur, zeros(m, n), zeros(n, m), w)
    lower = assemble(ident(m), zeros(m, n), winv_z, ident(n))
    return upper, blockdiag, lower


# --- distinguished one-parameter points ------------------------------------


def transvection(
    dim: SuperDim, i: int, j: int, value, grassmann_n: int | None = None
) -> SuperMatrix:
    """I + value * e_ij with i != j; value must be homogeneous of the slot parity."""
    if i == j:
        raise DimensionError("transvection needs i != j")
    size = dim.size
    if not (1 <= i <= size and 1 <= j <= size):
        raise DimensionError(f"position ({i},{j}) not in 1..{size}")
    want = (dim.parity(i) + dim.parity(j)) % 2
    if grassmann_n is None:
        value = Fraction(value)
        if want == 1 and value != 0:
            raise ParityError("odd slot needs an odd element, not a rational")
    else:
        value = as_element(value, grassmann_n)
        if not value.is_zero() and value.parity() != want:
            raise ParityError(f"slot ({i},{j}) needs parity {want}")
    rows = [list(row) for row in SuperMatrix.identity(dim, grassmann_n).entries]
    rows[i - 1][j - 1] = value
    return SuperMatrix._from_rows(dim, rows, grassmann_n)


def dilation(
    dim: SuperDim, i: int, value, grassmann_n: int | None = None
) -> SuperMatrix:
    """Identity with the (i, i) entry replaced by an even invertible value."""
    size = dim.size
    if not 1 <= i <= size:
        raise DimensionError(f"index {i} not in 1..{size}")
    if grassmann_n is None:
        value = Fraction(value)
        if value == 0:
            raise NotInvertible("dilation value must be invertible")
    else:
        value = as_element(value, grassmann_n)
        if value.parity() != 0:
            raise ParityError("dilation value must be even")
        if value.body() == 0:
            raise NotInvertible("dilation value must have invertible body")
    rows = [list(row) for row in SuperMatrix.identity(dim, grassmann_n).entries]
    rows[i - 1][i - 1] = value
    return SuperMatrix._from_rows(dim, rows, grassmann_n)


# --- the rational Lie superalgebra -----------------------------------------


def block_parity(mat: SuperMatrix):
    """0 if supported on diagonal blocks, 1 if off-diagonal, None if mixed.

    The zero matrix reports 0; it is homogeneous of every parity and the
    convention never affects a bracket value.
    """
    if mat.grassmann_n is not None:
        raise DimensionError("block parity is for rational matrices")
    m = mat.dim.m
    seen = set()
    for i, row in enumerate(mat.entries):
        for j, e in enumerate(row):
            if e:
                seen.add(int((i < m) != (j < m)))
    if not seen:
        return 0
    if len(seen) == 1:
        return seen.pop()
    return None


def superbracket(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """{x, y} = xy - (-1)^{p(x)p(y)} yx for homogeneous rational matrices."""
    px, py = block_parity(x), block_parity(y)
    if px is None or py is None:
        raise ParityError("superbracket needs homogeneous arguments")
    xy = x * y
    yx = y * x
    if px and py:
        return xy + yx
    return xy - yx


def gl_point(coeff: GrassmannElement, mat: SuperMatrix) -> SuperMatrix:
    """The Lambda_N point of the superalgebra given by coeff (x) mat.

    For homogeneous coeff with p(coeff) = block parity of mat, the matrix
    realization consistent with ordinary left-to-right matrix products
    carries a row sign: entry (r, s) = (-1)^{p(coeff) p(r)} coeff * mat[r][s].
    With that realization the ordinary commutator of two such points matches
    the superbracket of the underlying rational matrices up to the usual
    interchange sign, which the test suite pins down.
    """
    pm = block_parity(mat)
    pc = coeff.parity()
    if pm is None or pc is None:
        raise ParityError("gl_point needs homogeneous coefficient and matrix")
    nonzero = not coeff.is_zero() and any(e != 0 for row in mat.entries for e in row)
    if nonzero and pm != pc:
        raise ParityError("coefficient parity must match the matrix block parity")
    n = coeff.num_generators
    zero = GrassmannElement.zero(n)
    rows = []
    for r, row in enumerate(mat.entries, start=1):
        sign = -1 if (pc and mat.dim.parity(r)) else 1
        rows.append([coeff * (sign * e) if e else zero for e in row])
    return SuperMatrix._from_rows(mat.dim, rows, n)


# --- seeded sampling of GL points ------------------------------------------


def _nth_mask(i: int, odd: bool) -> int:
    """The i-th nonzero mask of one parity, in ascending order, in O(1).

    Each pair {2k, 2k+1} holds one even and one odd mask, told apart by the
    parity p(k) of k: the even one is 2k + p(k), the odd one 2k + 1 - p(k).
    Mask 0 is left out, so the i-th even mask comes from pair k = i + 1.
    """
    if odd:
        return 2 * i + 1 - (i.bit_count() & 1)
    k = i + 1
    return 2 * k + (k.bit_count() & 1)


def _random_element(rng, n: int, odd: bool, max_terms: int = 2) -> GrassmannElement:
    """A rational body (even elements only) plus up to max_terms monomials
    of the given parity.

    random.sample picks by index from the population's length alone, so
    sampling indices from a range and unranking them draws exactly what
    sampling the listed masks did, without listing 2^(n-1) of them.
    """
    terms = {} if odd else {0: Fraction(rng.randint(-3, 3))}
    half = 1 << n >> 1  # masks of each parity below 2^n when n >= 1
    count = half if odd else max(half - 1, 0)
    for i in rng.sample(range(count), min(max_terms, count)):
        coeff = rng.randint(-2, 2)
        if coeff:
            terms[_nth_mask(i, odd)] = Fraction(coeff)
    return GrassmannElement(n, terms)


def random_gl_point(rng, dim: SuperDim, grassmann_n: int) -> SuperMatrix:
    """A seeded random GL point: even entries on-diagonal-block, odd off it,
    with both diagonal-block bodies invertible (resampled until they are)."""
    size = dim.size
    while True:
        rows = [
            [
                _random_element(rng, grassmann_n, odd=dim.parity(i) != dim.parity(j))
                for j in range(1, size + 1)
            ]
            for i in range(1, size + 1)
        ]
        candidate = SuperMatrix(dim, rows, grassmann_n)
        if candidate.is_gl_point():
            return candidate


# --- elementary factorization of classical invertible matrices -------------


def rational_elementary_factors(block: list[list[Fraction]]):
    """Factor an invertible rational matrix into transvections and dilations.

    Returns a list of ("transvection", i, j, value) / ("dilation", i, value)
    tuples (1-based, within the block) whose left-to-right product equals the
    input.  Gauss-Jordan reduces the block to I by row operations E_k...E_1;
    recording each operation's inverse as it is applied gives the block as
    the product inv_1 * inv_2 * ... * inv_k in that order.
    """
    size = len(block)
    if any(len(r) != size for r in block):
        raise DimensionError("need a square block")
    rows = [[Fraction(e) for e in row] for row in block]
    _, _, stuck, steps = _gauss_jordan(rows, (), Fraction(0), Fraction(1))
    if stuck is not None:
        raise NotInvertible("block is singular")
    ops = []
    for step in steps:
        if step[0] == "swap":
            # swap via add/subtract/add/negate, recording the four inverses
            a, b = step[1] + 1, step[2] + 1
            ops.extend(
                [
                    ("transvection", a, b, Fraction(-1)),
                    ("transvection", b, a, Fraction(1)),
                    ("transvection", a, b, Fraction(-1)),
                    ("dilation", b, Fraction(-1)),
                ]
            )
        elif step[0] == "scale":
            ops.append(("dilation", step[1] + 1, step[2]))
        else:
            ops.append(("transvection", step[1] + 1, step[2] + 1, step[3]))
    return ops


def realize_elementary_factors(dim: SuperDim, offset: int, ops) -> SuperMatrix:
    """Multiply out factor tuples from rational_elementary_factors, shifted
    by ``offset`` so a bottom-right block lands at indices m+1..m+n."""
    acc = SuperMatrix.identity(dim)
    for op in ops:
        if op[0] == "transvection":
            _, i, j, value = op
            acc = acc * transvection(dim, i + offset, j + offset, value)
        else:
            _, i, value = op
            acc = acc * dilation(dim, i + offset, value)
    return acc

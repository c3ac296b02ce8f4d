"""Block matrices over Q or a Grassmann algebra, graded (m|n).

Rows and columns 1..m are even, m+1..m+n are odd.  An even point has even
entries on the diagonal blocks and odd entries off them; a GL point is an
even point whose two diagonal blocks have invertible rational body.  Matrix
products are the ordinary row-by-column ones with factors multiplied left to
right, which matters once entries anticommute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, FormatError, NotInvertible, ParityError
from .grassmann import (
    GrassmannElement,
    as_element,
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


def _sum(values, zero):
    acc = zero
    for v in values:
        acc = acc + v
    return acc


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
        size = dim.size
        return cls(
            dim,
            [[1 if i == j else 0 for j in range(size)] for i in range(size)],
            grassmann_n,
        )

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
        return cls(
            dim,
            [
                [1 if (r, c) == (i - 1, j - 1) else 0 for c in range(size)]
                for r in range(size)
            ],
        )

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
        zero = self.zero_element
        rows = []
        for a_row in self.entries:
            out = [zero] * self.dim.size
            for a, b_row in zip(a_row, other.entries):
                if a:
                    for j, b in enumerate(b_row):
                        if b:
                            out[j] = out[j] + a * b
            rows.append(out)
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

    def entry_block_parity(self, i: int, j: int) -> int:
        """Parity of position (i, j): 0 on diagonal blocks, 1 off them."""
        return (self.dim.parity(i) + self.dim.parity(j)) % 2

    def is_even_point(self) -> bool:
        """Diagonal blocks even, off-diagonal blocks odd (entrywise)."""
        for i in range(1, self.dim.size + 1):
            for j in range(1, self.dim.size + 1):
                e = self.entries[i - 1][j - 1]
                want_odd = self.entry_block_parity(i, j) == 1
                if self.grassmann_n is None:
                    if want_odd and e != 0:
                        return False
                else:
                    bad = e.even_part() if want_odd else e.odd_part()
                    if not bad.is_zero():
                        return False
        return True

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
        top = [row[:m] for row in body[:m]]
        bottom = [row[m:] for row in body[m:]]
        return _rational_det(top) != 0 and _rational_det(bottom) != 0

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


def _rational_det(rows: list[list[Fraction]]) -> Fraction:
    size = len(rows)
    if size == 0:
        return Fraction(1)
    work = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, size):
            factor = work[r][col] * inv
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def _det_cofactor(rows, zero, one):
    """Laplace expansion with memoization on (depth, column mask).

    Always defined: uses only ring addition and multiplication, so it works
    even when no pivot is invertible.
    """
    size = len(rows)
    full = (1 << size) - 1
    cache: dict[tuple[int, int], object] = {}

    def minor(row: int, colmask: int):
        if row == size:
            return one
        key = (row, colmask)
        if key in cache:
            return cache[key]
        acc = zero
        sign = 1
        rest = colmask
        while rest:
            low = rest & -rest
            col = low.bit_length() - 1
            e = rows[row][col]
            if not (e == zero):
                term = e * minor(row + 1, colmask ^ low)
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
            rest ^= low
        cache[key] = acc
        return acc

    return minor(0, full)


def _det_eliminate(rows, zero, one):
    """Gaussian elimination dividing only by pivots with invertible body.

    When a column offers no such pivot the remaining minor is finished by
    cofactor expansion (division there would be ambiguous: the even subring
    of a Grassmann algebra has zero divisors).
    """
    size = len(rows)
    work = [list(r) for r in rows]
    det = one
    sign = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if _is_unit(work[r][col])), None)
        if pivot is None:
            sub = [row[col:] for row in work[col:]]
            tail = _det_cofactor(sub, zero, one)
            return (det * tail) if sign > 0 else -(det * tail)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        p = work[col][col]
        det = det * p
        inv = (1 / p) if isinstance(p, Fraction) else p.inverse()
        for r in range(col + 1, size):
            factor = work[r][col] * inv
            if not (factor == zero):
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det if sign > 0 else -det


def even_det(rows, zero=None, one=None, method: str = "auto"):
    """Determinant of a square matrix with entries in the even subring.

    Entries must commute (rationals, or even Grassmann elements); parity is
    the caller's responsibility since diagonal blocks of even points satisfy
    it by construction.  ``method`` is "auto" (cofactor up to 4x4, then
    elimination), "cofactor", or "eliminate" -- both paths give equal results
    and the test suite holds them to that.
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
    if size == 0:
        return one
    if method == "cofactor" or (method == "auto" and size <= 4):
        return _det_cofactor(rows, zero, one)
    if method in ("eliminate", "auto"):
        return _det_eliminate(rows, zero, one)
    raise ValueError(f"unknown determinant method {method!r}")


def even_matrix_inverse(rows, zero, one):
    """Inverse over the even subring via the adjugate; needs a unit determinant."""
    size = len(rows)
    det = even_det(rows, zero, one)
    if not _is_unit(det):
        raise NotInvertible("matrix determinant has zero body")
    det_inv = (1 / det) if isinstance(det, Fraction) else det.inverse()
    if size == 0:
        return []
    out = [[zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            minor = [
                [rows[r][c] for c in range(size) if c != j]
                for r in range(size)
                if r != i
            ]
            cof = even_det(minor, zero, one)
            if (i + j) & 1:
                cof = -cof
            out[j][i] = cof * det_inv
    return out


# --- supertrace, Berezinian, factorization --------------------------------


def supertrace(mat: SuperMatrix):
    """Trace of the top-left block minus trace of the bottom-right block."""
    m = mat.dim.m
    acc = mat.zero_element
    for i in range(mat.dim.size):
        d = mat.entries[i][i]
        acc = acc + d if i < m else acc - d
    return acc


def berezinian(mat: SuperMatrix):
    """det(W)^{-1} det(X - Y W^{-1} Z) for a GL point [[X, Y], [Z, W]]."""
    if not mat.is_gl_point():
        raise NotInvertible("Berezinian needs a GL point")
    zero, one = mat.zero_element, mat.one_element
    x, y, z, w = mat.blocks()
    m, n = mat.dim.m, mat.dim.n
    w_inv = even_matrix_inverse(w, zero, one)
    # schur = X - Y W^{-1} Z, an m x m matrix over the even subring
    schur = [
        [
            x[i][j]
            - _sum(
                (
                    y[i][a] * w_inv[a][b] * z[b][j]
                    for a in range(n)
                    for b in range(n)
                ),
                zero,
            )
            for j in range(m)
        ]
        for i in range(m)
    ]
    det_w = even_det(w, zero, one)
    det_w_inv = (1 / det_w) if isinstance(det_w, Fraction) else det_w.inverse()
    return det_w_inv * even_det(schur, zero, one)


def ldu_factor(mat: SuperMatrix):
    """Write a GL point as upper * blockdiag * lower.

    upper = [[I, Y W^{-1}], [0, I]], blockdiag = [[X - Y W^{-1} Z, 0], [0, W]],
    lower = [[I, 0], [W^{-1} Z, I]].  The Schur complement in blockdiag is the
    numerator of the Berezinian.
    """
    if not mat.is_gl_point():
        raise NotInvertible("LDU factorization needs a GL point")
    zero, one = mat.zero_element, mat.one_element
    x, y, z, w = mat.blocks()
    m, n = mat.dim.m, mat.dim.n
    size = mat.dim.size
    w_inv = even_matrix_inverse(w, zero, one)
    y_winv = [
        [_sum((y[i][a] * w_inv[a][j] for a in range(n)), zero) for j in range(n)]
        for i in range(m)
    ]
    winv_z = [
        [_sum((w_inv[i][a] * z[a][j] for a in range(n)), zero) for j in range(m)]
        for i in range(n)
    ]
    schur = [
        [
            x[i][j] - _sum((y_winv[i][a] * z[a][j] for a in range(n)), zero)
            for j in range(m)
        ]
        for i in range(m)
    ]

    def assemble(top_left, top_right, bottom_left, bottom_right):
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                if i < m and j < m:
                    row.append(top_left[i][j])
                elif i < m:
                    row.append(top_right[i][j - m])
                elif j < m:
                    row.append(bottom_left[i - m][j])
                else:
                    row.append(bottom_right[i - m][j - m])
            rows.append(row)
        return SuperMatrix(mat.dim, rows, mat.grassmann_n)

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
    rows = [[1 if r == c else 0 for c in range(size)] for r in range(size)]
    rows[i - 1][j - 1] = value
    return SuperMatrix(dim, rows, grassmann_n)


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
    rows = [[1 if r == c else 0 for c in range(size)] for r in range(size)]
    rows[i - 1][i - 1] = value
    return SuperMatrix(dim, rows, grassmann_n)


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


def _random_even_element(rng, n: int, max_terms: int = 2) -> GrassmannElement:
    terms = {0: Fraction(rng.randint(-3, 3))}
    masks = [m for m in range(1, 1 << n) if m.bit_count() % 2 == 0]
    for mask in rng.sample(masks, min(max_terms, len(masks))):
        coeff = rng.randint(-2, 2)
        if coeff:
            terms[mask] = Fraction(coeff)
    return GrassmannElement(n, terms)


def _random_odd_element(rng, n: int, max_terms: int = 2) -> GrassmannElement:
    masks = [m for m in range(1, 1 << n) if m.bit_count() % 2 == 1]
    terms = {}
    for mask in rng.sample(masks, min(max_terms, len(masks))):
        coeff = rng.randint(-2, 2)
        if coeff:
            terms[mask] = Fraction(coeff)
    return GrassmannElement(n, terms)


def random_gl_point(rng, dim: SuperDim, grassmann_n: int) -> SuperMatrix:
    """A seeded random GL point: even entries on-diagonal-block, odd off it,
    with both diagonal-block bodies invertible (resampled until they are)."""
    size = dim.size
    while True:
        rows = [
            [
                _random_even_element(rng, grassmann_n)
                if (dim.parity(i) + dim.parity(j)) % 2 == 0
                else _random_odd_element(rng, grassmann_n)
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
    work = [[Fraction(e) for e in row] for row in block]
    ops = []
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot is None:
            raise NotInvertible("block is singular")
        if pivot != col:
            # swap via add/subtract/add/negate, recording the four inverses
            a, b = col + 1, pivot + 1
            work[col], work[pivot] = work[pivot], work[col]
            ops.extend(
                [
                    ("transvection", a, b, Fraction(-1)),
                    ("transvection", b, a, Fraction(1)),
                    ("transvection", a, b, Fraction(-1)),
                    ("dilation", b, Fraction(-1)),
                ]
            )
        p = work[col][col]
        if p != 1:
            work[col] = [e / p for e in work[col]]
            ops.append(("dilation", col + 1, p))
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                ops.append(("transvection", r + 1, col + 1, factor))
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

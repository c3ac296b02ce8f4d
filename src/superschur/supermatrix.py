"""Block matrices over Q or a Grassmann algebra, graded (m|n).

Rows and columns 1..m are even, m+1..m+n are odd.  An even point has even
entries on the diagonal blocks and odd entries off them; a GL point is an
even point whose two diagonal blocks have invertible rational body.  Matrix
products are the ordinary row-by-column ones with factors multiplied left to
right, which matters once entries anticommute.  Over Lambda_N each product
entry, and each entry a row operation updates, is one call of the Grassmann
kernel ``_sum_of_products``, so it is normalized once, not once per term.

A matrix is the tensor operator of degree r = 1 (rho(g) = g and theta(x) = x
there), and it is stored as one: SuperMatrix and tensor.TensorOperator share
the base class _Sparse, its layout and its product, sum, scale, equality and
hash.  The layout keeps only the nonzero entries, by 0-based column, so
products, sums, brackets and the block parity cost the nonzeros they touch:
an elementary matrix E_ij, or a Lambda_N point of one, holds a single entry.
The elimination below works on dense rows, read from the ``entries`` view.

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

from fractions import Fraction

from .errors import DimensionError, FormatError, NotInvertible, ParityError
from .grassmann import (
    GrassmannElement,
    _sum_of_products,
    as_element,
    check_generators,
    exact_rational,
    is_json_int,
    rational_parts,
)

_EMPTY: dict = {}  # the column an operator does not store


class SuperDim:
    """The graded dimension (m|n): m even basis directions, n odd ones.

    An immutable value: it equals only another SuperDim with the same m and
    n, and hashes as the pair (m, n).
    """

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 0 or n < 0 or m + n < 1:
            raise DimensionError("need m, n >= 0 with m + n >= 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("SuperDim is immutable")

    def __eq__(self, other):
        if other.__class__ is not SuperDim:
            return NotImplemented
        return self.m == other.m and self.n == other.n

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return f"SuperDim(m={self.m!r}, n={self.n!r})"

    @property
    def size(self) -> int:
        return self.m + self.n

    def parity(self, index: int) -> int:
        """Parity of the 1-based basis index: 0 for 1..m, 1 for m+1..m+n."""
        if not 1 <= index <= self.size:
            raise DimensionError(f"index {index} not in 1..{self.size}")
        return 0 if index <= self.m else 1


class _Sparse:
    """A square matrix over Q (``grassmann_n is None``) or Lambda_N, acting
    on the r-fold tensor power of a (m|n) space: the layout and arithmetic
    that SuperMatrix (r = 1) and tensor.TensorOperator share.

    ``cols`` maps each column j that holds a nonzero entry to its column:
    ``cols[j]`` maps each row i to the nonzero entry (i, j), both 0-based.
    Neither empty columns nor zeros are ever stored, so equal operands have
    equal maps.  The maps are shared between operands and must not be
    changed.  A rational entry is an int when it is integral and a Fraction
    otherwise (see exact_rational), so integer operands multiply in int
    arithmetic.  A product of Fractions that comes out integral may stay a
    Fraction; it compares and hashes equal to the int, so equality never
    sees the form.  Each class meets only itself: ``*``, ``+`` and ``-`` with
    any other operand raise TypeError, and ``==`` is False.
    """

    __slots__ = ("dim", "r", "grassmann_n", "cols")

    def __new__(cls, dim: SuperDim, r: int, rows, grassmann_n: int | None = None):
        """The operand with the given dense rows of ints, Fractions or (over
        Lambda_N) Grassmann elements."""
        side = dim.size ** r
        if len(rows) != side or any(len(row) != side for row in rows):
            raise DimensionError(f"rows must be {side}x{side}")
        exact = _rational if grassmann_n is None else lambda e: as_element(e, grassmann_n)
        cols = _columns([exact(e) for e in row] for row in rows)
        return cls._from_cols(dim, r, cols, grassmann_n)

    @classmethod
    def _from_cols(cls, dim: SuperDim, r: int, cols, grassmann_n: int | None = None):
        """Wrap a {column: {row: entry}} map of nonempty columns whose
        entries are already exact and nonzero."""
        op = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(op, "dim", dim)
        setattr_(op, "r", r)
        setattr_(op, "grassmann_n", grassmann_n)
        setattr_(op, "cols", cols)
        return op

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def identity(cls, dim: SuperDim, r: int, grassmann_n: int | None = None):
        one = 1 if grassmann_n is None else GrassmannElement.scalar(grassmann_n, 1)
        return cls._from_cols(dim, r, {j: {j: one} for j in range(dim.size ** r)}, grassmann_n)

    # --- ring plumbing --------------------------------------------------

    @property
    def side(self) -> int:
        return self.dim.size ** self.r

    # grassmann_n was checked when the operand was built, so the ring's zero
    # and one are wrapped directly, without the checks of GrassmannElement()

    @property
    def zero_element(self):
        if self.grassmann_n is None:
            return 0
        return GrassmannElement._wrap(self.grassmann_n, {}, 1)

    @property
    def one_element(self):
        if self.grassmann_n is None:
            return 1
        return GrassmannElement._wrap(self.grassmann_n, {0: 1}, 1)

    @property
    def entries(self) -> tuple:
        """A dense read-only view: the rows, zeros filled in."""
        side, zero = self.side, self.zero_element
        rows = [[zero] * side for _ in range(side)]
        for j, col in self.cols.items():
            for i, e in col.items():
                rows[i][j] = e
        return tuple(tuple(row) for row in rows)

    def _same_space(self, other) -> bool:
        """Whether other is of this class; raises DimensionError when it is
        but acts on another space or over another ring."""
        if other.__class__ is not self.__class__:
            return False
        if (
            (self.dim is not other.dim and self.dim != other.dim)
            or self.r != other.r
            or self.grassmann_n != other.grassmann_n
        ):
            raise DimensionError("operands live on different spaces or rings")
        return True

    # --- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        """(AB)[:, j] = sum_k A[:, k] B[k, j], over the nonzeros of both.

        Each term is formed as a * b, in that order: odd Grassmann entries
        anticommute.  Only the stored columns are visited: a column j of B
        and a column k of A meet only when B[k, j] is stored.  Over Lambda_N
        the pairs of each output entry are collected first and summed by one
        _sum_of_products call; over Q adding each term in place is faster
        than collecting them, and a column of B with one entry b at row k
        gives the column A[:, k] * b directly: a product of nonzero
        rationals is nonzero, and an int 1 leaves A's column as it is, so
        it is shared.
        """
        if not self._same_space(other):
            return NotImplemented
        a_cols = self.cols
        cols = {}
        n = self.grassmann_n
        for j, b_col in other.cols.items():
            if n is not None:
                terms = {}
                for k, b in b_col.items():
                    for i, a in a_cols.get(k, _EMPTY).items():
                        if i in terms:
                            terms[i].append((a, b))
                        else:
                            terms[i] = [(a, b)]
                col = {i: e for i, pairs in terms.items() if (e := _sum_of_products(n, pairs))}
            elif len(b_col) == 1:
                [(k, b)] = b_col.items()
                col = a_cols.get(k, _EMPTY)
                if not (type(b) is int and b == 1):
                    col = {i: a * b for i, a in col.items()}
            else:
                acc = {}
                for k, b in b_col.items():
                    for i, a in a_cols.get(k, _EMPTY).items():
                        term = a * b
                        acc[i] = acc[i] + term if i in acc else term
                col = {i: e for i, e in acc.items() if e}
            if col:
                cols[j] = col
        return self._from_cols(self.dim, self.r, cols, n)

    def _combine(self, other, subtract: bool):
        """self + other, or self - other: a column stored on one side only
        is shared, or negated, as it stands; only the columns both store are
        merged."""
        if not self._same_space(other):
            return NotImplemented
        cols = dict(self.cols)
        for j, b_col in other.cols.items():
            if j not in cols:
                cols[j] = {i: -b for i, b in b_col.items()} if subtract else b_col
                continue
            out = dict(cols[j])
            for i, b in b_col.items():
                if i not in out:
                    out[i] = -b if subtract else b
                    continue
                e = out[i] - b if subtract else out[i] + b
                if e:
                    out[i] = e
                else:
                    del out[i]
            if out:
                cols[j] = out
            else:
                del cols[j]
        return self._from_cols(self.dim, self.r, cols, self.grassmann_n)

    def __add__(self, other):
        return self._combine(other, subtract=False)

    def __sub__(self, other):
        return self._combine(other, subtract=True)

    def scale(self, value):
        """Multiply every entry by a central scalar (int or Fraction)."""
        factor = exact_rational(value)
        cols = (
            {j: {i: e * factor for i, e in col.items()} for j, col in self.cols.items()}
            if factor
            else {}
        )
        return self._from_cols(self.dim, self.r, cols, self.grassmann_n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.dim is other.dim or self.dim == other.dim)
            and self.r == other.r
            and self.grassmann_n == other.grassmann_n
            and self.cols == other.cols
        )

    def __hash__(self):
        cols = frozenset((j, frozenset(col.items())) for j, col in self.cols.items())
        return hash((self.dim, self.r, self.grassmann_n, cols))


def _rational(e):
    if isinstance(e, GrassmannElement):
        raise DimensionError("rational matrix cannot hold Grassmann entries")
    return exact_rational(e)


def _columns(rows, cols=None, top: int = 0, left: int = 0) -> dict:
    """Add the nonzero entries of dense rows, placed ``top`` rows down and
    ``left`` columns across, to a {column: {row: entry}} map: ``cols``, or
    a new one."""
    cols = {} if cols is None else cols
    for i, row in enumerate(rows, start=top):
        for j, e in enumerate(row, start=left):
            if e:
                cols.setdefault(j, {})[i] = e
    return cols


class SuperMatrix(_Sparse):
    """A square matrix over Q (``grassmann_n is None``) or Lambda_N: the
    operator of degree r = 1, stored in _Sparse's layout, so ``cols[b]``
    holds column b + 1 of the matrix.  ``terms`` reads it keyed 1-based as
    in E_ab, and ``entries`` as dense rows.
    """

    __slots__ = ()

    def __new__(cls, dim: SuperDim, entries, grassmann_n: int | None = None):
        return _Sparse.__new__(cls, dim, 1, entries, grassmann_n)

    __mul__ = _Sparse.__mul__  # its own name, which benchmarks/tracing.py wraps

    @classmethod
    def identity(cls, dim: SuperDim, grassmann_n: int | None = None) -> "SuperMatrix":
        return super().identity(dim, 1, grassmann_n)

    @classmethod
    def elementary(cls, dim: SuperDim, i: int, j: int) -> "SuperMatrix":
        """The rational matrix with a single 1 in row i, column j (1-based)."""
        size = dim.size
        if not (1 <= i <= size and 1 <= j <= size):
            raise DimensionError(f"position ({i},{j}) not in 1..{size}")
        return cls._from_cols(dim, 1, {j - 1: {i - 1: 1}})

    @property
    def terms(self) -> dict:
        """A new {(a, b): entry} map of the nonzero entries, keyed 1-based:
        the matrix is the sum of terms[a, b] * E_ab."""
        return {(i + 1, j + 1): e for j, col in self.cols.items() for i, e in col.items()}

    def __repr__(self):
        # rational entries print as Fractions whatever their stored form
        show = repr if self.grassmann_n is not None else lambda e: repr(Fraction(e))
        body = "; ".join(
            "[" + ", ".join(show(e) for e in row) + "]" for row in self.entries
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
            (0 if rational else e.parity()) == int((i < m) != (j < m))
            for j, col in self.cols.items()
            for i, e in col.items()
        )

    def body_matrix(self) -> list[list]:
        if self.grassmann_n is None:
            return [list(row) for row in self.entries]
        return [[e.body() for e in row] for row in self.entries]

    def is_gl_point(self) -> bool:
        """Even point whose diagonal-block bodies are invertible over Q."""
        return _gl_blocks(self) is not None

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
            parts = ([rational_parts(e, "entry") for e in row] for row in entries)
            rows = [[p if q == 1 else Fraction(p, q) for p, q in row] for row in parts]
            return cls._from_cols(dim, 1, _columns(rows))
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
                        parsed.append(GrassmannElement.scalar_from_json(gn, e))
                rows.append(parsed)
            return cls._from_cols(dim, 1, _columns(rows), gn)
        raise FormatError("'ring' must be 'Q' or 'grassmann'")


# --- determinants over the even commutative subring ---------------------


def _is_unit(e) -> bool:
    if isinstance(e, GrassmannElement):
        return e.body() != 0
    return e != 0


def _inverse(e):
    return e.inverse() if isinstance(e, GrassmannElement) else 1 / Fraction(e)


def _generators(zero):
    """N for the ring Lambda_N that ``zero`` lives in; None over Q."""
    return zero.num_generators if isinstance(zero, GrassmannElement) else None


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

    Over Lambda_N, rational entries of ``rows`` and ``rhs`` are lifted first,
    since the row update hands every entry to the Grassmann kernel.
    """
    size = len(rows)
    work = [list(row) for row in rows]
    for row, extra in zip(work, rhs):
        row.extend(extra)
    width = len(work[0]) if work else 0
    n = _generators(zero)
    if n is not None:
        work = [[as_element(e, n) for e in row] for row in work]
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
                if n is not None:
                    neg = -factor
                    for j in range(col + 1, width):
                        if prow[j]:
                            row[j] = _sum_of_products(n, ((neg, prow[j]),), row[j])
                else:
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
        sample = rows[0][0] if size else 0
        if isinstance(sample, GrassmannElement):
            zero = GrassmannElement.zero(sample.num_generators)
            one = GrassmannElement.scalar(sample.num_generators, 1)
        else:
            zero, one = 0, 1
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
    for j, col in mat.cols.items():
        e = col.get(j)
        if e is not None:
            acc = acc + e if j < m else acc - e
    return acc


def _block_product(a, b, width, zero):
    """a * b for blocks given as lists of rows, b with ``width`` columns,
    over the nonzero entries of both, each term formed left factor first.
    Over Lambda_N the terms of each entry are collected first and summed by
    one _sum_of_products call; over Q adding each term in place is faster
    than collecting them."""
    n = _generators(zero)
    rows = []
    for a_row in a:
        out = [zero] * width
        if n is None:
            for x, b_row in zip(a_row, b):
                if x:
                    for j, y in enumerate(b_row):
                        if y:
                            out[j] = out[j] + x * y
        else:
            terms = {}
            for x, b_row in zip(a_row, b):
                if x:
                    for j, y in enumerate(b_row):
                        if y:
                            if j in terms:
                                terms[j].append((x, y))
                            else:
                                terms[j] = [(x, y)]
            for j, pairs in terms.items():
                out[j] = _sum_of_products(n, pairs)
        rows.append(out)
    return rows


def _gl_blocks(mat: SuperMatrix):
    """The blocks (X, Y, Z, W) of mat when it is a GL point, else None."""
    if not mat.is_even_point():
        return None
    blocks = mat.blocks()
    x, _, _, w = blocks
    for block in (x, w):
        if mat.grassmann_n is not None:
            block = [[e.body() for e in row] for row in block]
        if _gauss_jordan(block, (), 0, 1)[2] is not None:
            return None
    return blocks


def _schur_parts(mat: SuperMatrix, blocks, with_inverse: bool):
    """det W, W^-1 (None unless ``with_inverse``), W^-1 Z and X - Y W^-1 Z
    for an even point [[X, Y], [Z, W]] given with its blocks, or None when
    the body of W is singular.

    One elimination of [W | I | Z], or of [W | Z] without the inverse,
    gives det W, W^-1 and W^-1 Z.
    """
    zero, one = mat.zero_element, mat.one_element
    x, y, z, w = blocks
    m, n = mat.dim.m, mat.dim.n
    k = n if with_inverse else 0  # identity columns carried along
    rhs = [[one if i == j else zero for j in range(k)] + z_row for i, z_row in enumerate(z)]
    det_w, work, stuck, _ = _gauss_jordan(w, rhs, zero, one)
    if stuck is not None:
        return None
    w_inv = [row[n : n + k] for row in work] if with_inverse else None
    winv_z = [row[n + k :] for row in work]
    y_winv_z = _block_product(y, winv_z, m, zero)
    schur = [
        [a - b if b else a for a, b in zip(x_row, p_row)]
        for x_row, p_row in zip(x, y_winv_z)
    ]
    return det_w, w_inv, winv_z, schur


def berezinian(mat: SuperMatrix):
    """det(W)^{-1} det(X - Y W^{-1} Z) for a GL point [[X, Y], [Z, W]]; an
    even point is one exactly when W and X - Y W^-1 Z eliminate to the end."""
    parts = _schur_parts(mat, mat.blocks(), with_inverse=False) if mat.is_even_point() else None
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
    blocks = _gl_blocks(mat)
    if blocks is None:
        raise NotInvertible("LDU factorization needs a GL point")
    m = mat.dim.m
    _, w_inv, winv_z, schur = _schur_parts(mat, blocks, with_inverse=True)
    _, y, _, w = blocks
    y_winv = _block_product(y, w_inv, mat.dim.n, mat.zero_element)
    one = mat.one_element
    # two identities: _columns adds each block into the map it is given
    upper, lower = ({j: {j: one} for j in range(mat.dim.size)} for _ in range(2))
    factors = (
        _columns(y_winv, upper, 0, m),
        _columns(w, _columns(schur), m, m),
        _columns(winv_z, lower, m, 0),
    )
    return tuple(SuperMatrix._from_cols(mat.dim, 1, cols, mat.grassmann_n) for cols in factors)


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
        value = exact_rational(value)
        if want == 1 and value != 0:
            raise ParityError("odd slot needs an odd element, not a rational")
    else:
        value = as_element(value, grassmann_n)
        if not value.is_zero() and value.parity() != want:
            raise ParityError(f"slot ({i},{j}) needs parity {want}")
    cols = SuperMatrix.identity(dim, grassmann_n).cols
    if value:
        cols = {**cols, j - 1: {**cols[j - 1], i - 1: value}}
    return SuperMatrix._from_cols(dim, 1, cols, grassmann_n)


def dilation(
    dim: SuperDim, i: int, value, grassmann_n: int | None = None
) -> SuperMatrix:
    """Identity with the (i, i) entry replaced by an even invertible value."""
    size = dim.size
    if not 1 <= i <= size:
        raise DimensionError(f"index {i} not in 1..{size}")
    if grassmann_n is None:
        value = exact_rational(value)
        if value == 0:
            raise NotInvertible("dilation value must be invertible")
    else:
        value = as_element(value, grassmann_n)
        if value.parity() != 0:
            raise ParityError("dilation value must be even")
        if value.body() == 0:
            raise NotInvertible("dilation value must have invertible body")
    cols = {**SuperMatrix.identity(dim, grassmann_n).cols, i - 1: {i - 1: value}}
    return SuperMatrix._from_cols(dim, 1, cols, grassmann_n)


# --- the rational Lie superalgebra -----------------------------------------


def block_parity(mat: SuperMatrix):
    """0 if supported on diagonal blocks, 1 if off-diagonal, None if mixed.

    The zero matrix reports 0; it is homogeneous of every parity and the
    convention never affects a bracket value.
    """
    if mat.grassmann_n is not None:
        raise DimensionError("block parity is for rational matrices")
    m = mat.dim.m
    seen = {(i < m) != (j < m) for j, col in mat.cols.items() for i in col}
    if len(seen) > 1:
        return None
    return int(seen.pop()) if seen else 0


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
    if coeff and mat.cols and pm != pc:
        raise ParityError("coefficient parity must match the matrix block parity")
    m = mat.dim.m
    cols = {}
    for j, col in mat.cols.items():
        col = {i: point for i, e in col.items() if (point := coeff * (-e if pc and i >= m else e))}
        if col:
            cols[j] = col
    return SuperMatrix._from_cols(mat.dim, 1, cols, coeff.num_generators)


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
    rows = [[Fraction(exact_rational(e)) for e in row] for row in block]
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

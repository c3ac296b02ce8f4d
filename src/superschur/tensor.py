"""Signed actions on r-fold tensor powers of a graded vector space.

Basis words are r-tuples of 1-based letters, listed lexicographically.  An
operator keeps one sparse column per basis word: column k maps the index of
each word in the image of the k-th basis word to its nonzero coefficient.
Products, sums and comparisons touch only those nonzeros, so a product costs
the nonzero pairs A[i, k] B[k, j] that it multiplies, not side^3; the
builders below write their columns directly.

Three actions live here:

* place permutations: position k of ``word . sigma`` holds letter
  ``word[sigma(k)]``; the sign for a transposition of positions i < j is
  -1 when both letters are odd, times an extra -1 for every odd letter
  strictly between them when the two swapped letters differ in parity
  (moving an odd letter across odd letters costs a sign).  With that rule
  any two transposition decompositions of a permutation give the same
  operator.
* derivations: a homogeneous square matrix x acts in each position, the
  term at position k carrying (-1)^{p(x) * (odd letters strictly before k)}.
  The per-position signs of the derivation actions all come from
  ``_position_signs``.
* the diagonal group action: a GL point g acts in every position at once;
  expanding the product puts each matrix entry past the new letters to its
  right, so the entry chosen at position k carries
  (-1)^{p(entry) * (odd new letters strictly after k)}.  This is the unique
  sign bookkeeping for which the action is multiplicative under ordinary
  left-to-right matrix products; the test suite holds it to that.

Permutations are tuples in one-line notation (1-based images).  Products
compose left to right on places: ``compose(s, p)(k) = p(s(k))``, and
``operator(s) @ operator(p) == operator(compose(s, p))``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DimensionError, ParityError
from .grassmann import GrassmannElement, as_element
from .supermatrix import SuperDim, SuperMatrix, block_parity

Word = tuple[int, ...]
Perm = tuple[int, ...]


# --- words -----------------------------------------------------------------


def basis_words(dim: SuperDim, r: int) -> list[Word]:
    if r < 1:
        raise DimensionError("tensor degree must be at least 1")
    return list(itertools.product(range(1, dim.size + 1), repeat=r))


def word_index(dim: SuperDim, word: Word) -> int:
    idx = 0
    for letter in word:
        if not 1 <= letter <= dim.size:
            raise DimensionError(f"letter {letter} not in 1..{dim.size}")
        idx = idx * dim.size + (letter - 1)
    return idx


def swap_letters(dim: SuperDim, word: Word, i: int, j: int) -> tuple[int, Word]:
    """Signed swap of positions i < j (1-based): returns (sign, new word)."""
    r = len(word)
    if not 1 <= i < j <= r:
        raise DimensionError(f"need 1 <= i < j <= {r}")
    pi = dim.parity(word[i - 1])
    pj = dim.parity(word[j - 1])
    between = sum(dim.parity(word[k]) for k in range(i, j - 1))
    exponent = pi * pj + (pi + pj) * between
    swapped = list(word)
    swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
    return (-1 if exponent & 1 else 1), tuple(swapped)


# --- permutations (one-line notation, 1-based) -------------------------------


def identity_perm(r: int) -> Perm:
    return tuple(range(1, r + 1))


def compose(first: Perm, then: Perm) -> Perm:
    """Left-to-right composition on places: result(k) = then(first(k))."""
    if len(first) != len(then):
        raise DimensionError("permutations act on different numbers of places")
    return tuple(then[f - 1] for f in first)


def transposition_perm(r: int, i: int, j: int) -> Perm:
    perm = list(range(1, r + 1))
    perm[i - 1], perm[j - 1] = j, i
    return tuple(perm)


def all_perms(r: int):
    return (tuple(p) for p in itertools.permutations(range(1, r + 1)))


def adjacent_decomposition(sigma: Perm) -> list[tuple[int, int]]:
    """Adjacent transpositions whose operators compose (left to right) to sigma.

    Bubble sort on the one-line form: each recorded swap (i, i+1) multiplies
    the running permutation on the right, so the recorded sequence satisfies
    compose(t_1, t_2, ..., t_k) == sigma.
    """
    arr = list(sigma)
    swaps: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append((i + 1, i + 2))
                changed = True
    return swaps


def cycle_decomposition(sigma: Perm) -> list[tuple[int, int]]:
    """General transpositions composing (left to right) to sigma.

    Each cycle (c1 c2 ... cl) contributes (c_{l-1}, c_l), ..., (c1, c2) in
    that order.
    """
    r = len(sigma)
    seen = [False] * r
    out: list[tuple[int, int]] = []
    for start in range(1, r + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        nxt = sigma[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt - 1] = True
            nxt = sigma[nxt - 1]
        for a, b in zip(cycle[-2::-1], cycle[:0:-1]):
            out.append((min(a, b), max(a, b)))
    return out


def _check_decomposition(sigma: Perm, pairs) -> None:
    acc = identity_perm(len(sigma))
    for i, j in pairs:
        acc = compose(acc, transposition_perm(len(sigma), i, j))
    if acc != sigma:
        raise AssertionError(f"decomposition {pairs} does not rebuild {sigma}")


# --- operators ---------------------------------------------------------------

class TensorOperator:
    """Endomorphism of the r-fold tensor power, over Q or Lambda_N.

    ``cols[j]`` maps each row i to the nonzero entry (i, j): a Fraction over
    Q, a GrassmannElement over Lambda_N.  Zeros are never stored, so equal
    operators have equal column maps.
    """

    __slots__ = ("dim", "r", "grassmann_n", "cols")

    def __init__(self, dim: SuperDim, r: int, rows, grassmann_n: int | None = None):
        """The operator with the given dense rows of ints, Fractions or
        (over Lambda_N) Grassmann elements."""
        side = dim.size ** r
        if len(rows) != side or any(len(row) != side for row in rows):
            raise DimensionError(f"operator matrix must be {side}x{side}")
        if grassmann_n is None:
            exact = Fraction
        else:
            exact = lambda e: as_element(e, grassmann_n)
        cols = [{} for _ in range(side)]
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                e = exact(e)
                if e:
                    cols[j][i] = e
        _fill(self, dim, r, grassmann_n, cols)

    @classmethod
    def _from_cols(
        cls, dim: SuperDim, r: int, cols, grassmann_n: int | None = None
    ) -> "TensorOperator":
        """Wrap column maps whose entries are already exact and nonzero."""
        op = object.__new__(cls)
        _fill(op, dim, r, grassmann_n, cols)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("TensorOperator is immutable")

    @property
    def side(self) -> int:
        return self.dim.size ** self.r

    @property
    def zero_element(self):
        if self.grassmann_n is None:
            return Fraction(0)
        return GrassmannElement.zero(self.grassmann_n)

    @property
    def matrix(self) -> tuple:
        """A dense read-only view: the rows, zeros filled in."""
        side = self.side
        zero = self.zero_element
        rows = [[zero] * side for _ in range(side)]
        for j, col in enumerate(self.cols):
            for i, e in col.items():
                rows[i][j] = e
        return tuple(tuple(row) for row in rows)

    @classmethod
    def identity(
        cls, dim: SuperDim, r: int, grassmann_n: int | None = None
    ) -> "TensorOperator":
        one = Fraction(1) if grassmann_n is None else GrassmannElement.scalar(grassmann_n, 1)
        return cls._from_cols(dim, r, [{j: one} for j in range(dim.size ** r)], grassmann_n)

    @classmethod
    def zero(
        cls, dim: SuperDim, r: int, grassmann_n: int | None = None
    ) -> "TensorOperator":
        return cls._from_cols(dim, r, [{} for _ in range(dim.size ** r)], grassmann_n)

    def lift(self, grassmann_n: int) -> "TensorOperator":
        if self.grassmann_n is not None:
            if self.grassmann_n != grassmann_n:
                raise DimensionError("operator already lives over a different ring")
            return self
        cols = [
            {i: as_element(e, grassmann_n) for i, e in col.items()} for col in self.cols
        ]
        return TensorOperator._from_cols(self.dim, self.r, cols, grassmann_n)

    def _check_compatible(self, other: "TensorOperator"):
        if (
            self.dim != other.dim
            or self.r != other.r
            or self.grassmann_n != other.grassmann_n
        ):
            raise DimensionError("operators live on different spaces")

    def __mul__(self, other):
        """(AB)[:, j] = sum_k A[:, k] B[k, j], over the nonzeros of both.

        Each term is formed as a * b, in that order: odd Grassmann entries
        anticommute.
        """
        if not isinstance(other, TensorOperator):
            return NotImplemented
        self._check_compatible(other)
        a_cols = self.cols
        cols = []
        for b_col in other.cols:
            acc = {}
            for k, b in b_col.items():
                for i, a in a_cols[k].items():
                    term = a * b
                    acc[i] = acc[i] + term if i in acc else term
            cols.append({i: e for i, e in acc.items() if e})
        return TensorOperator._from_cols(self.dim, self.r, cols, self.grassmann_n)

    def _combine(self, other: "TensorOperator", subtract: bool) -> "TensorOperator":
        self._check_compatible(other)
        cols = []
        for a_col, b_col in zip(self.cols, other.cols):
            out = dict(a_col)
            for i, b in b_col.items():
                if i not in out:
                    out[i] = -b if subtract else b
                    continue
                e = out[i] - b if subtract else out[i] + b
                if e:
                    out[i] = e
                else:
                    del out[i]
            cols.append(out)
        return TensorOperator._from_cols(self.dim, self.r, cols, self.grassmann_n)

    def __add__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return self._combine(other, subtract=False)

    def __sub__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return self._combine(other, subtract=True)

    def scale(self, value) -> "TensorOperator":
        factor = Fraction(value)
        cols = [
            {i: e * factor for i, e in col.items()} if factor else {}
            for col in self.cols
        ]
        return TensorOperator._from_cols(self.dim, self.r, cols, self.grassmann_n)

    def __eq__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.r == other.r
            and self.grassmann_n == other.grassmann_n
            and self.cols == other.cols
        )

    def __hash__(self):
        cols = tuple(frozenset(col.items()) for col in self.cols)
        return hash((self.dim, self.r, self.grassmann_n, cols))

    def __repr__(self):
        ring = "Q" if self.grassmann_n is None else f"Lambda_{self.grassmann_n}"
        return f"TensorOperator(({self.dim.m}|{self.dim.n})^r={self.r} over {ring})"

    def apply_word(self, word: Word) -> list:
        """The image column of a basis word, as a dense coefficient list."""
        col = self.cols[word_index(self.dim, word)]
        zero = self.zero_element
        return [col.get(i, zero) for i in range(self.side)]


def _fill(op: TensorOperator, dim: SuperDim, r: int, grassmann_n, cols) -> None:
    setattr_ = object.__setattr__
    setattr_(op, "dim", dim)
    setattr_(op, "r", r)
    setattr_(op, "grassmann_n", grassmann_n)
    setattr_(op, "cols", tuple(cols))


_SIGN = {1: Fraction(1), -1: Fraction(-1)}


# --- the symmetric group action ----------------------------------------------


def transposition_operator(dim: SuperDim, r: int, i: int, j: int) -> TensorOperator:
    """The signed operator swapping tensor positions i < j."""
    cols = []
    for word in basis_words(dim, r):
        sign, image = swap_letters(dim, word, i, j)
        cols.append({word_index(dim, image): _SIGN[sign]})
    return TensorOperator._from_cols(dim, r, cols)


def operator_from_transpositions(dim: SuperDim, r: int, pairs) -> TensorOperator:
    acc = TensorOperator.identity(dim, r)
    for i, j in pairs:
        acc = acc * transposition_operator(dim, r, i, j)
    return acc


def permutation_operator(dim: SuperDim, r: int, sigma: Perm) -> TensorOperator:
    """The signed place-permutation operator for sigma (one-line, 1-based)."""
    if len(sigma) != r or sorted(sigma) != list(range(1, r + 1)):
        raise DimensionError(f"{sigma!r} is not a permutation of 1..{r}")
    pairs = adjacent_decomposition(sigma)
    _check_decomposition(sigma, pairs)
    return operator_from_transpositions(dim, r, pairs)


# --- the derivation action ----------------------------------------------------


def _position_signs(dim: SuperDim, word: Word, parity: int, odd_count: str):
    """Yield (position, sign) for each 0-based position k of the word.

    The sign is (-1)^{parity * o(k)}, where o(k) counts the odd letters
    strictly before k ("exclusive"), before and at k ("inclusive"), or
    strictly after k ("suffix").
    """
    odd = [dim.parity(letter) for letter in word]
    after = sum(odd)
    before = 0
    for pos, here in enumerate(odd):
        after -= here
        if odd_count == "exclusive":
            o = before
        elif odd_count == "inclusive":
            o = before + here
        else:
            o = after
        yield pos, (-1 if (parity * o) & 1 else 1)
        before += here


def _derivation_columns(x: SuperMatrix, r: int, parity: int, odd_count: str):
    """The columns of sum_k sign_k * (x acting at position k), over Q, with
    the signs of ``_position_signs``."""
    dim = x.dim
    size = dim.size
    # the nonzero (target, entry) pairs of each column of x, 0-based
    x_cols = [
        [(t, x.entries[t][a]) for t in range(size) if x.entries[t][a]]
        for a in range(size)
    ]
    strides = [size ** (r - 1 - pos) for pos in range(r)]
    cols = []
    for col, word in enumerate(basis_words(dim, r)):
        acc = {}
        for pos, sign in _position_signs(dim, word, parity, odd_count):
            letter = word[pos] - 1
            for target, coeff in x_cols[letter]:
                idx = col + (target - letter) * strides[pos]
                acc[idx] = acc.get(idx, 0) + sign * coeff
        cols.append({i: e for i, e in acc.items() if e})
    return cols


def derivation_operator(
    x: SuperMatrix, r: int, odd_count: str = "exclusive"
) -> TensorOperator:
    """Derivation action of a homogeneous rational matrix on degree-r words.

    The term acting at position k carries (-1)^{p(x) * o(k)} where o(k)
    counts odd letters strictly before position k ("exclusive").  The
    "inclusive" variant (counting position k as well) exists only so the
    test suite can demonstrate that it breaks the bracket homomorphism.
    """
    if x.grassmann_n is not None:
        raise DimensionError("derivation action takes a rational matrix")
    parity = block_parity(x)
    if parity is None:
        raise ParityError("derivation action needs a homogeneous matrix")
    if odd_count not in ("exclusive", "inclusive"):
        raise ValueError("odd_count must be 'exclusive' or 'inclusive'")
    return TensorOperator._from_cols(x.dim, r, _derivation_columns(x, r, parity, odd_count))


def point_derivation_operator(
    x: SuperMatrix, alpha: GrassmannElement, r: int
) -> TensorOperator:
    """Derivation action of the point alpha (x) x, over alpha's algebra.

    Requires p(alpha) == p(x).  The coefficient pulled out at position k
    moves right past the unchanged letters after k, so the term carries
    (-1)^{p(alpha) * (odd letters strictly after k)} alpha.  With this rule
    ``diagonal_operator(I + alpha e_ij, r) == identity + this`` holds exactly
    whenever alpha^2 = 0 (odd alpha, or even nilpotent alpha).
    """
    if x.grassmann_n is not None:
        raise DimensionError("the matrix factor must be rational")
    parity = block_parity(x)
    if parity is None:
        raise ParityError("point derivation needs a homogeneous matrix")
    ap = alpha.parity()
    if ap is None or (not alpha.is_zero() and ap != parity):
        raise ParityError("coefficient parity must match the matrix parity")
    cols = [
        {i: point for i, e in col.items() if (point := alpha * e)}
        for col in _derivation_columns(x, r, ap, "suffix")
    ]
    return TensorOperator._from_cols(x.dim, r, cols, alpha.num_generators)


# --- the diagonal group action -------------------------------------------------


def diagonal_operator(g: SuperMatrix, r: int) -> TensorOperator:
    """The group element g acting in every tensor position at once.

    Entry signs: expanding g(word_1) (x) ... (x) g(word_r) left to right, the
    matrix entry chosen at position k is moved past the new letters in
    positions k+1..r, picking up (-1)^{p(entry) * sum of their parities}.
    Entry parity is the block parity p(row) + p(col), which is the actual
    parity of every entry of an even point.

    The expansion runs one position at a time over every (word, image)
    prefix pair, so a product of entries shared by many words is formed once.
    """
    if not g.is_gl_point():
        raise ParityError("diagonal action is defined on GL points")
    dim = g.dim
    size = dim.size
    if r < 1:
        raise DimensionError("tensor degree must be at least 1")
    parities = [dim.parity(a) for a in range(1, size + 1)]
    # the nonzero (target, entry, entry parity) triples of each column of g
    g_cols = [
        [
            (t, g.entries[t][a], parities[t] ^ parities[a])
            for t in range(size)
            if g.entries[t][a]
        ]
        for a in range(size)
    ]
    # (word prefix, image prefix, product of entries, sign exponent, sum of
    # entry parities); a new letter t at position k crosses every entry
    # chosen before it, adding p(t) * (their parity sum) to the exponent
    states = [(0, 0, None, 0, 0)]
    for _ in range(r):
        grown = []
        for col, row, product, exponent, carried in states:
            for a in range(size):
                for t, entry, entry_parity in g_cols[a]:
                    p = entry if product is None else product * entry
                    if p:
                        grown.append(
                            (
                                col * size + a,
                                row * size + t,
                                p,
                                exponent + parities[t] * carried,
                                carried + entry_parity,
                            )
                        )
        states = grown
    cols = [{} for _ in range(size ** r)]
    for col, row, product, exponent, _ in states:
        cols[col][row] = -product if exponent & 1 else product
    return TensorOperator._from_cols(dim, r, cols, g.grassmann_n)

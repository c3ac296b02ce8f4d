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
* derivations: theta(x) = sum_k x^(k), where x^(k) is x acting at
  position k alone; a point alpha (x) x acts as alpha * sum_k x^(k).
* the diagonal group action: rho(g) = g^(0) g^(1) ... g^(r-1), a
  left-to-right product, so each factor acts after the new letters to its
  right.  This is the unique sign bookkeeping for which the action is
  multiplicative under ordinary left-to-right matrix products; the test
  suite holds it to that.

The last two share one piece, written by ``_one_position`` and keeping the
only sign rule they use: in x^(k) the entry x_ta that turns letter a into t
carries (-1)^{(p(t) + p(a)) * o(k)}, where o(k) counts odd letters of the
word strictly before k for a derivation and strictly after k for a point or
group element.

Permutations are tuples in one-line notation (1-based images).  Products
compose left to right on places: ``compose(s, p)(k) = p(s(k))``, and
``operator(s) @ operator(p) == operator(compose(s, p))``.
"""

from __future__ import annotations

import functools
import itertools
import operator
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


# --- one matrix at one position: the derivation and group actions ------------


def _one_position(x: SuperMatrix, r: int, odd_count: str) -> list[TensorOperator]:
    """The r operators x^(k), the k-th being x acting at 0-based position k
    alone, over x's ring.

    The entry x_ta that turns letter a into t carries (-1)^{(p(t) + p(a)) * o(k)},
    where o(k) counts the odd letters of the column's word strictly before k
    ("exclusive"), before and at k ("inclusive"), or strictly after k
    ("suffix").
    """
    dim = x.dim
    size = dim.size
    odd = [dim.parity(a) for a in range(1, size + 1)]
    # the nonzero (target, entry, entry parity) triples of each column of x
    x_cols = [
        [(t, x.entries[t][a], odd[t] ^ odd[a]) for t in range(size) if x.entries[t][a]]
        for a in range(size)
    ]
    counted = {
        "exclusive": lambda word, k: word[:k],
        "inclusive": lambda word, k: word[: k + 1],
        "suffix": lambda word, k: word[k + 1 :],
    }[odd_count]
    words = basis_words(dim, r)
    pieces = []
    for k in range(r):
        stride = size ** (r - 1 - k)
        cols = []
        for col, word in enumerate(words):
            o = sum(odd[letter - 1] for letter in counted(word, k)) & 1
            a = word[k] - 1
            cols.append(
                {col + (t - a) * stride: -e if p & o else e for t, e, p in x_cols[a]}
            )
        pieces.append(TensorOperator._from_cols(dim, r, cols, x.grassmann_n))
    return pieces


def derivation_operator(
    x: SuperMatrix, r: int, odd_count: str = "exclusive"
) -> TensorOperator:
    """Derivation action theta(x) = sum_k x^(k) of a homogeneous rational
    matrix on degree-r words.

    The piece at position k carries (-1)^{p(x) * o(k)}, where o(k) counts
    odd letters strictly before position k ("exclusive").  The "inclusive"
    variant (counting position k as well) exists only so the test suite can
    demonstrate that it breaks the bracket homomorphism.
    """
    if x.grassmann_n is not None:
        raise DimensionError("derivation action takes a rational matrix")
    if block_parity(x) is None:
        raise ParityError("derivation action needs a homogeneous matrix")
    if odd_count not in ("exclusive", "inclusive"):
        raise ValueError("odd_count must be 'exclusive' or 'inclusive'")
    pieces = _one_position(x, r, odd_count)
    return sum(pieces[1:], pieces[0])


def point_derivation_operator(
    x: SuperMatrix, alpha: GrassmannElement, r: int
) -> TensorOperator:
    """Derivation action of the point alpha (x) x: alpha times sum_k x^(k),
    over alpha's algebra.

    Requires p(alpha) == p(x).  The coefficient pulled out at position k
    moves right past the unchanged letters after k, so the piece at k counts
    the odd letters strictly after k ("suffix").  With this rule
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
    pieces = _one_position(x, r, "suffix")
    cols = [
        {i: point for i, e in col.items() if (point := alpha * e)}
        for col in sum(pieces[1:], pieces[0]).cols
    ]
    return TensorOperator._from_cols(x.dim, r, cols, alpha.num_generators)


def diagonal_operator(g: SuperMatrix, r: int) -> TensorOperator:
    """The group element g acting in every tensor position at once:
    rho(g) = g^(0) g^(1) ... g^(r-1), the left-to-right product of the
    "suffix" pieces.

    The factor at k acts after those to its right, so the entry chosen at
    position k moves past the new letters in positions k+1..r, picking up
    (-1)^{p(entry) * their odd count}.  Entry parity is the block parity
    p(row) + p(col), the actual parity of every entry of an even point.
    Factors at different positions commute.
    """
    if not g.is_gl_point():
        raise ParityError("diagonal action is defined on GL points")
    if r < 1:
        raise DimensionError("tensor degree must be at least 1")
    return functools.reduce(operator.mul, _one_position(g, r, "suffix"))

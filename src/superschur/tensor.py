"""Signed actions on r-fold tensor powers of a graded vector space.

Basis words are r-tuples of 1-based letters, listed lexicographically.  An
operator is stored as a SuperMatrix is, the matrix being the operator of
degree 1 (both share supermatrix._Sparse): a map from the index k of each
basis word whose image is nonzero to its column, the index of each word in
that image mapped to its nonzero coefficient.  Empty columns and zero
entries are never stored, so products, sums and comparisons touch only the
nonzeros: a product costs the nonzero pairs A[i, k] B[k, j] that it
multiplies, not side^3, and theta(E_ij) at r = 1, the map of E_ij itself,
costs one column.  The builders below write their columns directly.  Over Q
a column of B with one entry, as every column of a signed permutation
operator is, gives its product column in one pass with nothing to sum.

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
compose left to right on places: the product of s then p sends k to
p(s(k)), and its operator is ``operator(s) @ operator(p)``.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import DimensionError, ParityError
from .grassmann import GrassmannElement
from .supermatrix import SuperDim, SuperMatrix, _Sparse, block_parity

Word = tuple[int, ...]
Perm = tuple[int, ...]


# --- words -----------------------------------------------------------------


def basis_words(dim: SuperDim, r: int) -> list[Word]:
    if r < 1:
        raise DimensionError("tensor degree must be at least 1")
    return list(itertools.product(range(1, dim.size + 1), repeat=r))


def word_weights(dim: SuperDim, r: int) -> list[int]:
    """One integer per basis word, in ``basis_words`` order: its content
    (the count c_a of each letter a) encoded as sum_a c_a (2r + 1)^(a - 1).

    Each count difference lies in -r..r, so a difference of two contents,
    such as the class content(w) - content(w') of entry (w, w') of an
    operator, has exactly one encoding: the difference of the two weights.
    """
    if r < 1:
        raise DimensionError("tensor degree must be at least 1")
    steps = [(2 * r + 1) ** a for a in range(dim.size)]
    weights = [0]
    for _ in range(r):
        weights = [w + s for w in weights for s in steps]
    return weights


def word_index(dim: SuperDim, word: Word) -> int:
    size = dim.size
    idx = 0
    for letter in word:
        if not 1 <= letter <= size:
            raise DimensionError(f"letter {letter} not in 1..{size}")
        idx = idx * size + (letter - 1)
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


def adjacent_decomposition(sigma: Perm) -> list[tuple[int, int]]:
    """Adjacent transpositions whose operators compose (left to right) to sigma.

    Bubble sort on the one-line form: each recorded swap (i, i+1) multiplies
    the running permutation on the right, so the recorded sequence
    t_1, t_2, ..., t_k composes, left to right, to sigma.
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


# --- operators ---------------------------------------------------------------

class TensorOperator(_Sparse):
    """Endomorphism of the r-fold tensor power, over Q or Lambda_N.

    Stored in the layout SuperMatrix uses (supermatrix._Sparse): ``cols``
    maps each column j that holds a nonzero entry to its column, a map from
    each row i to the nonzero entry (i, j).  At r = 1 an operator and the
    matrix it acts by store the same map.  ``matrix`` is the dense view.
    """

    __slots__ = ()

    # bound in this class too, so benchmarks/tracing.py can wrap the
    # operator product and equality apart from the matrix ones; a class
    # that sets __eq__ must set __hash__ as well
    __mul__ = _Sparse.__mul__
    __eq__ = _Sparse.__eq__
    __hash__ = _Sparse.__hash__
    matrix = _Sparse.entries

    def __repr__(self):
        ring = "Q" if self.grassmann_n is None else f"Lambda_{self.grassmann_n}"
        return f"TensorOperator(({self.dim.m}|{self.dim.n})^r={self.r} over {ring})"


# --- the symmetric group action ----------------------------------------------


def transposition_operator(dim: SuperDim, r: int, i: int, j: int) -> TensorOperator:
    """The signed operator swapping tensor positions i < j."""
    cols = {}
    for col, word in enumerate(basis_words(dim, r)):
        sign, image = swap_letters(dim, word, i, j)
        cols[col] = {word_index(dim, image): sign}
    return TensorOperator._from_cols(dim, r, cols)


def transposition_table(dim: SuperDim, r: int) -> dict:
    """{(i, j): transposition_operator(dim, r, i, j)} over every pair of
    positions i < j."""
    return {
        (i, j): transposition_operator(dim, r, i, j)
        for i, j in itertools.combinations(range(1, r + 1), 2)
    }


def operator_from_transpositions(dim: SuperDim, r: int, pairs) -> TensorOperator:
    """The left-to-right product of the transposition operators of pairs,
    from the identity."""
    acc = TensorOperator.identity(dim, r)
    for i, j in pairs:
        acc = acc * transposition_operator(dim, r, i, j)
    return acc


def permutation_operator(dim: SuperDim, r: int, sigma: Perm) -> TensorOperator:
    """The signed place-permutation operator for sigma (one-line, 1-based)."""
    if len(sigma) != r or sorted(sigma) != list(range(1, r + 1)):
        raise DimensionError(f"{sigma!r} is not a permutation of 1..{r}")
    return operator_from_transpositions(dim, r, adjacent_decomposition(sigma))


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
    counted = {
        "exclusive": lambda word, k: word[:k],
        "inclusive": lambda word, k: word[: k + 1],
        "suffix": lambda word, k: word[k + 1 :],
    }[odd_count]
    words = basis_words(dim, r)
    pieces = []
    for k in range(r):
        stride = size ** (r - 1 - k)
        cols = {}
        for col, word in enumerate(words):
            a = word[k] - 1
            x_col = x.cols.get(a)
            if x_col is None:
                continue
            o = sum(odd[letter - 1] for letter in counted(word, k)) & 1
            pa = odd[a]
            cols[col] = {
                col + (t - a) * stride: -e if o and odd[t] != pa else e for t, e in x_col.items()
            }
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
    cols = {}
    for j, col in sum(pieces[1:], pieces[0]).cols.items():
        col = {i: point for i, e in col.items() if (point := alpha * e)}
        if col:
            cols[j] = col
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

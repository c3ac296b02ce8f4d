"""Exact arithmetic in the Grassmann algebra on N anticommuting generators.

Elements are finite sums of monomials in generators x1, ..., xN subject to
xi*xj = -xj*xi (so xi*xi = 0), with coefficients in Q.  A monomial is encoded
as a bitmask over the generator set, kept in the canonical ascending order.

An element stores one int numerator per monomial over one common positive
denominator, in lowest terms: den > 0, gcd(den, every numerator) = 1 and no
numerator is zero.  The form is unique, so equality compares (N, den,
numerators).  Sums work on the numerators and normalize once, by a single
gcd; no Fraction is built on the way.

Every product of two elements goes through one kernel, ``_sum_of_products``,
which returns start + x1*y1 + ... + xk*yk.  It brings all terms to one
common denominator, the lcm of the start's and of each x._den * y._den,
merges every monomial pair into one dict of int numerators, drops the zeros
and reduces once.  A matrix, elimination or tensor entry of k terms is thus
one reduced element, not 2k - 1 of them; ``x * y`` is the kernel on the
single pair (x, y).  An int or Fraction times an element, on either side,
makes no kernel call: it scales the numerators and the denominator and
reduces once.

Multiplying two monomials merges their masks with the sign (-1)^k, where k
counts the pairs (i in the left mask, j in the right mask) with i > j, the
crossings needed to restore ascending order.  For a left mask m1 the prefix
parity P has bit j set when m1 has an odd number of bits above j, so the
sign against a disjoint right mask m2 is the parity of popcount(P & m2).
P is computed once per left monomial.

``terms``, the {mask: Fraction} view, is built only when it is read (repr);
intermediate products never build it.  The wire codec reads and writes
coefficients as integer numerator and denominator pairs, so it builds no
Fraction either.

N is fixed per element and mixing elements from different algebras raises
DimensionError rather than embedding one algebra in the other.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import CapExceeded, DimensionError, FormatError, NotInvertible

# The most generators an algebra may have.  Elements and sampling work with
# up to 2^N monomials, so N is bounded before anything is built.
MAX_GENERATORS = 16


def check_generators(num_generators: int) -> None:
    """Refuse a generator count above MAX_GENERATORS with CapExceeded."""
    if num_generators > MAX_GENERATORS:
        raise CapExceeded(
            f"Grassmann generator count {num_generators} exceeds the cap of "
            f"{MAX_GENERATORS}"
        )


def _mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class GrassmannElement:
    """An element of the Grassmann algebra on ``num_generators`` generators.

    Instances are immutable.  ``_num`` maps a generator bitmask to an int
    numerator over the common denominator ``_den``, in lowest terms;
    ``terms`` is the read-only {mask: Fraction} view.  Zero coefficients are
    never stored.
    """

    __slots__ = ("num_generators", "_num", "_den", "_terms")

    def __init__(self, num_generators: int, terms=None):
        if num_generators < 0:
            raise DimensionError("generator count must be nonnegative")
        check_generators(num_generators)
        bound = 1 << num_generators
        cleaned: dict[int, Fraction] = {}
        for mask, coeff in (terms or {}).items():
            if mask < 0 or mask >= bound:
                raise DimensionError(
                    f"monomial mask {mask} out of range for N={num_generators}"
                )
            if not isinstance(coeff, Fraction):
                # an int; exact_rational refuses floats, bools and the rest
                coeff = Fraction(exact_rational(coeff))
            if coeff:
                cleaned[mask] = coeff
        # reduced Fractions over their lcm are already in lowest terms
        den = lcm(*(c.denominator for c in cleaned.values()))
        num = {m: c.numerator * (den // c.denominator) for m, c in cleaned.items()}
        self._fill(num_generators, num, den, MappingProxyType(cleaned))

    def _fill(self, num_generators: int, num: dict, den: int, terms) -> None:
        object.__setattr__(self, "num_generators", num_generators)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def _wrap(cls, num_generators: int, num: dict, den: int) -> "GrassmannElement":
        """Wrap numerators already in lowest terms over den > 0."""
        elem = object.__new__(cls)
        elem._fill(num_generators, num, den, None)
        return elem

    @classmethod
    def _reduce(cls, num_generators: int, num: dict, den: int) -> "GrassmannElement":
        """Bring nonzero numerators over a nonzero den to lowest terms."""
        if den < 0:
            den = -den
            num = {m: -c for m, c in num.items()}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {m: c // g for m, c in num.items()}
        return cls._wrap(num_generators, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {mask: Fraction} view, built when first read."""
        if self._terms is None:
            den = self._den
            view = MappingProxyType(
                {m: Fraction(c, den) for m, c in self._num.items()}
            )
            object.__setattr__(self, "_terms", view)
        return self._terms

    # --- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, num_generators: int, value) -> "GrassmannElement":
        return cls(num_generators, {0: value})

    @classmethod
    def zero(cls, num_generators: int) -> "GrassmannElement":
        return cls(num_generators, {})

    @classmethod
    def generator(cls, num_generators: int, index: int) -> "GrassmannElement":
        """The generator x_index, 1-based."""
        if not 1 <= index <= num_generators:
            raise DimensionError(f"generator index {index} not in 1..{num_generators}")
        return cls(num_generators, {1 << (index - 1): 1})

    @classmethod
    def monomial(cls, num_generators: int, indices, coeff=1) -> "GrassmannElement":
        """coeff * x_{i1} * ... * x_{ik} for strictly increasing 1-based indices."""
        mask = 0
        prev = 0
        for i in indices:
            if not 1 <= i <= num_generators:
                raise DimensionError(f"generator index {i} not in 1..{num_generators}")
            if i <= prev:
                raise FormatError("monomial indices must be strictly increasing")
            mask |= 1 << (i - 1)
            prev = i
        return cls(num_generators, {mask: coeff})

    # --- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def body(self) -> Fraction:
        """The scalar (degree-zero) part."""
        return Fraction(self._num.get(0, 0), self._den)

    def parity(self):
        """0 for even, 1 for odd, None for mixed.  Zero counts as even."""
        parities = {m.bit_count() & 1 for m in self._num}
        if not parities:
            return 0
        if len(parities) == 1:
            return parities.pop()
        return None

    # --- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GrassmannElement):
            if other.num_generators != self.num_generators:
                raise DimensionError(
                    "cannot mix Grassmann algebras with "
                    f"N={self.num_generators} and N={other.num_generators}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            if not other:
                return GrassmannElement._wrap(self.num_generators, {}, 1)
            return GrassmannElement._wrap(
                self.num_generators, {0: other.numerator}, other.denominator
            )
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        den = self._den
        if den == other._den:
            num, right = dict(self._num), other._num
        else:
            den = lcm(den, other._den)
            s1, s2 = den // self._den, den // other._den
            num = {m: c * s1 for m, c in self._num.items()}
            right = {m: c * s2 for m, c in other._num.items()}
        get = num.get
        for m, c in right.items():
            num[m] = get(m, 0) + c
        num = {m: c for m, c in num.items() if c}
        return GrassmannElement._reduce(self.num_generators, num, den)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement._wrap(
            self.num_generators, {m: -c for m, c in self._num.items()}, self._den
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum_of_products(self.num_generators, ((self, other),))

    def __rmul__(self, other):
        # only scalars reach here, and scalars are central
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, s):
        """s * self for an int or Fraction s: the numerators times s's
        numerator over den times s's denominator, reduced once."""
        if not s or not self._num:
            return GrassmannElement._wrap(self.num_generators, {}, 1)
        p = s.numerator
        return GrassmannElement._reduce(
            self.num_generators,
            {m: c * p for m, c in self._num.items()},
            self._den * s.denominator,
        )

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GrassmannElement.scalar(self.num_generators, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def inverse(self) -> "GrassmannElement":
        """Multiplicative inverse; exists iff the body is nonzero.

        With u = body and s = soul, 1/(u+s) = (1/u) * sum_k (-s/u)^k, and the
        series stops because s^(N+1) = 0.  On numerators over den, u = b/den
        and -s/u has numerators -s_m over b, so both divisions by u are
        integer rescales.
        """
        b = self._num.get(0, 0)
        if b == 0:
            raise NotInvertible("element has zero body")
        n = self.num_generators
        soul = {m: -c for m, c in self._num.items() if m}
        t = GrassmannElement._reduce(n, soul, b)
        acc = GrassmannElement._wrap(n, {0: 1}, 1)
        power = acc
        for _ in range(n):
            power = power * t
            if power.is_zero():
                break
            acc = acc + power
        den = self._den
        return GrassmannElement._reduce(
            n, {m: c * den for m, c in acc._num.items()}, acc._den * b
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return (
            self.num_generators == other.num_generators
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.num_generators, self._den, frozenset(self._num.items())))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for mask in sorted(terms, key=lambda m: (m.bit_count(), m)):
            coeff = terms[mask]
            mono = "*".join(f"x{i}" for i in _mask_indices(mask))
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # --- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """Wire format: {"n": N, "terms": [{"gens": [...], "coeff": "p/q"}]}.

        Terms are sorted by (degree, mask) so output is deterministic; each
        coefficient is written in lowest terms, as str(Fraction) writes it.
        """
        num, den = self._num, self._den
        terms = []
        for mask in sorted(num, key=lambda m: (m.bit_count(), m)):
            g = gcd(num[mask], den)
            p, q = num[mask] // g, den // g
            coeff = rational_text(p, q)
            terms.append({"gens": list(_mask_indices(mask)), "coeff": coeff})
        return {"n": self.num_generators, "terms": terms}

    @classmethod
    def from_json(cls, data) -> "GrassmannElement":
        if not isinstance(data, dict) or "n" not in data or "terms" not in data:
            raise FormatError("Grassmann element must be {'n': ..., 'terms': [...]}")
        n = data["n"]
        if not is_json_int(n) or n < 0:
            raise FormatError("'n' must be a nonnegative integer")
        check_generators(n)
        parts: dict[int, tuple[int, int]] = {}
        if not isinstance(data["terms"], list):
            raise FormatError("'terms' must be a list")
        for term in data["terms"]:
            if not isinstance(term, dict) or "gens" not in term or "coeff" not in term:
                raise FormatError("each term must be {'gens': [...], 'coeff': ...}")
            gens = term["gens"]
            if not isinstance(gens, list):
                raise FormatError("'gens' must be a list of generator indices")
            mask = 0
            prev = 0
            for i in gens:
                if not is_json_int(i) or not 1 <= i <= n:
                    raise FormatError(f"generator index {i} not in 1..{n}")
                if i <= prev:
                    raise FormatError(
                        "generator indices must be strictly increasing"
                    )
                mask |= 1 << (i - 1)
                prev = i
            coeff = rational_parts(term["coeff"], "coefficient")
            if mask in parts:
                raise FormatError("duplicate monomial in terms")
            parts[mask] = coeff
        # reduced p/q over the lcm of the q's are already in lowest terms
        den = lcm(*(q for p, q in parts.values() if p))
        num = {mask: p * (den // q) for mask, (p, q) in parts.items() if p}
        return cls._wrap(n, num, den)

    @classmethod
    def scalar_from_json(cls, num_generators: int, value) -> "GrassmannElement":
        """A matrix entry sent as a bare wire rational (see rational_parts),
        as a scalar of Lambda_N."""
        p, q = rational_parts(value, "entry")
        return cls._wrap(num_generators, {0: p} if p else {}, q)


def _sum_of_products(num_generators: int, pairs, start=None) -> GrassmannElement:
    """start + sum of x * y over the (x, y) pairs, all in Lambda_N, reduced once.

    Each term is formed left factor first, since odd elements anticommute.
    The numerators are summed over the lcm of the start's denominator and
    each x._den * y._den, zeros are dropped once, and one gcd brings the sum
    to lowest terms.  ``pairs`` must be a list or tuple: it is read twice,
    so an iterator would be used up by the denominator pass.
    """
    den = 1 if start is None else start._den
    for x, y in pairs:
        d = x._den * y._den
        if d != den:
            den = lcm(den, d)
    if start is None or not start._num:
        num: dict[int, int] = {}
    elif start._den == den:
        num = dict(start._num)
    else:
        scale = den // start._den
        num = {m: c * scale for m, c in start._num.items()}
    get = num.get
    for x, y in pairs:
        scale = den // (x._den * y._den)
        right = y._num.items()
        for m1, c1 in x._num.items():
            # the prefix parity P of m1: suffix XOR of m1 >> 1 by doubling
            # shifts, four steps for MAX_GENERATORS = 16 bits (inline, as
            # a call here costs more than the shifts)
            p = m1 >> 1
            p ^= p >> 1
            p ^= p >> 2
            p ^= p >> 4
            p ^= p >> 8
            if scale != 1:
                c1 *= scale
            for m2, c2 in right:
                if m1 & m2:
                    continue  # repeated generator squares to zero
                merged = m1 | m2
                if (p & m2).bit_count() & 1:
                    num[merged] = get(merged, 0) - c1 * c2
                else:
                    num[merged] = get(merged, 0) + c1 * c2
    num = {m: c for m, c in num.items() if c}
    return GrassmannElement._reduce(num_generators, num, den)


def is_json_int(value) -> bool:
    """A JSON integer.  The exact type test refuses bools, which Python
    counts as ints."""
    return type(value) is int


# The whole grammar of a wire rational string.  [0-9] is ASCII only, where
# Fraction() would also take a '+' sign, spaces, underscores, decimal points
# and other scripts' digits.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_parts(value, what: str) -> tuple[int, int]:
    """A wire rational as (p, q) in lowest terms with q > 0.

    The wire takes a JSON integer or a string matching -?[0-9]+(/[0-9]+)?
    and refuses everything else with FormatError.  Floats, Infinity and NaN
    among them, are refused: a JSON float is a binary approximation, not the
    rational the sender meant.  A string with a decimal exponent gets its
    own message: it is the form a float sender would try next.
    """
    if type(value) is int:
        return value, 1
    if type(value) is not str:
        raise FormatError(f"{what} {_shown(value)} must be an integer or a 'p/q' string")
    if "e" in value or "E" in value:
        raise FormatError(f"{what} {_shown(value)} has an exponent; send 'p/q'")
    match = _RATIONAL.fullmatch(value)
    if match is None:
        raise FormatError(f"bad rational {what} {_shown(value)}; send an integer or 'p/q'")
    try:
        p, q = int(match[1]), int(match[2] or 1)
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"rational {what} has too many digits") from exc
    if q == 0:
        raise FormatError(f"rational {what} {_shown(value)} has a zero denominator")
    g = gcd(p, q)
    return p // g, q // g


def rational_text(p: int, q: int) -> str:
    """p/q as str(Fraction) writes it, refused with CapExceeded when p or q
    has more digits than an int converts to text (PYTHONINTMAXSTRDIGITS)."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError as exc:
        raise CapExceeded(
            f"a result has more than {sys.get_int_max_str_digits()} digits, the most an int "
            "converts to text; set PYTHONINTMAXSTRDIGITS to raise the limit"
        ) from exc


def exact_rational(value):
    """A rational in its one exact form: an int when it is integral, else a
    Fraction.  Floats, bools and every other type raise TypeError: a float
    is a binary approximation, and True is not a number anyone meant."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"{_shown(value)} is not an int or a Fraction")


def _shown(value) -> str:
    """repr(value) cut to 40 characters: a refusal need not echo a megabyte."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def as_element(value, num_generators: int) -> GrassmannElement:
    """Lift ints, Fractions, or elements of the same algebra to Lambda_N."""
    if isinstance(value, GrassmannElement):
        if value.num_generators != num_generators:
            raise DimensionError(
                f"element lives in N={value.num_generators}, wanted N={num_generators}"
            )
        return value
    return GrassmannElement.scalar(num_generators, value)

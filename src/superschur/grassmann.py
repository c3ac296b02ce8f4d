"""Exact arithmetic in the Grassmann algebra on N anticommuting generators.

Elements are finite sums of monomials in generators x1, ..., xN subject to
xi*xj = -xj*xi (so xi*xi = 0), with coefficients in Q.  A monomial is encoded
as a bitmask over the generator set, kept in the canonical ascending order;
multiplying two monomials merges their masks and the sign is (-1)^k where k
counts the crossings needed to restore ascending order.

N is fixed per element and mixing elements from different algebras raises
DimensionError rather than embedding one algebra in the other.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapExceeded, DimensionError, FormatError, NotInvertible

Rational = Fraction

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


def _merge_sign(left_mask: int, right_mask: int) -> int:
    # number of pairs (i in left, j in right) with i > j, i.e. crossings
    # when the concatenation is re-sorted
    crossings = 0
    j = right_mask
    while j:
        low = j & -j
        crossings += (left_mask >> low.bit_length()).bit_count()
        j ^= low
    return -1 if crossings & 1 else 1


def _mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class GrassmannElement:
    """An element of the Grassmann algebra on ``num_generators`` generators.

    Instances are immutable.  ``terms`` maps a generator bitmask to its
    rational coefficient; zero coefficients are never stored.
    """

    __slots__ = ("num_generators", "terms")

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
                coeff = Fraction(coeff)
            if coeff:
                cleaned[mask] = coeff
        object.__setattr__(self, "num_generators", num_generators)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, num_generators: int, value) -> "GrassmannElement":
        return cls(num_generators, {0: Fraction(value)})

    @classmethod
    def zero(cls, num_generators: int) -> "GrassmannElement":
        return cls(num_generators, {})

    @classmethod
    def generator(cls, num_generators: int, index: int) -> "GrassmannElement":
        """The generator x_index, 1-based."""
        if not 1 <= index <= num_generators:
            raise DimensionError(f"generator index {index} not in 1..{num_generators}")
        return cls(num_generators, {1 << (index - 1): Fraction(1)})

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
        return cls(num_generators, {mask: Fraction(coeff)})

    # --- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> Fraction:
        """The scalar (degree-zero) part."""
        return self.terms.get(0, Fraction(0))

    def soul(self) -> "GrassmannElement":
        """The nilpotent part: everything of degree >= 1."""
        return GrassmannElement(
            self.num_generators, {m: c for m, c in self.terms.items() if m}
        )

    def even_part(self) -> "GrassmannElement":
        return GrassmannElement(
            self.num_generators,
            {m: c for m, c in self.terms.items() if not m.bit_count() & 1},
        )

    def odd_part(self) -> "GrassmannElement":
        return GrassmannElement(
            self.num_generators,
            {m: c for m, c in self.terms.items() if m.bit_count() & 1},
        )

    def parity(self):
        """0 for even, 1 for odd, None for mixed.  Zero counts as even."""
        parities = {m.bit_count() & 1 for m in self.terms}
        if not parities:
            return 0
        if len(parities) == 1:
            return parities.pop()
        return None

    def is_homogeneous(self) -> bool:
        return self.parity() is not None

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
            return GrassmannElement.scalar(self.num_generators, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mask, coeff in other.terms.items():
            terms[mask] = terms.get(mask, Fraction(0)) + coeff
        return GrassmannElement(self.num_generators, terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(
            self.num_generators, {m: -c for m, c in self.terms.items()}
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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue  # repeated generator squares to zero
                merged = m1 | m2
                contrib = c1 * c2 * _merge_sign(m1, m2)
                acc = terms.get(merged, Fraction(0)) + contrib
                if acc:
                    terms[merged] = acc
                elif merged in terms:
                    del terms[merged]
        return GrassmannElement(self.num_generators, terms)

    def __rmul__(self, other):
        # only scalars reach here, and scalars are central
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

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
        series stops because s^(N+1) = 0.
        """
        u = self.body()
        if u == 0:
            raise NotInvertible("element has zero body")
        s = self.soul()
        unit = GrassmannElement.scalar(self.num_generators, 1)
        t = GrassmannElement(
            self.num_generators, {m: -c / u for m, c in s.terms.items()}
        )
        acc = unit
        power = unit
        for _ in range(self.num_generators):
            power = power * t
            if power.is_zero():
                break
            acc = acc + power
        return GrassmannElement(
            self.num_generators, {m: c / u for m, c in acc.terms.items()}
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GrassmannElement.scalar(self.num_generators, other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return (
            self.num_generators == other.num_generators and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_generators, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            coeff = self.terms[mask]
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

        Terms are sorted by (degree, mask) so output is deterministic.
        """
        terms = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            terms.append(
                {"gens": list(_mask_indices(mask)), "coeff": str(self.terms[mask])}
            )
        return {"n": self.num_generators, "terms": terms}

    @classmethod
    def from_json(cls, data) -> "GrassmannElement":
        if not isinstance(data, dict) or "n" not in data or "terms" not in data:
            raise FormatError("Grassmann element must be {'n': ..., 'terms': [...]}")
        n = data["n"]
        if not is_json_int(n) or n < 0:
            raise FormatError("'n' must be a nonnegative integer")
        check_generators(n)
        terms: dict[int, Fraction] = {}
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
            coeff = rational_from_json(term["coeff"], "coefficient")
            if mask in terms:
                raise FormatError("duplicate monomial in terms")
            terms[mask] = coeff
        return cls(n, terms)


def is_json_int(value) -> bool:
    """A JSON integer.  The exact type test refuses bools, which Python
    counts as ints."""
    return type(value) is int


def rational_from_json(value, what: str) -> Fraction:
    """A wire rational: an integer or a "p/q" string.

    Floats, Infinity and NaN among them, are refused: a JSON float is a
    binary approximation, not the rational the sender meant.
    """
    if type(value) not in (int, str):
        raise FormatError(f"{what} {value!r} must be an integer or a 'p/q' string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {what} {value!r}") from exc


def as_element(value, num_generators: int) -> GrassmannElement:
    """Lift ints, Fractions, or elements of the same algebra to Lambda_N."""
    if isinstance(value, GrassmannElement):
        if value.num_generators != num_generators:
            raise DimensionError(
                f"element lives in N={value.num_generators}, wanted N={num_generators}"
            )
        return value
    return GrassmannElement.scalar(num_generators, value)

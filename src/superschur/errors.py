"""Exception types and the size cap shared across the package.

The CLI maps these onto exit codes: mathematical failures (NotInvertible,
failed checks) exit 1, malformed input exits 2, size-cap violations exit 3.
The cap and the suite names live here, beside CapExceeded, because the CLI's
parser needs them and every command imports this module: reading them does
not load the suites.
"""

DEFAULT_CAP = 64

SUITE_NAMES = ("bracket", "actions", "schurweyl", "group")


class DimensionError(ValueError):
    """Operands live in incompatible spaces (different N, sizes, or rings)."""


class ParityError(ValueError):
    """A homogeneous element was required but a mixed-parity one was given."""


class NotInvertible(ArithmeticError):
    """Inversion was requested for an element or matrix with no inverse."""


class FormatError(ValueError):
    """Serialized input does not match the documented wire format."""


class CapExceeded(RuntimeError):
    """The requested computation exceeds the configured size cap."""


def check_cap(m: int, n: int, r: int, cap: int | None, what: str = "word space") -> int:
    """(m+n)^r, the dimension of ``what``, once it is known to be at most
    the cap."""
    side = (m + n) ** r
    limit = DEFAULT_CAP if cap is None else cap
    if side > limit:
        raise CapExceeded(f"{what} has dimension {side} > cap {limit}; raise the cap to proceed")
    return side

"""Exception hierarchy shared by all ncusp modules.

Two families matter to callers: :class:`ValidationError` for violated
preconditions and malformed input, and :class:`NumericalError` for failures
that occur while computing (stalls, degeneracies, divergent integrals). The
CLI maps the former to exit code 2 and the latter to exit code 3.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "NcuspError",
    "ValidationError",
    "NumericalError",
    "RangeViolation",
    "SimplexModeRequired",
    "OutsideDomain",
    "FaceMismatch",
    "MapParameterTooLarge",
    "NonIntegrable",
    "UnsupportedOrder",
    "DegenerateTriangle",
    "DivergentIntegral",
    "ZeroTrace",
    "IterationStall",
    "ConfigError",
    "check_number",
    "SIZE_BUDGET",
]

# the most mesh vertices, or sample points, that one input may ask for
SIZE_BUDGET = 10**6


class NcuspError(Exception):
    """Base class for all ncusp errors."""


class ValidationError(NcuspError):
    """Input or precondition violation; the request never started computing."""


class NumericalError(NcuspError):
    """A computation started but could not be completed reliably."""


class RangeViolation(ValidationError):
    """A parameter fell outside a required (usually strict) inequality."""

    def __init__(self, field: str, constraint: str):
        self.field = field
        self.constraint = constraint
        super().__init__(f"{field}: violated {constraint}")


class SimplexModeRequired(ValidationError):
    """gamma == n describes the simplex; it must be requested explicitly."""


class OutsideDomain(ValidationError):
    """Point is not strictly interior to the domain it was claimed to be in."""


class FaceMismatch(ValidationError):
    """Point does not lie on the boundary face it was attributed to."""


class MapParameterTooLarge(ValidationError):
    """Map parameter a exceeds (n-p)/(gamma-p); distortion bound degenerates."""


class NonIntegrable(ValidationError):
    """Power-weight exponent at or below the -1 integrability threshold."""


class UnsupportedOrder(ValidationError):
    """Requested quadrature exactness order is not available."""


class DegenerateTriangle(NumericalError):
    """Mesh generation produced a triangle below the quality floor."""


class DivergentIntegral(NumericalError):
    """Exponent analysis shows the requested integral is infinite."""

    def __init__(self, exponent: float):
        self.exponent = exponent
        super().__init__(f"integrand behaves like t^({exponent}) near 0; not integrable")


class ZeroTrace(NumericalError):
    """Boundary trace vanished where a nonzero trace is required."""


class IterationStall(NumericalError):
    """Eigenvalue iteration failed to reach the requested tolerance."""


class ConfigError(ValidationError):
    """Malformed run configuration (unknown keys, wrong types, missing data)."""


def _fits_float(value) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def check_number(key: str, value, low: float, high: float = math.inf,
                 integer: bool = False):
    """Return value if it is an integer with low <= value <= high (with
    ``integer``) or a number with low < value < high, and a finite float can
    hold it; otherwise raise a RangeViolation naming key."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, kind) and not isinstance(value, bool) \
            and (low <= value <= high if integer else low < value < high) \
            and _fits_float(value):
        return value
    if integer:
        raise RangeViolation(key, f"an integer >= {low}" if high == math.inf
                             else f"an integer in [{low}, {high}]")
    bounds = f" > {low:g}" if high == math.inf else f" in ({low:g}, {high:g})"
    raise RangeViolation(key, "a finite number" + ("" if low == -math.inf else bounds))

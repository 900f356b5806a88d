"""Exception types shared across the package, the number rule and the range checks."""

import math
from numbers import Integral, Real

import numpy as np

# No number field takes a bool: JSON and the command line never read one as a number.
BOOL_TYPES = (bool, np.bool_)


class InvalidInputError(ValueError):
    """Raised when a parameter is outside its documented range."""


class CriticalExponentError(ValueError):
    """Raised when a control exponent sits at (or straddles) a critical value.

    At a critical exponent neither iteration direction contracts, so no
    bound of the given shape exists.
    """


class DivergentSeriesError(ArithmeticError):
    """Raised when a nonzero comparison series diverges in its chosen direction."""


class UnboundablePerturbationError(ArithmeticError):
    """Raised when calibration meets a residual the control function cannot cover.

    Happens when the unit control vanishes at a grid point where the measured
    residual is above the rounding floor: no finite theta makes the control
    dominate there.
    """


def is_finite_number(value) -> bool:
    """True for a real number, never a bool, that is finite in float64 (a huge int is not)."""
    if isinstance(value, BOOL_TYPES) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise InvalidInputError naming the field unless value is an integer >= minimum."""
    if isinstance(value, BOOL_TYPES) or not isinstance(value, Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Raise InvalidInputError naming the field unless value is a finite number >= 0."""
    if not (is_finite_number(value) and value >= 0):
        raise InvalidInputError(f"{name} must be finite and >= 0, got {value!r}")

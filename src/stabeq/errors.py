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


def shown(value) -> str:
    """repr(value) for an error message; an int too long to print shows its digit count."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), maybe in a container
        if not isinstance(value, int):
            return f"a {type(value).__name__} holding an int too long to print"
        n = int((abs(value).bit_length() - 1) * math.log10(2))
        return f"an int of {n + 1 + (abs(value) >= 10 ** (n + 1))} digits"


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise InvalidInputError naming the field unless value is a float64-finite integer >= minimum."""
    if isinstance(value, BOOL_TYPES) or not isinstance(value, Integral):
        raise InvalidInputError(f"{name} must be an integer, got {shown(value)}")
    if not is_finite_number(value):
        raise InvalidInputError(f"{name} must be finite in float64, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {shown(value)}")


def check_nonnegative(name: str, value) -> None:
    """Raise InvalidInputError naming the field unless value is a finite number >= 0."""
    if not (is_finite_number(value) and value >= 0):
        raise InvalidInputError(f"{name} must be finite and >= 0, got {shown(value)}")

"""Exception types shared across the package, and the integer check that raises one."""

from numbers import Integral


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


def check_integer(name: str, value) -> None:
    """Raise InvalidInputError naming the field unless value is a Python or numpy integer."""
    if not isinstance(value, Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")

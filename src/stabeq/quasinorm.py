"""p-norms on R^d for 0 < p <= 1 and the quasi-norm inequalities they satisfy.

For p in (0, 1] the functional ||v||_p = (sum |v_i|^p)^(1/p) is a p-norm:
absolutely homogeneous, and p-subadditive in the sense
||u + v||^p <= ||u||^p + ||v||^p.  It is a quasi-norm with modulus of
concavity M = 2^(1/p - 1), i.e. ||u + v|| <= M (||u|| + ||v||).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_integer, checked_power, is_finite_number, shown


@dataclass(frozen=True)
class PNormSpace:
    """Codomain R^dim equipped with the l_p quasi-norm.

    dim : codomain dimension, >= 1
    p   : norm exponent, 0 < p <= 1
    """

    dim: int
    p: float

    def __post_init__(self) -> None:
        check_integer("dim", self.dim, 1)
        if not (is_finite_number(self.p) and 0.0 < self.p <= 1.0):
            raise InvalidInputError(f"p must satisfy 0 < p <= 1, got {shown(self.p)}")

    @property
    def modulus(self) -> float:
        """Modulus of concavity M = 2^(1/p - 1): 1 at p = 1, past float64 below p = 1/1025."""
        return checked_power(2.0, 1.0 / self.p - 1.0, "the modulus M = 2^(1/p - 1)", self.p)

    def pnorm(self, v: np.ndarray) -> np.ndarray | float:
        """(sum_i |v_i|^p)^(1/p) over the last axis.

        Accepts shape (dim,) or (..., dim); returns a scalar or shape (...,).
        The powers are summed in index order, one component at a time, and
        the sums stay arrays until the root is taken (numpy's scalar power
        can round differently), so a vector gets one norm whatever the
        memory layout of its array and whether it comes alone or in a batch.
        At p = 1 both powers are the identity and are skipped.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.dim:
            raise InvalidInputError(
                f"vector has {v.shape[-1]} components, space has dim {self.dim}"
            )
        l1 = self.p == 1
        powers = np.abs(v) if l1 else np.abs(v) ** self.p
        total = powers[..., :1]
        for i in range(1, self.dim):
            total = total + powers[..., i : i + 1]
        out = (total if l1 else total ** (1.0 / self.p))[..., 0]
        return float(out) if out.ndim == 0 else out


def modulus_of_concavity(p: float) -> float:
    """2^(1/p - 1) for 0 < p <= 1: the modulus of any l_p space."""
    return PNormSpace(1, p).modulus


def power_sum_residual(xs: np.ndarray, p: float) -> float:
    """sum_i x_i^p - (sum_i x_i)^p for nonnegative x_i and 0 < p <= 1.

    Nonnegative by concavity of t^p; the quantity the series bounds lean on.
    """
    PNormSpace(1, p)  # applies the p rule
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise InvalidInputError("xs must be nonempty")
    if np.any(xs < 0) or not np.all(np.isfinite(xs)):
        raise InvalidInputError("xs must be finite and nonnegative")
    return float(np.sum(xs**p) - np.sum(xs) ** p)

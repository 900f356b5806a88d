"""Difference operators for the mixed cubic-quadratic-additive equation family.

The central operator is

    D_f(x, y) = f(x+ky) + f(x-ky) - k^2 f(x+y) - k^2 f(x-y) - 2(1-k^2) f(x)

for an integer k with |k| >= 2.  D_f vanishes identically exactly on maps of
the form f(x) = a x^3 + b x^2 + c x (componentwise), which is what makes the
operator usable as a stability residual: a small ||D_f|| certifies f is near
such a solution.  Companion residuals for the pure quadratic and the two
cubic-flavored equations are provided under the same interface.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import InvalidInputError, check_integer, check_nonnegative
from .quasinorm import PNormSpace


@dataclass(frozen=True)
class EquationParams:
    """Integer parameter k of the mixed equation; k in {-1, 0, 1} is degenerate."""

    k: int

    def __post_init__(self) -> None:
        check_integer("k", self.k)
        if self.k in (-1, 0, 1):
            raise InvalidInputError(f"k must satisfy |k| >= 2, got {self.k}")


def horner_cubic(x, a3, a2, a1):
    """a3 x^3 + a2 x^2 + a1 x, evaluated as ((a3 x + a2) x + a1) x."""
    return ((a3 * x + a2) * x + a1) * x


class FunctionHandle:
    """A map R -> R^dim, normalized so the image of 0 is the zero vector.

    The wrapped callable must be vectorized: given a shape (N,) float array it
    returns shape (N,) (promoted to one component) or (N, dim).  The value at
    0 is evaluated once at construction and subtracted from every evaluation,
    so handle(0) == 0 exactly; the subtracted vector is kept as ``offset``.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], space: PNormSpace):
        self.space = space
        self._fn = fn
        self.offset = np.zeros(space.dim)
        self.offset = self._eval(np.zeros(1))[0][0].copy()

    @classmethod
    def from_scalar(
        cls, fn: Callable[[float], float | np.ndarray], space: PNormSpace
    ) -> "FunctionHandle":
        """Wrap a scalar-argument callable (slow path: Python loop per point)."""

        def vec(xs: np.ndarray) -> np.ndarray:
            return np.array([np.asarray(fn(float(x)), dtype=float) for x in xs])

        return cls(vec, space)

    @classmethod
    def componentwise(
        cls, space: PNormSpace, fn: Callable[..., np.ndarray], *coefs
    ) -> "FunctionHandle":
        """The map x -> fn(x, *coefs), one formula for every component.

        Each coefficient is a scalar or a (dim,) vector.  fn is called with
        the points as a (1, N) row and each coefficient as a (dim, 1)
        column, so its arithmetic runs on (dim, N) arrays whose inner loops
        are along the N points; the handle reads the transposed (N, dim)
        view, whose components-axis sums are then column adds.
        """
        cols = [
            np.broadcast_to(np.asarray(c, dtype=float), (space.dim,))[:, None].copy()
            for c in coefs
        ]
        return cls(lambda xs: fn(xs[None, :], *cols).T, space)

    @classmethod
    def polynomial(cls, space: PNormSpace, a3, a2, a1) -> "FunctionHandle":
        """Componentwise a3 x^3 + a2 x^2 + a1 x; coefficients scalar or (dim,)."""
        return cls.componentwise(space, horner_cubic, a3, a2, a1)

    def _eval(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and magnitudes at the flat points xs, both shape (N, dim)."""
        out = np.asarray(self._fn(xs), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (xs.size, self.space.dim):
            raise InvalidInputError(
                f"callable returned shape {out.shape}, expected ({xs.size}, {self.space.dim})"
            )
        vals = out - self.offset
        return vals, np.abs(vals) + np.abs(self.offset)

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)[0]

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(handle(x), magnitude) from one evaluation.

        The magnitude is the size of the largest quantity summed while
        evaluating handle(x), so eps times it is the rounding scale of the
        value: |handle(x)| + |offset| for a plain handle, the half-sum of
        the two halves' magnitudes for a parity part.
        """
        xs = np.asarray(x, dtype=float)
        vals, mag = self._eval(xs.reshape(-1))
        if xs.ndim == 0:
            return vals[0], mag[0]
        shape = xs.shape + (self.space.dim,)
        return vals.reshape(shape), mag.reshape(shape)


@dataclass(frozen=True)
class EquationKind:
    """Tag selecting one residual operator; general_mixed carries its k."""

    tag: str
    params: EquationParams | None = None

    _TAGS = ("general_mixed", "quadratic", "cubic", "cubic_additive")

    def __post_init__(self) -> None:
        if self.tag not in self._TAGS:
            raise InvalidInputError(f"unknown equation tag {self.tag!r}")
        if self.tag == "general_mixed" and self.params is None:
            raise InvalidInputError("general_mixed requires EquationParams")

    @classmethod
    def general_mixed(cls, params: EquationParams) -> "EquationKind":
        return cls("general_mixed", params)

    @classmethod
    def quadratic(cls) -> "EquationKind":
        return cls("quadratic")

    @classmethod
    def cubic(cls) -> "EquationKind":
        return cls("cubic")

    @classmethod
    def cubic_additive(cls) -> "EquationKind":
        return cls("cubic_additive")

    @property
    def terms(self) -> tuple[tuple[float, float, float], ...]:
        """(c, a, b) of each term of the residual sum_m c_m f(a_m x + b_m y)."""
        if self.tag != "general_mixed":
            return _FIXED_TERMS[self.tag]
        k = float(self.params.k)
        k2 = k * k
        return ((1, 1, k), (1, 1, -k), (-k2, 1, 1), (-k2, 1, -1), (-2.0 * (1.0 - k2), 1, 0))


_FIXED_TERMS = {
    "quadratic": ((1, 1, 1), (1, 1, -1), (-2, 1, 0), (-2, 0, 1)),
    "cubic": ((1, 2, 1), (1, 2, -1), (-2, 1, 1), (-2, 1, -1), (-12, 1, 0)),
    "cubic_additive": ((1, 2, 1), (1, 2, -1), (-2, 1, 1), (-2, 1, -1), (-2, 2, 0), (4, 1, 0)),
}

# Pairs per block of pair_blocks: the working set of operator_residual on a
# block is a few arrays of block x dim floats per term, whatever the grid.
_BLOCK = 1 << 14


def pair_blocks(grid) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (X, Y) pairs of grid, in order, as flat blocks of about _BLOCK.

    grid is an array of (x, y) pairs, sliced _BLOCK rows at a time, or a
    grid with points() (a GridSpec) standing for its Cartesian square in
    GridSpec.pairs() order: each block holds whole rows of equal x, so no
    count^2-sized array is built.  A malformed pair array raises at once.
    """
    if hasattr(grid, "points"):
        pts = grid.points()
        step = max(1, _BLOCK // pts.size)
        rows = (pts[lo : lo + step] for lo in range(0, pts.size, step))
        return ((np.repeat(xs, pts.size), np.tile(pts, xs.size)) for xs in rows)
    pairs = np.asarray(grid, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise InvalidInputError("grid must be a nonempty array of (x, y) pairs")
    return (
        (pairs[lo : lo + _BLOCK, 0], pairs[lo : lo + _BLOCK, 1])
        for lo in range(0, len(pairs), _BLOCK)
    )


def operator_residual(
    f: FunctionHandle, kind: EquationKind, X: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual sum_m c_m f(a_m x + b_m y) and its rounding scale per pair.

    X and Y are flat arrays of equal length.  Returns (residuals, scale) of
    shapes (N, dim) and (N,), with scale = 1 + sum_m |c_m| pnorm(magnitude
    of the m-th evaluation), so eps * scale is the rounding level of the
    residual.  All pairs are evaluated in one pass, and each pair's result
    is that of evaluating it alone; callers bound memory with pair_blocks.
    """
    acc = size = 0.0
    for c, a, b in kind.terms:
        vals, mag = f.evaluate(a * X + b * Y)
        acc = acc + c * vals
        size = size + abs(c) * f.space.pnorm(mag)
    return acc, 1.0 + size


def residual(f: FunctionHandle, kind: EquationKind, x, y) -> np.ndarray:
    """Residual of f in the equation selected by kind, at (x, y).

    Vectorized, broadcasting x against y: returns shape (dim,) for scalar
    inputs, otherwise broadcast_shape + (dim,).
    """
    xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out, _ = operator_residual(f, kind, xs.reshape(-1), ys.reshape(-1))
    if xs.ndim == 0:
        return out[0]
    return out.reshape(xs.shape + (f.space.dim,))


def difference_operator(f: FunctionHandle, params: EquationParams, x, y) -> np.ndarray:
    """D_f(x, y), the general_mixed residual; five evaluations of f per point."""
    return residual(f, EquationKind.general_mixed(params), x, y)


class _ParityPart(FunctionHandle):
    """Even or odd part of a handle, from one f(x), f(-x) pair per point.

    Both halves come from one evaluation of the whole handle at [x; -x].

    Its magnitude is the half-sum of those of f(x) and f(-x): where the
    other parity dominates, the part is a small difference of large values,
    and its rounding scale is that of the halves, not of the result.
    """

    def __init__(self, whole: FunctionHandle, odd: bool):
        # No evaluation at construction: whole vanishes at +-0, so the part
        # does too, and its offset is 0.
        self._whole = whole
        self._odd = odd
        self.space = whole.space
        self.offset = np.zeros(whole.space.dim)

    def _eval(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = xs.size
        vals, mag = self._whole._eval(np.concatenate([xs, -xs]))
        plus, minus = vals[:n], vals[n:]
        part = 0.5 * (plus - minus) if self._odd else 0.5 * (plus + minus)
        return part, 0.5 * (mag[:n] + mag[n:])


def parity_split(f: FunctionHandle) -> tuple[FunctionHandle, FunctionHandle]:
    """Even and odd parts, e(x) = (f(x)+f(-x))/2 and o(x) = (f(x)-f(-x))/2.

    The parts are exactly symmetric (floating add is commutative and subtract
    antisymmetric); reassembly e + o matches f to within 1 ulp.
    """
    return _ParityPart(f, odd=False), _ParityPart(f, odd=True)


def mixed_fourth_residual(f: FunctionHandle, x) -> np.ndarray:
    """f(4x) - 10 f(2x) + 16 f(x); separates the cubic and additive scales.

    Vanishes iff the dyadic scaling of f is consistent with a cubic+additive
    odd part (it is -8 x^2 on a pure square, nonzero, which is the point:
    quadratic content survives).
    """
    xs = np.asarray(x, dtype=float)
    return f(4.0 * xs) - 10.0 * f(2.0 * xs) + 16.0 * f(xs)


def biadditive_form(q: FunctionHandle, x, y) -> np.ndarray:
    """Polarization (q(x+y) - q(x-y))/4 of a quadratic map q."""
    xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return 0.25 * (q(xs + ys) - q(xs - ys))


def json_key(f) -> str:
    """A dataclass field's JSON key: its name unless its metadata names another."""
    return f.metadata.get("json", f.name)


@functools.cache
def _json_fields(cls) -> tuple[tuple[str, str], ...]:
    return tuple((json_key(f), f.name) for f in fields(cls))


def to_json(value):
    """value as plain JSON data, the one serializer of stabeq's outputs.

    A dataclass becomes an object of its fields in order, keyed by json_key;
    dicts and lists are walked; numpy arrays and scalars become lists and
    Python numbers.  Everything else (numbers, strings, None, int enums,
    tuples of numbers) is left for json.dumps to write as it is, and is
    checked for first.  to_json(report) is a report's data;
    harness.report_to_json writes the same bytes as json.dumps(to_json(report),
    indent=2) but renders the rows, nearly all of a report's leaves, from a
    template without walking them here.
    """
    if value is None or isinstance(value, (int, float, str, tuple)):
        return value
    if is_dataclass(value):
        return {key: to_json(getattr(value, name)) for key, name in _json_fields(type(value))}
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    if isinstance(value, list):
        return [to_json(v) for v in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


@dataclass
class SolutionReport:
    """Grid verification verdict for one equation and one candidate map."""

    equation: str
    k: int | None
    max_residual: float
    argmax_point: tuple[float, float]
    scale: float
    passed: bool = field(metadata={"json": "pass"})


def verify_solution(
    f: FunctionHandle, params: EquationParams, grid, tol: float
) -> SolutionReport:
    """Max pnorm(D_f) over a grid of (x, y) pairs, judged against tol * scale.

    grid is an array of pairs or a GridSpec's square, read by pair_blocks
    one block at a time.  scale is the largest per-pair rounding scale
    operator_residual reports, 1 + sum_m |c_m| pnorm(f-evaluation m), so
    tol is relative to the magnitudes actually summed.  A map that overflows
    float64 on the grid gets a NaN or infinite max_residual, which fails.
    """
    blocks = pair_blocks(grid)
    check_nonnegative("tol", tol)
    kind = EquationKind.general_mixed(params)
    max_residual, argmax_point, scale = -np.inf, None, -np.inf
    for X, Y in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            resid, scales = operator_residual(f, kind, X, Y)
            norms = f.space.pnorm(resid)
        i = int(np.argmax(norms))
        # np.argmax over [best so far, this block's best] takes the later
        # block only where the whole-grid np.argmax would: strictly greater,
        # or the first NaN.
        if np.argmax([max_residual, norms[i]]) == 1:
            max_residual, argmax_point = float(norms[i]), (float(X[i]), float(Y[i]))
        scale = float(np.maximum(scale, np.max(scales)))
    return SolutionReport(
        equation="general_mixed",
        k=params.k,
        max_residual=max_residual,
        argmax_point=argmax_point,
        scale=scale,
        passed=bool(max_residual <= tol * scale),
    )

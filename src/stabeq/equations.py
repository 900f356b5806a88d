"""Difference operators for the mixed cubic-quadratic-additive equation family.

The central operator is

    D_f(x, y) = f(x+ky) + f(x-ky) - k^2 f(x+y) - k^2 f(x-y) - 2(1-k^2) f(x)

for an integer k with |k| >= 2.  D_f vanishes identically exactly on maps of
the form f(x) = a x^3 + b x^2 + c x (componentwise), which is what makes the
operator usable as a stability residual: a small ||D_f|| certifies f is near
such a solution.  Companion residuals for the pure quadratic and the cubic
equations are provided under the same interface.
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
        self.offset = self._values(np.zeros(1))[0].copy()

    @classmethod
    def componentwise(
        cls, space: PNormSpace, fn: Callable[..., np.ndarray], *coefs
    ) -> "FunctionHandle":
        """The map x -> fn(x, *coefs), one formula for every component.

        fn is called with the points as a (1, N) row.  A scalar coefficient
        is passed as a 0-d float, so the arithmetic it takes part in runs
        once per point, on (1, N); a (dim,) vector coefficient is passed as
        a (dim, 1) column, so its arithmetic runs on (dim, N) arrays whose
        inner loops are along the N points.  Either way each element goes
        through the same float operations.  A (1, N) result, one row shared
        by every component, is broadcast to (dim, N); the handle reads the
        transposed (N, dim) view, whose components-axis sums are then column
        adds.  A result of any other shape than (dim, N) is rejected by the
        handle's shape check.
        """
        dim = space.dim
        args = [
            np.broadcast_to(np.asarray(c, dtype=float), (dim,))[:, None].copy()
            if np.ndim(c)
            else float(c)
            for c in coefs
        ]

        def values(xs):
            out = fn(xs[None, :], *args)
            if dim > 1 and np.shape(out) == (1, xs.size):
                out = np.broadcast_to(out, (dim, xs.size))
            return out.T

        return cls(values, space)

    def _values(self, xs: np.ndarray) -> np.ndarray:
        """Values at the flat points xs, shape (N, dim)."""
        out = np.asarray(self._fn(xs), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (xs.size, self.space.dim):
            raise InvalidInputError(
                f"callable returned shape {out.shape}, expected ({xs.size}, {self.space.dim})"
            )
        return out - self.offset

    def _eval(self, xs: np.ndarray, at=None) -> tuple[np.ndarray, np.ndarray]:
        """Values at the flat points xs, (N, dim), and magnitudes at xs[at] only.

        at is a boolean mask over xs, or None for every point.
        """
        vals = self._values(xs)
        return vals, np.abs(vals if at is None else vals[at]) + np.abs(self.offset)

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
    """A residual's term table: (c, a, b) of each term of sum_m c_m f(a_m x + b_m y)."""

    terms: tuple[tuple[float, float, float], ...]

    @classmethod
    def general_mixed(cls, params: EquationParams) -> "EquationKind":
        k = float(params.k)
        k2 = k * k
        return cls(((1, 1, k), (1, 1, -k), (-k2, 1, 1), (-k2, 1, -1), (-2.0 * (1.0 - k2), 1, 0)))

    @classmethod
    def quadratic(cls) -> "EquationKind":
        return cls(((1, 1, 1), (1, 1, -1), (-2, 1, 0), (-2, 0, 1)))

    @classmethod
    def cubic(cls) -> "EquationKind":
        return cls(((1, 2, 1), (1, 2, -1), (-2, 1, 1), (-2, 1, -1), (-12, 1, 0)))


# The float budget of one working array: a tile of pair_blocks holds at most
# _BLOCK // dim pairs, so each array operator_residual builds on it holds
# about _BLOCK floats, whatever the grid; take_limit sizes its chunks of
# points by the same budget.
_BLOCK = 1 << 14


def pair_blocks(grid, dim: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (X, Y) pairs of grid, in order, as flat tiles of at most _BLOCK // dim pairs.

    grid is an array of (x, y) pairs, sliced into tiles, or a grid with
    points() (a GridSpec) standing for its Cartesian square in
    GridSpec.pairs() order: a tile holds whole rows of equal x where a row
    fits in it, and one piece of a row where it does not, so no array
    longer than the tile is built besides the count points.  A malformed
    pair array raises at once.
    """
    size = max(1, _BLOCK // dim)
    if hasattr(grid, "points"):
        pts = grid.points()
        n = pts.size
        if n > size:
            pieces = [pts[lo : lo + size] for lo in range(0, n, size)]
            return ((np.full(ys.size, x), ys) for x in pts for ys in pieces)
        rows = (pts[lo : lo + size // n] for lo in range(0, n, size // n))
        return ((np.repeat(xs, n), np.tile(pts, xs.size)) for xs in rows)
    pairs = np.asarray(grid, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise InvalidInputError("grid must be a nonempty array of (x, y) pairs")
    return (
        (pairs[lo : lo + size, 0], pairs[lo : lo + size, 1])
        for lo in range(0, len(pairs), size)
    )


def operator_residual(
    f: FunctionHandle, kind: EquationKind, X: np.ndarray, Y: np.ndarray, at=None
) -> tuple[np.ndarray, np.ndarray]:
    """Residual sum_m c_m f(a_m x + b_m y) per pair, and its rounding scale where at says.

    X and Y are flat arrays of equal length, and at is a boolean mask over
    the pairs or None for all of them.  Returns (residuals, scale) of shapes
    (N, dim) and (M,), M the pairs at selects, with scale = 1 + sum_m |c_m|
    pnorm(magnitude of the m-th evaluation), so eps * scale is the rounding
    level of the residual; magnitudes are built only at those pairs.  All
    pairs are evaluated in one pass, and each pair's result is that of
    evaluating it alone; callers bound memory with pair_blocks.  Where at
    selects no pair, no magnitude is normed and the scale is empty.
    """
    skip = at is not None and not at.any()
    acc, size = 0.0, np.zeros(0) if skip else 0.0
    for c, a, b in kind.terms:
        vals, mag = f._eval(a * X + b * Y, at)
        acc = acc + c * vals
        if not skip:
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

    def _eval(self, xs: np.ndarray, at=None) -> tuple[np.ndarray, np.ndarray]:
        n = xs.size
        both = None if at is None else np.concatenate([at, at])
        vals, mag = self._whole._eval(np.concatenate([xs, -xs]), both)
        plus, minus = vals[:n], vals[n:]
        part = 0.5 * (plus - minus) if self._odd else 0.5 * (plus + minus)
        m = len(mag) // 2  # the points at selects, at x and then at -x
        return part, 0.5 * (mag[:m] + mag[m:])


def parity_split(f: FunctionHandle) -> tuple[FunctionHandle, FunctionHandle]:
    """Even and odd parts, e(x) = (f(x)+f(-x))/2 and o(x) = (f(x)-f(-x))/2.

    The parts are exactly symmetric (floating add is commutative and subtract
    antisymmetric); reassembly e + o matches f to within 1 ulp.
    """
    return _ParityPart(f, odd=False), _ParityPart(f, odd=True)


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
    one tile at a time.  scale is the largest rounding scale operator_residual
    reports over every pair, 1 + sum_m |c_m| pnorm(f-evaluation m), so
    tol is relative to the magnitudes actually summed.  A map that overflows
    float64 on the grid gets a NaN or infinite max_residual, which fails.
    """
    blocks = pair_blocks(grid, f.space.dim)
    check_nonnegative("tol", tol)
    kind = EquationKind.general_mixed(params)
    max_residual, argmax_point, scale = -np.inf, None, -np.inf
    for X, Y in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            resid, scales = operator_residual(f, kind, X, Y)
            norms = f.space.pnorm(resid)
        i = int(np.argmax(norms))
        # np.argmax over [best so far, this tile's best] takes the later
        # tile only where the whole-grid np.argmax would: strictly greater,
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

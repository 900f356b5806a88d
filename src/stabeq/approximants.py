"""Limit constructions recovering the additive, quadratic and cubic parts.

Near-solutions of the mixed equation split into parity pieces, and each piece
is recovered by a scaled iteration:

  quadratic: k^(2nj) f_e(x / k^(nj))                 -> Q(x)
  additive:  2^(nj) g(x / 2^(nj)),  g(x) = f(2x) - 8 f(x)  -> A0(x) = -6 A(x)
  cubic:     8^(nj) h(x / 2^(nj)),  h(x) = f(2x) - 2 f(x)  -> C0(x) =  6 C(x)

with direction j = +1 (arguments contract) or j = -1 (arguments expand).
Each is one row of IterKind: a component of degree d iterates with base b
(k for the even part, 2 for the odd one), reads f at x / b^(nj), weighs by
b^(dnj), and an odd component combines f(2x) - 2^(4-d) f(x), whose limit is
(2^d - 2^(4-d)) times the component.  Every iterate reads f on one geometric
sequence of rungs x * b^(-mj), each rounded once: level n reads rung n, and
an odd kind's 2u is rung n - j.
Limits are taken with a Cauchy stopping rule floored at the rounding scale
of the iterate, so an expanding iteration stops at the best accuracy float64
supports instead of chasing cancellation noise; a non-finite iterate marks
the point diverged and keeps the last finite value rather than raising.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .equations import EquationParams, FunctionHandle, parity_split
from .errors import InvalidInputError, check_integer, check_nonnegative
from .quasinorm import PNormSpace

# Seed for the fixed pseudo-random probe set decompose_odd checks oddness on.
PROBE_SEED = 1729
PROBE_COUNT = 32


def default_probes(lo: float = -5.0, hi: float = 5.0) -> np.ndarray:
    """The documented deterministic probe points on [lo, hi]."""
    rng = np.random.default_rng(PROBE_SEED)
    return rng.uniform(lo, hi, PROBE_COUNT)


class Direction(IntEnum):
    """Iteration direction j: CONTRACT shrinks arguments, EXPAND grows them."""

    CONTRACT = 1
    EXPAND = -1


class IterKind(Enum):
    """The three components, in the slot order of a directions triple.

    label  : the component's name, its key in the diagnostics
    letter : the letter of its comparison series (psi_e, psi_a, psi_c)
    degree : d, the component's degree and its series' critical exponent
    """

    QUADRATIC = ("quadratic", "e", 2.0)
    ADDITIVE = ("additive", "a", 1.0)
    CUBIC = ("cubic", "c", 3.0)

    def __init__(self, label: str, letter: str, degree: float):
        self.label, self.letter, self.degree = label, letter, degree
        self.odd = degree % 2 == 1  # iterated on the odd part of f

    def base(self, params: EquationParams | None) -> int:
        """The scaling base b: the equation's k for the even part, 2 for the odd one."""
        return 2 if self.odd else params.k


# Default iteration caps: base-2 iterations get 48 doublings, the base-k^2
# quadratic iteration 30 (k >= 2 contracts at least as fast as 4^n).
DEFAULT_MAX_N = 48
DEFAULT_MAX_N_QUADRATIC = 30
DEFAULT_TOL = 1e-10

# Cauchy steps are accepted once they fall below _FLOOR_SAFETY * eps times
# the rounding scale of the iterate; past that point the sequence carries
# only float noise.
_EPS = float(np.finfo(float).eps)
_FLOOR_SAFETY = 4.0


@dataclass(frozen=True)
class IterationSpec:
    """One scaled-iteration family: what to iterate and when to stop.

    tol is relative: the loop stops once the Cauchy step is below
    tol * (1 + pnorm(iterate)).
    """

    kind: IterKind
    direction: Direction
    params: EquationParams | None = None
    tol: float = DEFAULT_TOL
    max_n: int | None = None

    def __post_init__(self) -> None:
        if not self.kind.odd and self.params is None:
            raise InvalidInputError("quadratic iteration requires EquationParams")
        check_nonnegative("tol", self.tol)
        if self.max_n is not None:
            check_integer("max_n", self.max_n, 1)

    @property
    def cap(self) -> int:
        if self.max_n is not None:
            return self.max_n
        return DEFAULT_MAX_N if self.kind.odd else DEFAULT_MAX_N_QUADRATIC


def _powers(base: int, exponent: float, levels: range) -> np.ndarray:
    """base ** (exponent * n) at each level n, each power taken in Python floats.

    A power past float64's range is inf, signed as the power (numpy's overflow).
    """

    def power(e: float) -> float:
        try:
            return float(base) ** e
        except OverflowError:
            return math.copysign(math.inf, base) if e % 2 == 1 else math.inf

    return np.array([power(exponent * n) for n in levels])


def _rungs(spec: IterationSpec, levels: range) -> range:
    """The rungs levels read: rung n at level n, and rung n - j too for an odd kind."""
    j = int(spec.direction) if spec.kind.odd else 0
    return range(levels[0] - max(j, 0), levels[-1] - min(j, 0) + 1)


def _points(spec: IterationSpec, X: np.ndarray, rungs: range) -> np.ndarray:
    """Rung m of each x in X, x * b^(-mj) rounded once: (R, N), one row per rung."""
    return X * _powers(spec.kind.base(spec.params), -int(spec.direction), rungs)[:, None]


def _combine(spec: IterationSpec, levels: range, rungs: range, vals, mag):
    """Value and rounding scale of the iterates at levels, from f's (vals, mag) at rungs.

    Level n reads its u at rung n, and an odd kind's 2u at rung n - j.
    Returns (values, magnitude), both shape (L, N, dim).  magnitude carries
    the scaled absolute sizes of the function evaluations entering the
    combination; eps times its pnorm is the level below which Cauchy steps
    are float noise, not information about the limit.
    """
    kind, j = spec.kind, int(spec.direction)
    scale = _powers(kind.base(spec.params), kind.degree * j, levels)[:, None, None]
    first = levels[0] - rungs[0]  # the row of levels[0]'s u
    at = slice(first, first + len(levels))
    if not kind.odd:
        return scale * vals[at], abs(scale) * mag[at]
    two = slice(first - j, first - j + len(levels))
    c = 2.0 ** (4.0 - kind.degree)
    return scale * (vals[two] - c * vals[at]), abs(scale) * (mag[two] + c * mag[at])


def _iterate_values(spec: IterationSpec, f: FunctionHandle, X: np.ndarray, n: int):
    """_combine's (values, magnitude) of the n-th iterate at the points X."""
    levels = range(n, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, mag = _combine(spec, levels, *_Ladder(spec, f, X).block(levels, np.arange(X.size)))
    return vals[0], mag[0]


def iterate_quadratic(
    f: FunctionHandle, params: EquationParams, direction: Direction, x, n: int
) -> np.ndarray:
    """k^(2nj) f(u): u = x / k^(nj) is rung n, rounded once."""
    return _dispatch_iterate(IterationSpec(IterKind.QUADRATIC, direction, params), f, x, n)


def iterate_additive(f: FunctionHandle, direction: Direction, x, n: int) -> np.ndarray:
    """2^(nj) g(u), g(u) = f(2u) - 8 f(u): u and 2u are rungs n and n - j, each rounded once."""
    return _dispatch_iterate(IterationSpec(IterKind.ADDITIVE, direction), f, x, n)


def iterate_cubic(f: FunctionHandle, direction: Direction, x, n: int) -> np.ndarray:
    """8^(nj) h(u), h(u) = f(2u) - 2 f(u): u and 2u are rungs n and n - j, each rounded once."""
    return _dispatch_iterate(IterationSpec(IterKind.CUBIC, direction), f, x, n)


def _dispatch_iterate(spec: IterationSpec, f: FunctionHandle, x, n: int) -> np.ndarray:
    check_integer("n", n, 0)
    xs = np.asarray(x, dtype=float)
    vals, _ = _iterate_values(spec, f, xs.reshape(-1), n)
    if xs.ndim == 0:
        return vals[0]
    return vals.reshape(xs.shape + (f.space.dim,))


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """Worst-case view of a batch of pointwise limits.

    n_used    : largest iteration index compared before stopping
    last_step : largest final Cauchy step (inf marks an overflowed point)
    converged : every point met its tolerance within the cap
    """

    n_used: int
    last_step: float
    converged: bool

    def merge(self, other: "ConvergenceDiagnostics") -> "ConvergenceDiagnostics":
        """The worst case of both records."""
        return ConvergenceDiagnostics(
            n_used=max(self.n_used, other.n_used),
            last_step=max(self.last_step, other.last_step),
            converged=self.converged and other.converged,
        )


_NOTHING_EVALUATED = ConvergenceDiagnostics(0, 0.0, True)


# Levels per block after level 1: one f call and one stop-rule scan take
# them all, and a point is read at most _BLOCK_LEVELS - 1 levels past its stop.
_BLOCK_LEVELS = 6


class _Ladder:
    """f at the rungs of one iteration, each rung read once per point.

    Rung m of a point x is x * b^(-mj), rounded once.  Level n of the
    quadratic kind reads rung n; level n of an odd kind reads rungs n - j
    (its 2u) and n (its u).  So a block of odd levels starts on the rung the
    block before ended on, in either direction, and carries its values over;
    a block of Q's levels shares no rung with the one before.  Each block
    evaluates the rungs it has not seen in one call.
    """

    def __init__(self, spec: IterationSpec, f: FunctionHandle, X: np.ndarray):
        self._spec, self._f, self._X = spec, f, X
        self._last = None  # the last rung read, and f's values there per point
        self._vals = np.zeros((X.size, f.space.dim))
        self._mag = np.zeros((X.size, f.space.dim))

    def block(self, levels: range, idx: np.ndarray):
        """(rungs, values, magnitude): f at the rungs levels read, at the points X[idx].

        values and magnitude are (R, M, dim), for the R rungs and the M points.
        """
        rungs = _rungs(self._spec, levels)
        carried = int(rungs[0] == self._last)
        vals, mag = self._f.evaluate(_points(self._spec, self._X[idx], rungs[carried:]))
        if carried:
            vals = np.concatenate([self._vals[idx][None], vals])
            mag = np.concatenate([self._mag[idx][None], mag])
        self._last = rungs[-1]
        self._vals[idx], self._mag[idx] = vals[-1], mag[-1]
        return rungs, vals, mag


class _Limit:
    """The Cauchy stopping rule of one iteration, a block of levels at a time."""

    def __init__(self, spec: IterationSpec, space: PNormSpace, n_pts: int):
        self.spec = spec
        self._space = space
        self._result = np.zeros((n_pts, space.dim))
        self._n_used = np.zeros(n_pts, dtype=int)
        self._last_step = np.zeros(n_pts)
        self._converged = np.zeros(n_pts, dtype=bool)
        self.live = np.ones(n_pts, dtype=bool)  # not yet stopped
        # What the next level reads of the last one at each live point, in
        # index order: its iterate, whether its step was small, and that step.
        self._carry = None

    def take(self, levels: range, idx: np.ndarray, rungs: range, vals, mag) -> None:
        """Take levels (up to the cap) from f's (vals, mag) at rungs, read at the points idx.

        Each live point stops at its first level n with ok | blown | n == cap,
        and its result and diagnostics are that level's.  Level n is armed
        by level n-1's small step and must not exceed it.
        """
        levels = levels[: self.spec.cap - levels[0] + 1]
        mine = self.live[idx]
        if not mine.all():
            idx = idx[mine]
            vals, mag = vals[:, mine], mag[:, mine]
        space = self._space
        cur, mag = _combine(self.spec, levels, rungs, vals, mag)
        if levels[0] == 0:  # level 0 only starts the sequence
            self._carry = cur[0], np.zeros(idx.size, dtype=bool), np.full(idx.size, np.inf)
            cur, mag, levels = cur[1:], mag[1:], levels[1:]
        last_cur, last_small, last_step = self._carry
        prev = np.concatenate([last_cur[None], cur[:-1]])
        step = space.pnorm(cur - prev)
        finite = np.isfinite(cur).all(axis=-1)
        # tol_eff and floor are read only where the iterate is finite.
        tol_eff = self.spec.tol * (1.0 + space.pnorm(cur))
        floor = _FLOOR_SAFETY * _EPS * space.pnorm(mag)
        small = finite & (step <= np.maximum(tol_eff, floor))
        armed = np.concatenate([last_small[None], small[:-1]])
        prev_step = np.concatenate([last_step[None], step[:-1]])
        ok = small & ((armed & (step <= prev_step)) | (step <= floor))
        stop = ok | ~finite
        if levels[-1] == self.spec.cap:
            stop[-1] = True
        done = stop.any(axis=0)
        going = ~done
        self._carry = cur[-1][going], small[-1][going], step[-1][going]
        if not done.any():
            return
        self.live[idx[done]] = False
        at = (stop.argmax(axis=0)[done], np.flatnonzero(done))
        pts = idx[done]
        kept = finite[at]  # a blown point keeps its last finite iterate, the one before
        self._result[pts] = np.where(kept[:, None], cur[at], prev[at])
        self._n_used[pts] = levels[0] + at[0]
        self._last_step[pts] = np.where(kept, step[at], np.inf)
        self._converged[pts] = ok[at]

    def finish(self, xs: np.ndarray) -> tuple[np.ndarray, ConvergenceDiagnostics]:
        diag = ConvergenceDiagnostics(
            n_used=int(self._n_used.max(initial=0)),
            last_step=float(self._last_step.max(initial=0.0)),
            converged=bool(self._converged.all()),
        )
        result = self._result
        vals = result[0] if xs.ndim == 0 else result.reshape(xs.shape + result.shape[-1:])
        return vals, diag


def take_limit(spec: IterationSpec | tuple[IterationSpec, ...], f: FunctionHandle, x):
    """Run the iteration to its Cauchy limit at each point of x.

    Returns (values, diagnostics).  A step is small at n when
    pnorm(seq(n) - seq(n-1)) <= max(tol * (1 + pnorm(seq(n))), floor); a
    point stops at the first n whose step is at the floor itself
    (consecutive iterates agreeing to rounding resolution cannot be refined,
    so exact solutions stop with n_used = 1), or at the first n with two
    consecutive small, non-increasing steps.  A single small step is not
    evidence of convergence for oscillatory perturbations: a step can
    collide near zero by phase accident while the iterate is still far from
    its limit, and when the phase locks across several doubling levels the
    whole run of accidental steps is small but growing geometrically.  The
    non-increase requirement rejects exactly that growth signature.  Points
    that hit the cap or overflow are reported converged=False (overflow
    keeps the last finite iterate and records last_step = inf).

    The floor is eps times the rounding scale of the iterate (see
    _combine).  Without it, an expanding iteration on a function with
    large high-order content keeps running after the true step has sunk into
    cancellation noise, and the noise eventually grows or collides to an
    exactly repeated wrong value.  With it, the loop stops at the most
    accurate iterate float64 can represent and reports that as converged;
    last_step records the accuracy actually achieved.

    Levels are taken in blocks: levels 0 and 1, then _BLOCK_LEVELS at a
    time.  Each block reads f at the rungs its levels read (see _Ladder) for
    the points still live in one evaluation, and applies the stopping rule
    to the whole block as one scan along the level axis.  Each level's
    arithmetic is that of taking it alone, so values and diagnostics are
    too; a point may be read up to _BLOCK_LEVELS - 1 levels past its stop.

    spec may also be a tuple of odd-kind specs with one direction (A's and
    C's).  They read the same rungs, so they run on one _Ladder: each
    block's f-values serve every spec still live at the point, and a tuple
    of (values, diagnostics) pairs comes back, each bitwise equal to that
    spec's own take_limit.
    """
    specs = spec if isinstance(spec, tuple) else (spec,)
    if not specs or len(specs) > 1 and any(
        not s.kind.odd or s.direction != specs[0].direction for s in specs
    ):
        raise InvalidInputError("a ladder takes one spec, or odd-kind specs of one direction")
    xs = np.asarray(x, dtype=float)
    X = xs.reshape(-1)
    ladder = _Ladder(specs[0], f, X)
    limits = [_Limit(s, f.space, X.size) for s in specs]
    lo, hi = 0, 1  # level 1 alone: exact solutions stop there
    with np.errstate(over="ignore", invalid="ignore"):
        while live := [lim for lim in limits if lim.live.any()]:
            levels = range(lo, min(hi, max(lim.spec.cap for lim in live)) + 1)
            idx = np.flatnonzero(functools.reduce(np.logical_or, (lim.live for lim in live)))
            block = ladder.block(levels, idx)
            for lim in live:
                lim.take(levels, idx, *block)
            lo, hi = hi + 1, hi + _BLOCK_LEVELS
    out = tuple(lim.finish(xs) for lim in limits)
    return out if isinstance(spec, tuple) else out[0]


class LimitFunction(FunctionHandle):
    """Lazy pointwise limit of an iteration, usable as a FunctionHandle.

    Evaluations run take_limit on the requested points and scale by a
    constant.  .diagnostics is the worst case over every point evaluated so
    far (n_used 0 before the first evaluation).  Construction evaluates
    nothing: base vanishes at 0, so every iterate and the limit are signed
    zeros there, and the offset is scale * 0 (-0.0 under A's negative scale,
    which keeps A's value at x = 0 a +0.0).
    """

    def __init__(self, spec: IterationSpec, base: FunctionHandle, scale: float = 1.0):
        self.spec = spec
        self.base = base
        self.space = base.space
        self._scale = scale
        self.offset = scale * np.zeros(base.space.dim)
        self.diagnostics = _NOTHING_EVALUATED

    def _eval(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals = self.settle(*take_limit(self.spec, self.base, xs))
        return vals, np.abs(vals) + np.abs(self.offset)

    def settle(self, vals: np.ndarray, diag: ConvergenceDiagnostics) -> np.ndarray:
        """This handle's values from take_limit's result for its spec; merges diag."""
        self.diagnostics = self.diagnostics.merge(diag)
        return self._scale * vals - self.offset


def _component(
    kind: IterKind, base: FunctionHandle, j: Direction, tol: float, max_n: int, params=None
) -> LimitFunction:
    """The kind's component, the scaled limit of its iteration on base.

    An odd kind's limit is 2^d - 2^(4-d) times its component (-6 A, 6 C);
    Q's iteration is capped at DEFAULT_MAX_N_QUADRATIC.
    """
    if kind.odd:
        scale = 1.0 / (2.0**kind.degree - 2.0 ** (4.0 - kind.degree))
        return LimitFunction(IterationSpec(kind, j, tol=tol, max_n=max_n), base, scale)
    cap = min(max_n, DEFAULT_MAX_N_QUADRATIC)
    return LimitFunction(IterationSpec(kind, j, params, tol, cap), base)


def decompose_odd(
    f: FunctionHandle,
    j_additive: Direction = Direction.EXPAND,
    j_cubic: Direction = Direction.EXPAND,
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> tuple[LimitFunction, LimitFunction]:
    """Split an odd near-solution into additive and cubic approximants.

    A(x) = -(1/6) lim 2^(nj) g(x/2^(nj)),  C(x) = (1/6) lim 8^(nj) h(x/2^(nj));
    then A + C approximates f.  Oddness is validated at default_probes().
    """
    probes = default_probes()
    vals = f(probes)
    slack = 1e-9 * (1.0 + f.space.pnorm(vals))
    if np.any(f.space.pnorm(vals + f(-probes)) > slack):
        raise InvalidInputError("decompose_odd requires an odd map")
    return (
        _component(IterKind.ADDITIVE, f, j_additive, tol, max_n),
        _component(IterKind.CUBIC, f, j_cubic, tol, max_n),
    )


@dataclass
class DecompositionResult:
    """Recovered components of a near-solution, f ~ A + Q + C."""

    A: LimitFunction
    Q: LimitFunction
    C: LimitFunction
    offsets: np.ndarray
    directions: tuple[Direction, Direction, Direction]

    @property
    def diagnostics(self) -> dict[str, ConvergenceDiagnostics]:
        return {c.spec.kind.label: c.diagnostics for c in (self.Q, self.A, self.C)}

    def components_at(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A(x), Q(x) and C(x), bitwise as the three calls give them.

        When A and C iterate one base in one direction, both come from one
        take_limit call that reads each odd-part value once for the two.
        """
        A, C = self.A, self.C
        if A.base is not C.base or A.spec.direction != C.spec.direction:
            return A(x), self.Q(x), C(x)
        (va, da), (vc, dc) = take_limit((A.spec, C.spec), A.base, x)
        return A.settle(va, da), self.Q(x), C.settle(vc, dc)


def decompose_full(
    f: FunctionHandle,
    params: EquationParams,
    directions: tuple[Direction, Direction, Direction] = (Direction.EXPAND,) * 3,
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> DecompositionResult:
    """Full parity-split decomposition f ~ A + Q + C.

    directions = (j_quadratic, j_additive, j_cubic).  The even part feeds the
    base-k^2 quadratic iteration, capped at min(max_n, DEFAULT_MAX_N_QUADRATIC),
    and the odd part the base-2 pair, capped at max_n.  Nothing is iterated
    until a component is called, so each component's diagnostics cover
    exactly the points it was evaluated at.
    """
    even, odd = parity_split(f)
    Q, A, C = (
        _component(kind, odd if kind.odd else even, j, tol, max_n, params)
        for kind, j in zip(IterKind, directions, strict=True)
    )
    return DecompositionResult(
        A=A, Q=Q, C=C, offsets=f.offset.copy(), directions=tuple(map(Direction, directions))
    )

"""Limit constructions recovering the additive, quadratic and cubic parts.

Near-solutions of the mixed equation split into parity pieces, and each piece
is recovered by a scaled iteration:

  quadratic: k^(2nj) f_e(x / k^(nj))                 -> Q(x)
  additive:  2^(nj) g(x / 2^(nj)),  g(x) = f(2x) - 8 f(x)  -> A0(x) = -6 A(x)
  cubic:     8^(nj) h(x / 2^(nj)),  h(x) = f(2x) - 2 f(x)  -> C0(x) =  6 C(x)

with direction j = +1 (arguments contract) or j = -1 (arguments expand).
Each is one row of IterKind: a component of degree d iterates with base b
(k for the even part, 2 for the odd one), reads f at x / b^(nj), weighs by
b^(dnj), and an odd component combines f(2x) - c f(x), c = 2^(4-d)
(IterKind.coeff), whose limit is (2^d - c) times the component.  Every kind
stops by one rule and at one cap, IterationSpec.max_n.  Every iterate reads
f on one geometric sequence of rungs x * b^(-mj), each rounded once: level n
reads rung n, and an odd kind's 2u is rung n - j.
Limits are taken with a Cauchy stopping rule floored at the rounding scale
of the iterate, so an expanding iteration stops at the best accuracy float64
supports instead of chasing cancellation noise; a non-finite iterate marks
the point diverged and keeps the last finite value rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from . import equations
from .equations import EquationParams, FunctionHandle, parity_split
from .errors import InvalidInputError, check_integer, check_nonnegative
from .quasinorm import PNormSpace


class Direction(IntEnum):
    """Iteration direction j: CONTRACT shrinks arguments, EXPAND grows them."""

    CONTRACT = 1
    EXPAND = -1


class IterKind(Enum):
    """The three components, in the slot order of a directions triple.

    label  : the component's name, its key in the diagnostics
    letter : the letter of its comparison series (psi_e, psi_a, psi_c)
    degree : d, the component's degree and its series' critical exponent
    coeff  : c = 2^(4-d); an odd kind iterates f(2x) - c f(x), whose limit
             is 2^d - c times the component
    """

    QUADRATIC = ("quadratic", "e", 2.0)
    ADDITIVE = ("additive", "a", 1.0)
    CUBIC = ("cubic", "c", 3.0)

    def __init__(self, label: str, letter: str, degree: float):
        self.label, self.letter, self.degree = label, letter, degree
        self.odd = degree % 2 == 1  # iterated on the odd part of f
        self.coeff = 2.0 ** (4.0 - degree)

    def base(self, params: EquationParams | None) -> int:
        """The scaling base b: the equation's k for the even part, 2 for the odd one."""
        return 2 if self.odd else params.k


# The default iteration cap of every component: 48 levels.
DEFAULT_MAX_N = 48
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
    tol * (1 + pnorm(iterate)).  max_n is the last level taken, the same
    cap for every kind.
    """

    kind: IterKind
    direction: Direction
    params: EquationParams | None = None
    tol: float = DEFAULT_TOL
    max_n: int = DEFAULT_MAX_N

    def __post_init__(self) -> None:
        if not self.kind.odd and self.params is None:
            raise InvalidInputError("quadratic iteration requires EquationParams")
        check_nonnegative("tol", self.tol)
        check_integer("max_n", self.max_n, 1)


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
    c = kind.coeff
    return scale * (vals[two] - c * vals[at]), abs(scale) * (mag[two] + c * mag[at])


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """Worst case of a limit's per-point records, as worst_cases takes it.

    n_used    : largest iteration index compared before stopping
    last_step : largest final Cauchy step (inf marks an overflowed point)
    converged : every point met its tolerance within the cap
    """

    n_used: int
    last_step: float
    converged: bool


def worst_cases(records: dict) -> dict[str, ConvergenceDiagnostics]:
    """Each label's worst case over its per-point records, in order; a NaN last_step stays NaN."""
    return {
        label: ConvergenceDiagnostics(
            n_used=int(np.max(n_used, initial=0)),
            last_step=float(np.max(last_step, initial=0.0)),
            converged=bool(np.all(converged)),
        )
        for label, (n_used, last_step, converged) in records.items()
    }


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
        # What the next level reads of the last one at each live point of the
        # chunk being taken (chunks run one after another, each from level 0),
        # in index order: its iterate, whether its step was small, and that step.
        self._carry = None

    def take(self, levels: range, idx: np.ndarray, rungs: range, vals, mag) -> None:
        """Take levels (up to the cap) from f's (vals, mag) at rungs, read at the points idx.

        Each live point stops at its first level n with ok | blown | n == cap,
        and its result and record are that level's.  Level n is armed
        by level n-1's small step and must not exceed it.
        """
        levels = levels[: self.spec.max_n - levels[0] + 1]
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
        if levels[-1] == self.spec.max_n:
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

    def finish(self, shape: tuple) -> tuple[np.ndarray, tuple]:
        """The limits, shape + (dim,), and each point's (n_used, last_step, converged), shape."""
        records = tuple(r.reshape(shape) for r in (self._n_used, self._last_step, self._converged))
        return self._result.reshape(shape + self._result.shape[-1:]), records


def take_limit(spec: IterationSpec | tuple[IterationSpec, ...], f: FunctionHandle, x):
    """Run the iteration to its Cauchy limit at each point of x.

    Returns (values, (n_used, last_step, converged)): the limits, shape
    x.shape + (dim,), and each point's record, shape x.shape: the level it
    stopped at, its last Cauchy step, and whether it met its tolerance
    (worst_cases reduces them).  A step is small at n when
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
    arithmetic is that of taking it alone, so values and records are
    too; a point may be read up to _BLOCK_LEVELS - 1 levels past its stop.

    The points are taken in chunks of equations._BLOCK // (2 (_BLOCK_LEVELS
    + 1) dim), the rungs one block reads at x and -x, so one block's arrays
    keep to the float budget of pair_blocks' tiles at any number of points.
    Each chunk runs on its own _Ladder into one _Limit per spec over every
    point, and a point's arithmetic is that of taking it alone, so chunking
    changes neither values nor records.

    spec may also be a tuple of odd-kind specs with one direction (A's and
    C's).  They read the same rungs, so they run on one _Ladder: each
    block's f-values serve every spec still live at the point, and a tuple
    of (values, records) pairs comes back, each bitwise equal to that
    spec's own take_limit.
    """
    specs = spec if isinstance(spec, tuple) else (spec,)
    if not specs or len(specs) > 1 and any(
        not s.kind.odd or s.direction != specs[0].direction for s in specs
    ):
        raise InvalidInputError("a ladder takes one spec, or odd-kind specs of one direction")
    xs = np.asarray(x, dtype=float)
    X = xs.reshape(-1)
    limits = [_Limit(s, f.space, X.size) for s in specs]
    size = max(1, equations._BLOCK // (2 * (_BLOCK_LEVELS + 1) * f.space.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, X.size, size):
            chunk = slice(lo, lo + size)
            ladder = _Ladder(specs[0], f, X[chunk])
            first, last = 0, 1  # level 1 alone: exact solutions stop there
            while live := [lim for lim in limits if lim.live[chunk].any()]:
                levels = range(first, min(last, max(lim.spec.max_n for lim in live)) + 1)
                idx = np.flatnonzero(np.any([lim.live[chunk] for lim in live], axis=0))
                block = ladder.block(levels, idx)
                for lim in live:
                    lim.take(levels, lo + idx, *block)
                first, last = last + 1, last + _BLOCK_LEVELS
    out = tuple(lim.finish(xs.shape) for lim in limits)
    return out if isinstance(spec, tuple) else out[0]


class LimitFunction(FunctionHandle):
    """Lazy pointwise limit of an iteration, usable as a FunctionHandle.

    Evaluations run take_limit on the requested points and scale by a
    constant; a point's record comes from take_limit or components_at.
    Construction evaluates nothing: base vanishes at 0, so every iterate and
    the limit are signed zeros there, and the offset is scale * 0 (-0.0
    under A's negative scale, which keeps A's value at x = 0 a +0.0).
    """

    def __init__(self, spec: IterationSpec, base: FunctionHandle, scale: float = 1.0):
        self.spec = spec
        self.base = base
        self.space = base.space
        self._scale = scale
        self.offset = scale * np.zeros(base.space.dim)

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return self.scaled(take_limit(self.spec, self.base, xs)[0])

    def scaled(self, vals: np.ndarray) -> np.ndarray:
        """This handle's values from take_limit's values for its spec."""
        return self._scale * vals - self.offset


@dataclass(frozen=True)
class DecompositionResult:
    """Recovered components of a near-solution, f ~ A + Q + C."""

    A: LimitFunction
    Q: LimitFunction
    C: LimitFunction
    offsets: np.ndarray
    directions: tuple[Direction, Direction, Direction]

    def components_at(self, x) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict]:
        """(A(x), Q(x), C(x)), bitwise as the three calls give them, and their records.

        The records are {label: (n_used, last_step, converged)}, in IterKind
        order (quadratic, additive, cubic), each array of x's shape, as
        take_limit returns them.  When A and C iterate one base in one
        direction, both come from one take_limit call that reads each
        odd-part value once for the two.
        """
        A, Q, C = self.A, self.Q, self.C
        if A.base is C.base and A.spec.direction == C.spec.direction:
            a, c = take_limit((A.spec, C.spec), A.base, x)
        else:
            a, c = take_limit(A.spec, A.base, x), take_limit(C.spec, C.base, x)
        q = take_limit(Q.spec, Q.base, x)
        values = A.scaled(a[0]), Q.scaled(q[0]), C.scaled(c[0])
        return values, {lim.spec.kind.label: out[1] for lim, out in ((Q, q), (A, a), (C, c))}


def decompose_full(
    f: FunctionHandle,
    params: EquationParams,
    directions: tuple[Direction, Direction, Direction] = (Direction.EXPAND,) * 3,
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> DecompositionResult:
    """Full parity-split decomposition f ~ A + Q + C.

    directions = (j_quadratic, j_additive, j_cubic).  The even part feeds the
    base-k quadratic iteration and the odd part the base-2 pair, each capped
    at max_n; an odd limit is 2^d - coeff times its component (-6 A, 6 C).
    Nothing is iterated until a component is called, and the result holds
    no state: components_at returns the records of the points it reads.
    """
    even, odd = parity_split(f)
    Q, A, C = (
        LimitFunction(
            IterationSpec(kind, j, params, tol, max_n),
            odd if kind.odd else even,
            1.0 / (2.0**kind.degree - kind.coeff) if kind.odd else 1.0,
        )
        for kind, j in zip(IterKind, directions, strict=True)
    )
    return DecompositionResult(
        A=A, Q=Q, C=C, offsets=f.offset.copy(), directions=tuple(map(Direction, directions))
    )

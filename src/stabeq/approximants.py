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
(2^d - 2^(4-d)) times the component.
Limits are taken with a Cauchy stopping rule floored at the rounding scale
of the iterate, so an expanding iteration stops at the best accuracy float64
supports instead of chasing cancellation noise; a non-finite iterate marks
the point diverged and keeps the last finite value rather than raising.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .equations import EquationParams, FunctionHandle, parity_split
from .errors import InvalidInputError
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
        if self.tol < 0:
            raise InvalidInputError(f"tol must be nonnegative, got {self.tol!r}")
        if self.max_n is not None and self.max_n < 1:
            raise InvalidInputError(f"max_n must be >= 1, got {self.max_n!r}")

    @property
    def cap(self) -> int:
        if self.max_n is not None:
            return self.max_n
        return DEFAULT_MAX_N if self.kind.odd else DEFAULT_MAX_N_QUADRATIC


def _arguments(spec: IterationSpec, X: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The points the n-th iterate reads f at: u = X / b^(nj), or (2u, u) for an odd kind."""
    u = X * float(spec.kind.base(spec.params)) ** (-n * int(spec.direction))
    return (2.0 * u, u) if spec.kind.odd else (u,)


def _combine(spec: IterationSpec, n: int, evals) -> tuple[np.ndarray, np.ndarray]:
    """Value and rounding scale of the n-th iterate.

    evals holds f's (values, magnitude) at each of _arguments(spec, X, n).
    Returns (values, magnitude), both shape (N, dim).  magnitude carries the
    scaled absolute sizes of the function evaluations entering the
    combination; eps times its pnorm is the level below which Cauchy steps
    are float noise, not information about the limit.
    """
    kind = spec.kind
    scale = float(kind.base(spec.params)) ** (kind.degree * n * int(spec.direction))
    if not kind.odd:
        ((v, m),) = evals
        return scale * v, abs(scale) * m
    (v2, m2), (v1, m1) = evals
    c = 2.0 ** (4.0 - kind.degree)
    return scale * (v2 - c * v1), abs(scale) * (m2 + c * m1)


def _iterate_values(spec: IterationSpec, f: FunctionHandle, X: np.ndarray, n: int):
    """_combine's (values, magnitude) of the n-th iterate at the points X."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _combine(spec, n, [f.evaluate(a) for a in _arguments(spec, X, n)])


def iterate_quadratic(
    f: FunctionHandle, params: EquationParams, direction: Direction, x, n: int
) -> np.ndarray:
    """k^(2nj) f(x / k^(nj))."""
    return _dispatch_iterate(IterationSpec(IterKind.QUADRATIC, direction, params), f, x, n)


def iterate_additive(f: FunctionHandle, direction: Direction, x, n: int) -> np.ndarray:
    """2^(nj) g(x / 2^(nj)) with g(x) = f(2x) - 8 f(x)."""
    return _dispatch_iterate(IterationSpec(IterKind.ADDITIVE, direction), f, x, n)


def iterate_cubic(f: FunctionHandle, direction: Direction, x, n: int) -> np.ndarray:
    """8^(nj) h(x / 2^(nj)) with h(x) = f(2x) - 2 f(x)."""
    return _dispatch_iterate(IterationSpec(IterKind.CUBIC, direction), f, x, n)


def _dispatch_iterate(spec: IterationSpec, f: FunctionHandle, x, n: int) -> np.ndarray:
    if n < 0:
        raise InvalidInputError(f"n must be nonnegative, got {n!r}")
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


class _Ladder:
    """f at the arguments of every level of one iteration, each read once.

    Level n of the odd kinds reads f at 2u and u, u = x / 2^(nj), and one of
    the two is the argument level n-1 read anew.  On EXPAND, u is the last
    level's 2u; doubling is exact, so it is always reused.  On CONTRACT, 2u
    is the last level's u except where x / 2^n rounded in the subnormals.
    An argument is reused only where it equals the earlier one bit for bit,
    so the values are those of evaluating afresh, and each level after the
    first costs one evaluation per point.  The quadratic kind reads one
    argument per level and reuses nothing.
    """

    def __init__(self, spec: IterationSpec, f: FunctionHandle, X: np.ndarray):
        self._spec, self._f, self._X = spec, f, X
        # Index into _arguments' (2u, u) of the argument each level reads anew.
        self._new = 0 if spec.direction == Direction.EXPAND else 1
        # That argument and f's values there, per point, from the last level.
        self._arg = self._vals = self._mag = None

    def level(self, n: int, idx: np.ndarray) -> list:
        """f's (values, magnitude) at each argument of level n, at the points X[idx]."""
        args = _arguments(self._spec, self._X[idx], n)
        if len(args) == 1:
            return [self._f.evaluate(args[0])]
        new, old = self._new, 1 - self._new
        evals = [None, None]
        evals[new] = self._f.evaluate(args[new])
        if self._arg is None:  # level 0 reads every point
            evals[old] = self._f.evaluate(args[old])
            self._arg = args[new]
            self._vals, self._mag = (a.copy() for a in evals[new])
            return evals
        vals, mag = self._vals[idx], self._mag[idx]
        # Both arguments carry x's sign, so != parts from a bitwise test only
        # at a NaN, which is then evaluated afresh.
        miss = self._arg[idx] != args[old]
        if miss.any():
            vals[miss], mag[miss] = self._f.evaluate(args[old][miss])
        evals[old] = (vals, mag)
        self._arg[idx] = args[new]
        self._vals[idx], self._mag[idx] = evals[new]
        return evals


class _Limit:
    """The Cauchy stopping rule of one iteration, over the points still active."""

    def __init__(self, spec: IterationSpec, space: PNormSpace, first: np.ndarray):
        n_pts = len(first)
        self._spec = spec
        self._space = space
        self._prev = first
        self._result = first.copy()
        self._n_used = np.zeros(n_pts, dtype=int)
        self._last_step = np.zeros(n_pts)
        self._converged = np.zeros(n_pts, dtype=bool)
        self._armed = np.zeros(n_pts, dtype=bool)  # previous step was already small
        self._prev_step = np.full(n_pts, np.inf)
        self.active = np.arange(n_pts)
        self.live = np.ones(n_pts, dtype=bool)  # active as a mask

    def advance(self, n: int, idx: np.ndarray, evals) -> None:
        """Take level n, whose f-values evals were read at the points idx."""
        space, active = self._space, self.active
        if active.size != idx.size:  # active is a subset of idx
            mine = self.live[idx]
            evals = [(v[mine], m[mine]) for v, m in evals]
        with np.errstate(over="ignore", invalid="ignore"):
            cur, mag = _combine(self._spec, n, evals)
        with np.errstate(invalid="ignore"):
            step = space.pnorm(cur - self._prev[active])
        finite = np.isfinite(cur).all(axis=-1)
        guard = finite[:, None]
        tol_eff = self._spec.tol * (1.0 + space.pnorm(np.where(guard, cur, 0.0)))
        floor = _FLOOR_SAFETY * _EPS * space.pnorm(np.where(guard, mag, 0.0))
        small = finite & (step <= np.maximum(tol_eff, floor))
        confirmed = self._armed[active] & (step <= self._prev_step[active])
        ok = small & (confirmed | (step <= floor))
        blown = ~finite

        self._result[active[finite]] = cur[finite]
        self._n_used[active] = n
        self._last_step[active[finite]] = step[finite]
        self._last_step[active[blown]] = np.inf
        self._converged[active[ok]] = True
        self._armed[active] = small
        self._prev_step[active] = step

        keep = ~(ok | blown) & (n < self._spec.cap)
        self.live[active[~keep]] = False
        self.active = active[keep]
        self._prev[self.active] = cur[keep]

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

    spec may also be a tuple of odd-kind specs with one direction (A's and
    C's).  They then run on one _Ladder: each level's f-values serve every
    spec still active at the point, and a tuple of (values, diagnostics)
    pairs comes back, each bitwise equal to that spec's own take_limit.
    """
    specs = spec if isinstance(spec, tuple) else (spec,)
    if not specs or len(specs) > 1 and any(
        not s.kind.odd or s.direction != specs[0].direction for s in specs
    ):
        raise InvalidInputError("a ladder takes one spec, or odd-kind specs of one direction")
    xs = np.asarray(x, dtype=float)
    X = xs.reshape(-1)
    ladder = _Ladder(specs[0], f, X)
    everyone = np.arange(X.size)
    with np.errstate(over="ignore", invalid="ignore"):
        first = ladder.level(0, everyone)
        limits = [_Limit(s, f.space, _combine(s, 0, first)[0]) for s in specs]
    for n in range(1, max(s.cap for s in specs) + 1):
        live = [lim for lim in limits if lim.active.size]
        if not live:
            break
        idx = everyone[functools.reduce(np.logical_or, (lim.live for lim in live))]
        with np.errstate(over="ignore", invalid="ignore"):
            evals = ladder.level(n, idx)
        for lim in live:
            lim.advance(n, idx, evals)
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

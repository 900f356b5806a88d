"""Limit constructions recovering the additive, quadratic and cubic parts.

Near-solutions of the mixed equation split into parity pieces, and each piece
is recovered by a scaled iteration:

  quadratic: k^(2nj) f_e(x / k^(nj))                 -> Q(x)
  additive:  2^(nj) g(x / 2^(nj)),  g(x) = f(2x) - 8 f(x)  -> A0(x) = -6 A(x)
  cubic:     8^(nj) h(x / 2^(nj)),  h(x) = f(2x) - 2 f(x)  -> C0(x) =  6 C(x)

with direction j = +1 (arguments contract) or j = -1 (arguments expand).
Limits are taken with a Cauchy stopping rule floored at the rounding scale
of the iterate, so an expanding iteration stops at the best accuracy float64
supports instead of chasing cancellation noise; a non-finite iterate marks
the point diverged and keeps the last finite value rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

from .equations import EquationParams, FunctionHandle, parity_split
from .errors import InvalidInputError
from .quasinorm import PNormSpace

# Seed for the fixed pseudo-random probe set used by parity checks and
# decomposition diagnostics.
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
    QUADRATIC = "quadratic"
    ADDITIVE = "additive"
    CUBIC = "cubic"


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
        if self.kind is IterKind.QUADRATIC and self.params is None:
            raise InvalidInputError("quadratic iteration requires EquationParams")
        if self.tol < 0:
            raise InvalidInputError(f"tol must be nonnegative, got {self.tol!r}")
        if self.max_n is not None and self.max_n < 1:
            raise InvalidInputError(f"max_n must be >= 1, got {self.max_n!r}")

    @property
    def cap(self) -> int:
        if self.max_n is not None:
            return self.max_n
        if self.kind is IterKind.QUADRATIC:
            return DEFAULT_MAX_N_QUADRATIC
        return DEFAULT_MAX_N


def _iterate_values(spec: IterationSpec, f: FunctionHandle, X: np.ndarray, n: int):
    """Value and rounding scale of the n-th iterate at the points X.

    Returns (values, magnitude), both shape (N, dim).  magnitude carries the
    scaled absolute sizes of the function evaluations entering the combination;
    eps times its pnorm is the level below which Cauchy steps are float noise,
    not information about the limit.
    """
    j = int(spec.direction)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is IterKind.QUADRATIC:
            k = float(spec.params.k)
            args = X * k ** (-n * j)
            v = f(args)
            scale = k ** (2 * n * j)
            return scale * v, abs(scale) * f.eval_magnitude(args, values=v)
        args = X * 2.0 ** (-n * j)
        v2 = f(2.0 * args)
        v1 = f(args)
        m2 = f.eval_magnitude(2.0 * args, values=v2)
        m1 = f.eval_magnitude(args, values=v1)
        if spec.kind is IterKind.ADDITIVE:
            scale = 2.0 ** (n * j)
            return scale * (v2 - 8.0 * v1), abs(scale) * (m2 + 8.0 * m1)
        scale = 8.0 ** (n * j)
        return scale * (v2 - 2.0 * v1), abs(scale) * (m2 + 2.0 * m1)


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

    @classmethod
    def merge(cls, items) -> "ConvergenceDiagnostics":
        items = list(items)
        if not items:
            return cls(0, 0.0, True)
        return cls(
            n_used=max(d.n_used for d in items),
            last_step=max(d.last_step for d in items),
            converged=all(d.converged for d in items),
        )

    def to_json(self) -> dict:
        return {
            "n_used": self.n_used,
            "last_step": self.last_step,
            "converged": self.converged,
        }


def take_limit(
    spec: IterationSpec, f: FunctionHandle, x
) -> tuple[np.ndarray, ConvergenceDiagnostics]:
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
    _iterate_values).  Without it, an expanding iteration on a function with
    large high-order content keeps running after the true step has sunk into
    cancellation noise, and the noise eventually grows or collides to an
    exactly repeated wrong value.  With it, the loop stops at the most
    accurate iterate float64 can represent and reports that as converged;
    last_step records the accuracy actually achieved.
    """
    xs = np.asarray(x, dtype=float)
    X = xs.reshape(-1)
    space = f.space
    prev, _ = _iterate_values(spec, f, X, 0)
    result = prev.copy()
    n_pts = X.size
    n_used = np.zeros(n_pts, dtype=int)
    last_step = np.zeros(n_pts)
    converged = np.zeros(n_pts, dtype=bool)
    armed = np.zeros(n_pts, dtype=bool)  # previous step was already small
    prev_step = np.full(n_pts, np.inf)
    active = np.arange(n_pts)

    for n in range(1, spec.cap + 1):
        cur, mag = _iterate_values(spec, f, X[active], n)
        with np.errstate(invalid="ignore"):
            step = space.pnorm(cur - prev[active])
        finite = np.isfinite(cur).all(axis=-1)
        guard = finite[:, None]
        tol_eff = spec.tol * (1.0 + space.pnorm(np.where(guard, cur, 0.0)))
        floor = _FLOOR_SAFETY * _EPS * space.pnorm(np.where(guard, mag, 0.0))
        small = finite & (step <= np.maximum(tol_eff, floor))
        confirmed = armed[active] & (step <= prev_step[active])
        ok = small & (confirmed | (step <= floor))
        blown = ~finite

        result[active[finite]] = cur[finite]
        n_used[active] = n
        last_step[active[finite]] = step[finite]
        last_step[active[blown]] = np.inf
        converged[active[ok]] = True
        armed[active] = small
        prev_step[active] = step

        keep = ~(ok | blown)
        active = active[keep]
        if active.size == 0:
            break
        prev[active] = cur[keep]

    diag = ConvergenceDiagnostics(
        n_used=int(n_used.max(initial=0)),
        last_step=float(last_step.max(initial=0.0)),
        converged=bool(converged.all()),
    )
    vals = result[0] if xs.ndim == 0 else result.reshape(xs.shape + (space.dim,))
    return vals, diag


class LimitFunction(FunctionHandle):
    """Lazy pointwise limit of an iteration, usable as a FunctionHandle.

    Evaluations run take_limit on the requested points, scale by a constant,
    memoize scalar lookups, and fold every batch's diagnostics into a running
    worst-case record exposed as .diagnostics.
    """

    def __init__(
        self,
        spec: IterationSpec,
        base: FunctionHandle,
        scale: float = 1.0,
    ):
        self.spec = spec
        self._base = base
        self._limit_scale = scale
        self._records: list[ConvergenceDiagnostics] = []
        self._cache: dict[float, np.ndarray] = {}

        def fn(xs: np.ndarray) -> np.ndarray:
            vals, diag = take_limit(spec, base, xs)
            self._records.append(diag)
            return scale * vals

        super().__init__(fn, base.space)
        self._records.clear()  # drop the offset-normalization probe at 0

    @property
    def diagnostics(self) -> ConvergenceDiagnostics:
        return ConvergenceDiagnostics.merge(self._records)

    def __call__(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        if xs.ndim == 0:
            key = float(xs)
            if key not in self._cache:
                self._cache[key] = super().__call__(xs)
            return self._cache[key].copy()
        return super().__call__(x)


@dataclass(frozen=True)
class IterationControl:
    """Shared knobs for a decomposition's three iterations.

    max_n caps the base-2 iterations; the base-k^2 quadratic iteration is
    capped at min(max_n, DEFAULT_MAX_N_QUADRATIC).
    """

    tol: float = DEFAULT_TOL
    max_n: int = DEFAULT_MAX_N
    probes: np.ndarray | None = None

    def probe_points(self) -> np.ndarray:
        return default_probes() if self.probes is None else np.asarray(self.probes, float)


def _check_odd(f: FunctionHandle, probes: np.ndarray) -> None:
    vals = f(probes)
    mirror = f(-probes)
    slack = 1e-9 * (1.0 + f.space.pnorm(vals))
    defect = f.space.pnorm(vals + mirror)
    if np.any(defect > slack):
        raise InvalidInputError("decompose_odd requires an odd map")


def decompose_odd(
    f: FunctionHandle,
    j_additive: Direction = Direction.EXPAND,
    j_cubic: Direction = Direction.EXPAND,
    ctrl: IterationControl = IterationControl(),
) -> tuple[LimitFunction, LimitFunction]:
    """Split an odd near-solution into additive and cubic approximants.

    A(x) = -(1/6) lim 2^(nj) g(x/2^(nj)),  C(x) = (1/6) lim 8^(nj) h(x/2^(nj));
    then A + C approximates f.  Oddness is validated at the fixed probe set.
    """
    probes = ctrl.probe_points()
    _check_odd(f, probes)
    spec_a = IterationSpec(
        IterKind.ADDITIVE, j_additive, tol=ctrl.tol, max_n=ctrl.max_n
    )
    spec_c = IterationSpec(IterKind.CUBIC, j_cubic, tol=ctrl.tol, max_n=ctrl.max_n)
    A = LimitFunction(spec_a, f, scale=-1.0 / 6.0)
    C = LimitFunction(spec_c, f, scale=1.0 / 6.0)
    # Warm the diagnostics with the probe batch so a fresh decomposition
    # already reports convergence information.
    A(probes)
    C(probes)
    return A, C


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
        return {
            "quadratic": self.Q.diagnostics,
            "additive": self.A.diagnostics,
            "cubic": self.C.diagnostics,
        }

    def components_at(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.A(x), self.Q(x), self.C(x)


def decompose_full(
    f: FunctionHandle,
    params: EquationParams,
    directions: tuple[Direction, Direction, Direction] = (
        Direction.EXPAND,
        Direction.EXPAND,
        Direction.EXPAND,
    ),
    ctrl: IterationControl = IterationControl(),
) -> DecompositionResult:
    """Full parity-split decomposition f ~ A + Q + C.

    directions = (j_quadratic, j_additive, j_cubic).  The even part feeds the
    base-k^2 quadratic iteration, the odd part the base-2 pair.
    """
    j_q, j_a, j_c = directions
    even, odd = parity_split(f)
    spec_q = IterationSpec(
        IterKind.QUADRATIC,
        j_q,
        params=params,
        tol=ctrl.tol,
        max_n=min(ctrl.max_n, DEFAULT_MAX_N_QUADRATIC),
    )
    Q = LimitFunction(spec_q, even)
    A, C = decompose_odd(odd, j_a, j_c, ctrl)
    Q(ctrl.probe_points())
    return DecompositionResult(
        A=A,
        Q=Q,
        C=C,
        offsets=f.offset.copy(),
        directions=(Direction(j_q), Direction(j_a), Direction(j_c)),
    )

"""Explicit stability bounds: comparison series and their closed forms.

A perturbation control phi(x, y) = theta, theta(|x|^r + |y|^s) or
theta |x|^r |y|^s is folded through the iteration machinery into three
comparison series (one per component):

  psi_e(x) = sum_i k^(2ipj) phi(0, x/k^(ij))^p
  psi_a(x) = sum_i 2^(ipj) * P * sum_m c_m phi(a_m x_i, b_m x_i)^p
  psi_c(x) = sum_i 8^(ipj) * P * (same nine inner terms)

with x_i = x / 2^(ij), P = (k^2 |1-k^2|)^(-p), the sum starting at
i = (1+j)/2, and nine inner terms whose coefficients and argument pairs are
fixed by the equation.  Each recovered component then satisfies an explicit
bound built from M = 2^(1/p-1) and psi^(1/p).

For power controls every series is geometric, and the closed forms here
(delta/alpha/beta/epsilon/gamma constants) evaluate the same quantities
without summation.  Both routes are kept; tests confirm they agree, which is
the point of having them both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .approximants import Direction
from .equations import EquationParams
from .errors import (
    CriticalExponentError,
    DivergentSeriesError,
    InvalidInputError,
)
from .quasinorm import PNormSpace

# Critical exponents: at these the step ratio of the matching series is 1.
CRITICAL_QUADRATIC = 2.0
CRITICAL_ADDITIVE = 1.0
CRITICAL_CUBIC = 3.0

_FORMS = ("constant", "sum", "product")

# Adaptive summation: stop once the geometric tail bound is this small
# relative to the accumulated sum, or at the hard term cap.
_TAIL_REL = 1e-15
_TERM_CAP = 1 << 20
_CHUNK = 64


@dataclass(frozen=True)
class PowerBound:
    """Power-type perturbation control phi.

    form = "constant": phi = theta
    form = "sum":      phi = theta (|x|^r + |y|^s); a zero exponent drops its
                       term, so r=0 or s=0 selects the single-power controls
                       (both zero is rejected: that is the constant form)
    form = "product":  phi = theta |x|^r |y|^s with r, s > 0
    """

    form: str
    theta: float
    r: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        if self.form not in _FORMS:
            raise InvalidInputError(f"unknown control form {self.form!r}")
        if not (self.theta >= 0.0 and np.isfinite(self.theta)):
            raise InvalidInputError(f"theta must be finite and >= 0, got {self.theta!r}")
        if not (0.0 <= self.r < np.inf and 0.0 <= self.s < np.inf):
            raise InvalidInputError(
                f"exponents must be finite and >= 0, got r={self.r!r}, s={self.s!r}"
            )
        if self.form == "constant" and (self.r != 0 or self.s != 0):
            raise InvalidInputError("constant form takes no exponents")
        if self.form == "sum" and self.r == 0 and self.s == 0:
            raise InvalidInputError("sum form with r = s = 0: use the constant form")
        if self.form == "product" and (self.r <= 0 or self.s <= 0):
            raise InvalidInputError("product form requires r > 0 and s > 0")

    def value(self, x, y) -> np.ndarray:
        """phi(x, y), vectorized."""
        ax, ay = np.abs(np.asarray(x, float)), np.abs(np.asarray(y, float))
        if self.form == "constant":
            return np.broadcast_to(float(self.theta), np.broadcast_shapes(ax.shape, ay.shape)).copy()
        if self.form == "sum":
            acc = 0.0
            if self.r > 0:
                acc = acc + ax**self.r
            if self.s > 0:
                acc = acc + ay**self.s
            return self.theta * np.broadcast_to(acc, np.broadcast_shapes(ax.shape, ay.shape)).copy()
        return self.theta * ax**self.r * ay**self.s

    def exponents(self) -> tuple[float, ...]:
        """Live homogeneity degrees of phi along rays (x, y) -> (tx, ty)."""
        if self.form == "constant":
            return (0.0,)
        if self.form == "product":
            return (self.r + self.s,)
        out = []
        if self.r > 0:
            out.append(self.r)
        if self.s > 0:
            out.append(self.s)
        return tuple(out)

    def y_slot_exponent(self) -> float | None:
        """Degree of phi(0, u) in |u|, or None when phi(0, u) is identically 0."""
        if self.form == "constant":
            return 0.0
        if self.form == "product":
            return None
        if self.s > 0:
            return self.s
        return None  # sum with only an x-term vanishes on the y-axis


def select_direction(exponent: float, critical: float) -> Direction:
    """CONTRACT above the critical exponent, EXPAND below, error at it."""
    if exponent == critical:
        raise CriticalExponentError(
            f"exponent {exponent} equals the critical value {critical}; "
            "neither iteration direction contracts"
        )
    return Direction.CONTRACT if exponent > critical else Direction.EXPAND


def _select_quadratic(phi: PowerBound) -> Direction:
    e_y = phi.y_slot_exponent()
    return Direction.EXPAND if e_y is None else select_direction(e_y, CRITICAL_QUADRATIC)


def _select_for(phi: PowerBound, critical: float) -> Direction:
    dirs = {select_direction(e, critical) for e in phi.exponents()}
    if len(dirs) != 1:
        raise CriticalExponentError(
            f"control exponents {phi.exponents()} straddle the critical value "
            f"{critical}; no single direction makes the series converge"
        )
    return dirs.pop()


# One selector per slot of (j_quadratic, j_additive, j_cubic).
_SLOT_SELECTORS = (
    _select_quadratic,
    functools.partial(_select_for, critical=CRITICAL_ADDITIVE),
    functools.partial(_select_for, critical=CRITICAL_CUBIC),
)


def select_directions(phi: PowerBound) -> tuple[Direction, Direction, Direction]:
    """(j_quadratic, j_additive, j_cubic) for a power control.

    When phi(0, y) is identically zero the quadratic series vanishes for
    either direction; EXPAND is reported for definiteness.  Raises
    CriticalExponentError if any component lacks a convergent direction.
    """
    return tuple(select(phi) for select in _SLOT_SELECTORS)


def _maybe_directions(phi: PowerBound) -> tuple[Direction | None, ...]:
    """Per-component best effort: None marks a slot with no convergent direction.

    Lets a context serve single-component bounds (say, the quadratic bound
    under a |y|^3 control) even when another component's series is critical;
    using a None slot raises at evaluation time.
    """
    out = []
    for select in _SLOT_SELECTORS:
        try:
            out.append(select(phi))
        except CriticalExponentError:
            out.append(None)
    return tuple(out)


def quadratic_series_vanishes(phi: PowerBound) -> bool:
    """True when phi(0, y) == 0, making the quadratic bound trivially zero."""
    return phi.y_slot_exponent() is None


@dataclass(frozen=True)
class BoundContext:
    """Everything a bound evaluation needs: equation, space, control, directions."""

    params: EquationParams
    space: PNormSpace
    phi: PowerBound
    directions: tuple[Direction, Direction, Direction]

    @classmethod
    def create(
        cls,
        params: EquationParams,
        space: PNormSpace,
        phi: PowerBound,
        directions: tuple[Direction, Direction, Direction] | None = None,
    ) -> "BoundContext":
        if directions is None:
            directions = _maybe_directions(phi)
        return cls(params=params, space=space, phi=phi, directions=directions)

    @property
    def quad_zero(self) -> bool:
        return quadratic_series_vanishes(self.phi)


class SeriesKind(Enum):
    QUADRATIC = "e"
    ADDITIVE = "a"
    CUBIC = "c"


def _as_series_kind(kind) -> SeriesKind:
    if isinstance(kind, SeriesKind):
        return kind
    try:
        return SeriesKind(str(kind).lower())
    except ValueError:
        raise InvalidInputError(f"unknown series kind {kind!r}") from None


def _nine_terms(k: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_m (already p-th powered) and argument pairs (a_m, b_m)."""
    k2 = float(k * k)
    coeffs = np.array(
        [
            abs(5.0 - 4.0 * k2) ** p,
            k2**p,
            (2.0 * k2) ** p,
            1.0,
            abs(4.0 - 2.0 * k2) ** p,
            2.0**p,
            2.0**p,
            1.0,
            1.0,
        ]
    )
    args = np.array(
        [
            (1.0, 1.0),
            (2.0, 2.0),
            (2.0, 1.0),
            (1.0, 3.0),
            (1.0, 2.0),
            (1.0 + k, 1.0),
            (1.0 - k, 1.0),
            (1.0 + 2.0 * k, 1.0),
            (1.0 - 2.0 * k, 1.0),
        ]
    )
    return coeffs, args


def _series_geometry(kind: SeriesKind, ctx: BoundContext) -> tuple[float, float, int]:
    """(weight w, argument scale per step, start index) of the series."""
    p = ctx.space.p
    slot = {"e": 0, "a": 1, "c": 2}[kind.value]
    direction = ctx.directions[slot]
    if direction is None:
        raise CriticalExponentError(
            f"series {kind.value!r} has no convergent direction for this control; "
            "choose different exponents or pass directions explicitly"
        )
    j = int(direction)
    if kind is SeriesKind.QUADRATIC:
        base = float(ctx.params.k * ctx.params.k)
        arg_scale = abs(float(ctx.params.k)) ** (-j)
    else:
        base = 2.0 if kind is SeriesKind.ADDITIVE else 8.0
        arg_scale = 2.0 ** (-j)
    w = base ** (p * j)
    start = (1 + j) // 2
    return w, arg_scale, start


def series_step_ratio(kind, ctx: BoundContext) -> float:
    """Upper bound on term(i+1)/term(i); the series converges iff < 1.

    Zero when the series is identically zero (quadratic kind with a control
    vanishing on the y-axis, or theta = 0).
    """
    kind = _as_series_kind(kind)
    if ctx.phi.theta == 0.0:
        return 0.0
    if kind is SeriesKind.QUADRATIC:
        e_y = ctx.phi.y_slot_exponent()
        if e_y is None:
            return 0.0
        exps = (e_y,)
    else:
        exps = ctx.phi.exponents()
    w, arg_scale, _ = _series_geometry(kind, ctx)
    p = ctx.space.p
    return float(max(w * arg_scale ** (e * p) for e in exps))


def _check_convergent(kind: SeriesKind, ctx: BoundContext) -> float:
    rho = series_step_ratio(kind, ctx)
    if rho >= 1.0:
        raise DivergentSeriesError(
            f"series {kind.value!r} has step ratio {rho:.6g} >= 1 for control "
            f"{ctx.phi.form!r} (r={ctx.phi.r}, s={ctx.phi.s}); "
            "no convergent bound in this direction"
        )
    return rho


def _inner_sum(ctx: BoundContext, xi: np.ndarray) -> np.ndarray:
    """P * sum_m c_m phi(a_m xi, b_m xi)^p, elementwise over xi."""
    p = ctx.space.p
    k = ctx.params.k
    k2 = float(k * k)
    pref = (k2 * abs(1.0 - k2)) ** (-p)
    coeffs, args = _nine_terms(k, p)
    acc = np.zeros_like(xi, dtype=float)
    for (a_m, b_m), c_m in zip(args, coeffs):
        acc += c_m * ctx.phi.value(a_m * xi, b_m * xi) ** p
    return pref * acc


def _series_terms(
    kind: SeriesKind, ctx: BoundContext, x: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Terms of the series at indices idx, shape (len(idx),) + x.shape."""
    w, arg_scale, _ = _series_geometry(kind, ctx)
    p = ctx.space.p
    weights = w ** idx.astype(float)
    scales = arg_scale ** idx.astype(float)
    xi = scales[:, None] * np.abs(x).reshape(1, -1)  # (T, N)
    if kind is SeriesKind.QUADRATIC:
        inner = ctx.phi.value(np.zeros_like(xi), xi) ** p
    else:
        inner = _inner_sum(ctx, xi)
    return weights[:, None] * inner


def psi_tilde_numeric(kind, ctx: BoundContext, x, n_terms: int):
    """Partial sum of the comparison series: its first n_terms terms.

    The start index is 0 for EXPAND and 1 for CONTRACT.  Raises
    DivergentSeriesError when the configuration's step ratio is >= 1 (partial
    sums of a divergent comparison series certify nothing).
    """
    if n_terms < 1:
        raise InvalidInputError(f"n_terms must be >= 1, got {n_terms!r}")
    kind = _as_series_kind(kind)
    xs = np.asarray(x, dtype=float)
    if ctx.phi.theta == 0.0 or (
        kind is SeriesKind.QUADRATIC and ctx.phi.y_slot_exponent() is None
    ):
        out = np.zeros(xs.shape)
        return float(out) if xs.ndim == 0 else out
    _check_convergent(kind, ctx)
    _, _, start = _series_geometry(kind, ctx)
    idx = start + np.arange(n_terms)
    terms = _series_terms(kind, ctx, xs.reshape(-1), idx)
    out = terms.sum(axis=0).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


def psi_tilde_bound(kind, ctx: BoundContext, x):
    """Upper bound on the full series: adaptive partial sum + geometric tail.

    Terms are added in chunks until the tail bound (last term * rho/(1-rho))
    is below 1e-15 of the running sum at every point, then the tail bound is
    added, so the result always dominates the true sum.
    """
    kind = _as_series_kind(kind)
    xs = np.asarray(x, dtype=float)
    flat = np.abs(xs.reshape(-1))
    if ctx.phi.theta == 0.0 or (
        kind is SeriesKind.QUADRATIC and ctx.phi.y_slot_exponent() is None
    ):
        out = np.zeros(xs.shape)
        return float(out) if xs.ndim == 0 else out
    rho = _check_convergent(kind, ctx)
    _, _, start = _series_geometry(kind, ctx)
    total = np.zeros_like(flat)
    last = np.zeros_like(flat)
    i = start
    while i < start + _TERM_CAP:
        idx = i + np.arange(_CHUNK)
        terms = _series_terms(kind, ctx, flat, idx)
        total += terms.sum(axis=0)
        last = terms[-1]
        i += _CHUNK
        tail = last * (rho / (1.0 - rho))
        if np.all(tail <= _TAIL_REL * total + np.finfo(float).tiny):
            break
    total += last * (rho / (1.0 - rho))
    out = total.reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


class BoundKind(Enum):
    """Which stability inequality to evaluate.

    QUADRATIC    : bound on ||f_e - Q|| for even near-solutions
    ADDITIVE_G   : bound on ||g - A0||, g(x) = f(2x) - 8 f(x)  (odd f)
    CUBIC_H      : bound on ||h - C0||, h(x) = f(2x) - 2 f(x)  (odd f)
    ODD_COMBINED : bound on ||f - A - C|| for odd near-solutions
    FULL         : bound on ||f - A - Q - C|| for general near-solutions
    """

    QUADRATIC = "quadratic"
    ADDITIVE_G = "additive_g"
    CUBIC_H = "cubic_h"
    ODD_COMBINED = "odd_combined"
    FULL = "full"


def stability_bound(kind, ctx: BoundContext, x):
    """Evaluate the named stability bound at x (scalar or array).

    The FULL bound symmetrizes each series over +-x, which is what the
    general (no-parity-assumption) inequality requires; for the power
    controls here the series are even in x, so the symmetrization doubles.
    """
    if not isinstance(kind, BoundKind):
        kind = BoundKind(str(kind).lower())
    xs = np.asarray(x, dtype=float)
    M = ctx.space.modulus
    p = ctx.space.p
    ip = 1.0 / p
    k2 = float(ctx.params.k * ctx.params.k)

    def psi(series, pts):
        return np.asarray(psi_tilde_bound(series, ctx, pts), dtype=float)

    if kind is BoundKind.QUADRATIC:
        out = (M / (2.0 * k2)) * psi("e", xs) ** ip
    elif kind is BoundKind.ADDITIVE_G:
        out = (M**5 / 2.0) * psi("a", xs) ** ip
    elif kind is BoundKind.CUBIC_H:
        out = (M**5 / 8.0) * psi("c", xs) ** ip
    elif kind is BoundKind.ODD_COMBINED:
        out = (M**6 / 48.0) * (4.0 * psi("a", xs) ** ip + psi("c", xs) ** ip)
    else:  # FULL
        psa = psi("a", xs) + psi("a", -xs)
        psc = psi("c", xs) + psi("c", -xs)
        pse = psi("e", xs) + psi("e", -xs)
        out = (M**8 / 96.0) * (4.0 * psa**ip + psc**ip) + (
            M**3 / (4.0 * k2)
        ) * pse**ip
    return float(out) if xs.ndim == 0 else out


# --- closed forms ---------------------------------------------------------

CONSTANT_NAMES = (
    "delta_additive",
    "delta_cubic",
    "alpha_additive",
    "alpha_cubic",
    "beta_additive",
    "beta_cubic",
    "epsilon_additive",
    "epsilon_cubic",
    "gamma_additive",
    "gamma_cubic",
    "quadratic_factor",
)


def _require_noncritical(value: float, critical: float, what: str) -> None:
    if value == critical:
        raise CriticalExponentError(
            f"{what} = {value} is critical; the closed form has a vanishing denominator"
        )


def corollary_constant(name: str, ctx: BoundContext, x_norm: float = 1.0) -> float:
    """Closed-form constant of the power-control bounds.

    delta_*   : constant control (r = s = 0)
    alpha_*   : control theta |x|^r        (denominator |b^p - 2^(rp)|)
    beta_*    : control theta |y|^s        (denominator |b^p - 2^(sp)|)
    epsilon_* : control theta |x|^r |y|^s  (denominator |b^p - 2^((r+s)p)|)
    gamma_*   : (alpha^p ||x||^(rp) + beta^p ||x||^(sp))^(1/p), x-dependent
    quadratic_factor : (||x||^(sp) / |k^(2p) - |k|^(sp)|)^(1/p)

    with b = 2 for the additive flavor and b = 8 for the cubic one.  The
    suffix picks the denominator; the bracket numerators come from the nine
    inner series terms.  x_norm only matters for the gamma_* and
    quadratic_factor entries.
    """
    if name not in CONSTANT_NAMES:
        raise InvalidInputError(f"unknown constant name {name!r}")
    if x_norm < 0:
        raise InvalidInputError(f"x_norm must be >= 0, got {x_norm!r}")
    p = ctx.space.p
    k = ctx.params.k
    k2 = float(k * k)
    r, s = ctx.phi.r, ctx.phi.s
    lam = r + s
    t1 = abs(5.0 - 4.0 * k2) ** p
    t2 = abs(4.0 - 2.0 * k2) ** p
    kp = k2**p
    two_p = 2.0**p

    def root(num: float, den: float) -> float:
        return (num / den) ** (1.0 / p)

    if name == "delta_additive":
        num = t1 + t2 + kp * (two_p + 1.0) + 2.0 * two_p + 3.0
        return root(num, two_p - 1.0)
    if name == "delta_cubic":
        num = t1 + t2 + kp * (two_p + 1.0) + 2.0 * two_p + 3.0
        return root(num, 8.0**p - 1.0)

    if name in ("alpha_additive", "alpha_cubic"):
        crit = CRITICAL_ADDITIVE if name == "alpha_additive" else CRITICAL_CUBIC
        _require_noncritical(r, crit, "r")
        num = (
            t1
            + t2
            + abs(1.0 + 2.0 * k) ** (r * p)
            + abs(1.0 - 2.0 * k) ** (r * p)
            + two_p * abs(1.0 + k) ** (r * p)
            + two_p * abs(1.0 - k) ** (r * p)
            + 2.0 ** (r * p) * kp * (two_p + 1.0)
            + 1.0
        )
        base = two_p if name == "alpha_additive" else 8.0**p
        return root(num, abs(base - 2.0 ** (r * p)))

    if name in ("beta_additive", "beta_cubic"):
        crit = CRITICAL_ADDITIVE if name == "beta_additive" else CRITICAL_CUBIC
        _require_noncritical(s, crit, "s")
        num = (
            t1
            + 2.0 ** (s * p) * t2
            + kp * (2.0 ** (s * p) + two_p)
            + 3.0 ** (s * p)
            + 2.0 * two_p
            + 2.0
        )
        base = two_p if name == "beta_additive" else 8.0**p
        return root(num, abs(base - 2.0 ** (s * p)))

    if name in ("epsilon_additive", "epsilon_cubic"):
        crit = CRITICAL_ADDITIVE if name == "epsilon_additive" else CRITICAL_CUBIC
        _require_noncritical(lam, crit, "r + s")
        num = (
            t1
            + 2.0 ** (s * p) * t2
            + abs(1.0 + 2.0 * k) ** (r * p)
            + abs(1.0 - 2.0 * k) ** (r * p)
            + two_p * abs(1.0 + k) ** (r * p)
            + two_p * abs(1.0 - k) ** (r * p)
            + kp * (2.0 ** (lam * p) + 2.0 ** ((r + 1.0) * p))
            + 3.0 ** (s * p)
        )
        base = two_p if name == "epsilon_additive" else 8.0**p
        return root(num, abs(base - 2.0 ** (lam * p)))

    if name in ("gamma_additive", "gamma_cubic"):
        flavor = "additive" if name == "gamma_additive" else "cubic"
        al = corollary_constant(f"alpha_{flavor}", ctx, x_norm)
        be = corollary_constant(f"beta_{flavor}", ctx, x_norm)
        return (al**p * x_norm ** (r * p) + be**p * x_norm ** (s * p)) ** (1.0 / p)

    # quadratic_factor
    _require_noncritical(s, CRITICAL_QUADRATIC, "s")
    den = abs(k2**p - abs(float(k)) ** (s * p))
    return (x_norm ** (s * p) / den) ** (1.0 / p)


def full_bound_power(ctx: BoundContext, x_norm: float) -> float:
    """Closed-form full bound for a power control at ||x|| = x_norm.

    Composes the closed constants exactly the way stability_bound(FULL)
    composes the series: an odd-part block with prefactor
    M^8 theta / (6 k^2 |1-k^2|) and, when phi has a live y-term, a quadratic
    block (M^3 theta / 2) * quadratic_factor.  Sum controls use gamma (or the
    single alpha/beta when one exponent is zero), product controls epsilon.
    """
    if x_norm < 0:
        raise InvalidInputError(f"x_norm must be >= 0, got {x_norm!r}")
    phi = ctx.phi
    if phi.form not in ("sum", "product"):
        raise InvalidInputError("closed full bound needs a sum or product control")
    select_directions(phi)  # validates bands / critical exponents
    M = ctx.space.modulus
    theta = phi.theta
    k2 = float(ctx.params.k * ctx.params.k)
    pref_odd = M**8 * theta / (6.0 * k2 * abs(1.0 - k2))
    quad_pref = M**3 * theta / 2.0

    if phi.form == "product":
        odd = pref_odd * (
            corollary_constant("epsilon_additive", ctx, x_norm)
            + corollary_constant("epsilon_cubic", ctx, x_norm)
        ) * x_norm ** (phi.r + phi.s)
        return float(odd)

    if phi.r > 0 and phi.s > 0:
        odd = pref_odd * (
            corollary_constant("gamma_additive", ctx, x_norm)
            + corollary_constant("gamma_cubic", ctx, x_norm)
        )
        quad = quad_pref * corollary_constant("quadratic_factor", ctx, x_norm)
        return float(odd + quad)
    if phi.r > 0:  # x-power only: the quadratic series vanishes
        odd = pref_odd * (
            corollary_constant("alpha_additive", ctx, x_norm)
            + corollary_constant("alpha_cubic", ctx, x_norm)
        ) * x_norm**phi.r
        return float(odd)
    odd = pref_odd * (
        corollary_constant("beta_additive", ctx, x_norm)
        + corollary_constant("beta_cubic", ctx, x_norm)
    ) * x_norm**phi.s
    quad = quad_pref * corollary_constant("quadratic_factor", ctx, x_norm)
    return float(odd + quad)


def bound_table(ctx: BoundContext, xs) -> dict:
    """JSON-ready table: directions, applicable closed constants, per-x bounds."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    per_x = stability_bound(BoundKind.FULL, ctx, xs)
    phi = ctx.phi
    constants: dict[str, float] = {}
    if phi.form == "constant":
        names = ["delta_additive", "delta_cubic", "quadratic_factor"]
    elif phi.form == "product":
        names = ["epsilon_additive", "epsilon_cubic"]
    else:
        names = []
        if phi.r > 0:
            names += ["alpha_additive", "alpha_cubic"]
        if phi.s > 0:
            names += ["beta_additive", "beta_cubic", "quadratic_factor"]
    for name in names:
        try:
            constants[name] = corollary_constant(name, ctx, 1.0)
        except CriticalExponentError:
            constants[name] = float("nan")
    return {
        "kind": "full",
        "k": ctx.params.k,
        "p": ctx.space.p,
        "M": ctx.space.modulus,
        "theta": phi.theta,
        "r": phi.r,
        "s": phi.s,
        "form": phi.form,
        "j": [0 if d is None else int(d) for d in ctx.directions],
        "constants": constants,
        "per_x": [
            {"x": float(x), "bound": float(b)} for x, b in zip(xs, per_x)
        ],
    }

"""Explicit stability bounds: comparison series and their closed forms.

A perturbation control phi(x, y) = theta, theta(|x|^r + |y|^s) or
theta |x|^r |y|^s is folded through the iteration machinery into three
comparison series, one per component.  Each is a prefactor P and rows
(c_m, a_m, b_m) read at one geometry:

  psi(x) = sum_i w^i * P * sum_m c_m phi(a_m x_i, b_m x_i)^p,  x_i = |b|^(-ij) |x|

from i = (1+j)/2, with w = (b^d)^(pj).  A series takes the steps of its
component's limit: approximants.IterKind gives its letter, its base b (k or
2) and its degree d, the critical exponent.  psi_e reads phi on the y-axis,
the single row (1, 0, 1) with P = 1; psi_a and psi_c read the nine rows the
equation fixes, with P = (k^2 |1-k^2|)^(-p).  Where phi has one degree lam
in a series' slot, the series is homogeneous, psi(x) = |x|^(lam p) psi(1),
and is summed once, at |x| = 1.  A slot whose control exponents sit at or
straddle the critical value has no convergent direction and raises
CriticalExponentError at every theta, even where its series is zero.  Each
recovered component satisfies a bound built from M = 2^(1/p-1) and psi^(1/p).

For power controls every series is geometric, and the paper's closed forms
evaluate the same quantities without summation.  They are one constant at
control exponents (r, s): epsilon for theta |x|^r |y|^s, and delta, alpha
and beta are epsilon with the missing exponents set to 0.  The closed forms
are written out apart from the series code, so tests comparing the two
routes check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .approximants import Direction, IterKind
from .equations import EquationParams
from .errors import CriticalExponentError, DivergentSeriesError, InvalidInputError
from .errors import check_integer, check_nonnegative
from .quasinorm import PNormSpace

_FORMS = ("constant", "sum", "product")

# Adaptive summation: stop once the geometric tail bound is this small
# relative to the accumulated sum, or at the hard term cap.
_TAIL_REL = 1e-15
_TERM_CAP = 1 << 20
_CHUNK = 64
_TINY = np.finfo(float).tiny


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
        for name in ("theta", "r", "s"):
            check_nonnegative(name, getattr(self, name))
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
            acc = sum(ax**r if r else ay**s for r, s in self.terms())
            return self.theta * np.broadcast_to(acc, np.broadcast_shapes(ax.shape, ay.shape)).copy()
        return self.theta * ax**self.r * ay**self.s

    def terms(self) -> tuple[tuple[float, float], ...]:
        """Live power terms (r_t, s_t): phi = theta sum_t |x|^r_t |y|^s_t."""
        if self.form == "constant":
            return ((0.0, 0.0),)
        if self.form == "product":
            return ((self.r, self.s),)
        return tuple(t for t in ((self.r, 0.0), (0.0, self.s)) if t[0] + t[1] > 0)

    def exponents(self) -> tuple[float, ...]:
        """Live homogeneity degrees of phi along rays (x, y) -> (tx, ty)."""
        return tuple(r + s for r, s in self.terms())

    def y_slot_exponent(self) -> float | None:
        """Degree of phi(0, u) in |u|, or None when phi(0, u) is identically 0."""
        return next((s for r, s in self.terms() if r == 0), None)


def select_direction(exponent: float, critical: float) -> Direction:
    """CONTRACT above the critical exponent, EXPAND below, error at it."""
    if exponent == critical:
        raise CriticalExponentError(
            f"exponent {exponent} equals the critical value {critical}; "
            "neither iteration direction contracts"
        )
    return Direction.CONTRACT if exponent > critical else Direction.EXPAND


_ODD_KINDS = tuple(kind for kind in IterKind if kind.odd)


def _series_exponents(kind: IterKind, phi: PowerBound) -> tuple[float, ...]:
    """Degrees in |x| that the terms of the series grow with; () if it vanishes.

    psi_e reads phi on the y-axis only, so its one degree is the y-slot
    exponent; psi_a and psi_c read phi off the axes, so every live exponent
    counts.
    """
    if not kind.odd:
        e_y = phi.y_slot_exponent()
        return () if e_y is None else (e_y,)
    return phi.exponents()


def _select(kind: IterKind, phi: PowerBound) -> Direction:
    exps = _series_exponents(kind, phi)
    if not exps:
        return Direction.EXPAND
    dirs = {select_direction(e, kind.degree) for e in exps}
    if len(dirs) != 1:
        raise CriticalExponentError(
            f"control exponents {exps} straddle the critical value "
            f"{kind.degree}; no single direction makes the series converge"
        )
    return dirs.pop()


def select_directions(phi: PowerBound) -> tuple[Direction, Direction, Direction]:
    """(j_quadratic, j_additive, j_cubic) for a power control.

    When phi(0, y) is identically zero the quadratic series vanishes for
    either direction; EXPAND is reported for definiteness.  Raises
    CriticalExponentError if any component lacks a convergent direction.
    """
    return tuple(_select(kind, phi) for kind in IterKind)


def _maybe_directions(phi: PowerBound) -> tuple[Direction | None, ...]:
    """Per-component best effort: None marks a slot with no convergent direction.

    Lets a context serve single-component bounds (say, the quadratic bound
    under a |y|^3 control) even when another component's series is critical;
    using a None slot raises at evaluation time.
    """
    out = []
    for kind in IterKind:
        try:
            out.append(_select(kind, phi))
        except CriticalExponentError:
            out.append(None)
    return tuple(out)


def quadratic_series_vanishes(phi: PowerBound) -> bool:
    """True when phi(0, y) == 0, making the quadratic bound trivially zero."""
    return not _series_exponents(IterKind.QUADRATIC, phi)


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


def _as_series_kind(kind) -> IterKind:
    """kind itself, or the IterKind whose series letter it names."""
    for member in IterKind:
        if kind is member or member.letter == str(kind).lower():
            return member
    raise InvalidInputError(f"unknown series kind {kind!r}")


def _series_rows(kind: IterKind, ctx: BoundContext) -> tuple[float, list[tuple[float, float, float]]]:
    """(P, rows (c_m, a_m, b_m)): prefactor, p-th powered coefficients and argument pairs."""
    if not kind.odd:
        return 1.0, [(1.0, 0.0, 1.0)]
    p = ctx.space.p
    k = ctx.params.k
    k2 = float(k * k)
    return (k2 * abs(1.0 - k2)) ** (-p), [
        (abs(5.0 - 4.0 * k2) ** p, 1.0, 1.0),
        (k2**p, 2.0, 2.0),
        ((2.0 * k2) ** p, 2.0, 1.0),
        (1.0, 1.0, 3.0),
        (abs(4.0 - 2.0 * k2) ** p, 1.0, 2.0),
        (2.0**p, 1.0 + k, 1.0),
        (2.0**p, 1.0 - k, 1.0),
        (1.0, 1.0 + 2.0 * k, 1.0),
        (1.0, 1.0 - 2.0 * k, 1.0),
    ]


def _bases(kind: IterKind, ctx: BoundContext) -> tuple[float, float]:
    """(b^d, |b|), a step's weight and argument scale before j; b^d is exact in integers."""
    b = kind.base(ctx.params)
    return float(b ** int(kind.degree)), abs(float(b))


def _series_geometry(kind: IterKind, ctx: BoundContext) -> tuple[float, float, int, float]:
    """(weight w, argument scale per step, direction j, step ratio rho) of the series.

    rho bounds term(i+1)/term(i) and is 0 when the series is identically zero.
    A slot with no convergent direction raises, whatever theta is.
    """
    direction = ctx.directions[list(IterKind).index(kind)]
    if direction is None:
        raise CriticalExponentError(
            f"series {kind.letter!r} has no convergent direction for this control; "
            "choose different exponents or pass directions explicitly"
        )
    j = int(direction)
    weight, b = _bases(kind, ctx)
    p = ctx.space.p
    w, arg_scale = weight ** (p * j), b ** (-j)
    exps = _series_exponents(kind, ctx.phi) if ctx.phi.theta != 0.0 else ()
    rho = max((w * arg_scale ** (e * p) for e in exps), default=0.0)
    return w, arg_scale, j, float(rho)


def series_step_ratio(kind, ctx: BoundContext) -> float:
    """Upper bound on term(i+1)/term(i), rounded: convergence reads the exponents.

    Zero when the series is identically zero (quadratic kind with a control
    vanishing on the y-axis, or theta = 0).
    """
    return _series_geometry(_as_series_kind(kind), ctx)[3]


def _series_sum(kind, ctx: BoundContext, x, n_terms: int | None):
    """The series at |x|, summed in chunks of _CHUNK terms.

    One degree lam in the series' slot (_series_exponents) makes each term
    homogeneous, phi(a_m t xi, b_m t xi)^p = t^(lam p) phi(a_m xi, b_m xi)^p,
    so psi(x) = |x|^(lam p) psi(1) is summed once, at |x| = 1, unless psi(1)
    is below float64's normal range; a scale-up past float64 raises.  Two
    degrees (psi_a, psi_c under a sum with r != s, both > 0) sum at each
    point.  It diverges iff a degree e has j (e - d) <= 0 (direction j,
    critical exponent d): exact, unlike the rounded rho.

    With n_terms, the partial sum of the first n_terms terms.  Without, terms
    are added until the tail bound (last term * rho/(1-rho)) is below 1e-15
    of the running sum at every point, and then that tail bound is added, so
    the result dominates the true sum.  Summing stops before the first term
    that is not finite in float64: for a huge |k| the argument scale k^i
    overflows within a chunk while its weight underflows, and as term(i+1)
    <= rho * term(i) the terms left out are negligible.
    """
    kind = _as_series_kind(kind)
    w, arg_scale, j, rho = _series_geometry(kind, ctx)
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    if not np.isfinite(flat).all():
        raise InvalidInputError(f"x must be finite, got {float(flat[~np.isfinite(flat)][0])}")
    phi = ctx.phi
    degrees = set(_series_exponents(kind, phi))
    if phi.theta == 0.0 or not degrees:
        return 0.0 if xs.ndim == 0 else np.zeros(xs.shape)
    where = f"series {kind.letter!r} at k = {ctx.params.k}, {phi.form!r} (r={phi.r}, s={phi.s})"
    if any(j * (e - kind.degree) <= 0 for e in degrees):
        raise DivergentSeriesError(f"{where} diverges in direction j = {j} (step ratio {rho:.6g})")
    if rho >= 1.0:
        raise InvalidInputError(f"{where} converges, but its step ratio rounds to {rho!r}")
    tail_ratio = rho / (1.0 - rho)
    pref, rows = _series_rows(kind, ctx)
    p = ctx.space.p

    def summed(pts):
        start = i = (1 + j) // 2
        stop = start + (_TERM_CAP if n_terms is None else n_terms)
        total, last = np.zeros_like(pts), np.zeros_like(pts)
        while i < stop:
            idx = np.arange(i, min(i + _CHUNK, stop)).astype(float)
            with np.errstate(over="ignore", invalid="ignore"):
                xi = (arg_scale**idx)[:, None] * pts[None, :]  # (T, N)
                acc = np.zeros_like(xi)
                for c_m, a_m, b_m in rows:
                    acc += c_m * phi.value(a_m * xi, b_m * xi) ** p
                terms = (w**idx)[:, None] * (pref * acc)
            n_finite = int(np.cumprod(np.isfinite(terms).all(axis=1)).sum())
            if n_finite == 0 and i == start:
                raise InvalidInputError(f"{where} overflows float64 at term {i}")
            if n_finite == 0:
                break
            terms = terms[:n_finite]
            # cumsum adds in index order for any number of points, where
            # sum would add a lone point's terms pairwise.
            total += np.cumsum(terms, axis=0)[-1]
            last = terms[-1]
            i += _CHUNK
            if n_finite < idx.size or (
                n_terms is None and np.all(last * tail_ratio <= _TAIL_REL * total + _TINY)
            ):
                break
        return total + last * tail_ratio if n_terms is None else total

    total = None
    if len(degrees) == 1 and (psi1 := summed(np.ones(1))[0]) >= _TINY:
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.abs(flat) ** (min(degrees) * p) * psi1
        if np.isinf(total).any():
            bad = float(flat[np.isinf(total)][0])
            raise InvalidInputError(f"{where} leaves float64 at x = {bad!r}")
    if total is None:
        total = summed(np.abs(flat))
    # The exact sum is positive where x != 0 or a degree is 0: a float 0 there
    # would certify a residual of 0.
    lost = (total == 0.0) & ((flat != 0.0) | (0.0 in degrees))
    if lost.any():
        raise InvalidInputError(f"{where} underflows float64 at x = {float(flat[lost][0])!r}")
    out = total.reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


def psi_tilde_numeric(kind, ctx: BoundContext, x, n_terms: int):
    """Partial sum of the comparison series: its first n_terms terms.

    The start index is 0 for EXPAND and 1 for CONTRACT.  Raises
    DivergentSeriesError when the direction does not make the series
    converge (partial sums of a divergent comparison series certify nothing).
    """
    check_integer("n_terms", n_terms, 1)
    return _series_sum(kind, ctx, x, n_terms)


def psi_tilde_bound(kind, ctx: BoundContext, x):
    """Upper bound on the full series: adaptive partial sum + geometric tail."""
    return _series_sum(kind, ctx, x, None)


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

    with np.errstate(over="ignore"):  # a finite psi can still have psi^(1/p) = inf
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
            out = (M**8 / 96.0) * (4.0 * psa**ip + psc**ip) + (M**3 / (4.0 * k2)) * pse**ip
    if not np.isfinite(out).all():
        raise InvalidInputError(f"{kind.value} bound overflows at x = {xs[~np.isfinite(out)][0]}")
    return float(out) if xs.ndim == 0 else out


# --- closed forms ---------------------------------------------------------

# Which closed constant a power term |x|^r |y|^s reads, by its live exponents.
_FAMILY = {
    (False, False): "delta", (True, False): "alpha", (False, True): "beta", (True, True): "epsilon"
}

CONSTANT_NAMES = tuple(
    f"{family}_{kind.label}" for family in (*_FAMILY.values(), "gamma") for kind in _ODD_KINDS
) + ("quadratic_factor",)


def _denominator(kind: IterKind, ctx: BoundContext, lam: float) -> float:
    """|(b^d)^p - |b|^(lam p)|: a closed form's denominator at control degree lam.

    It vanishes at the critical exponent lam = d, where this raises.
    """
    select_direction(lam, kind.degree)
    weight, b = _bases(kind, ctx)
    p = ctx.space.p
    return abs(weight**p - b ** (lam * p))


def _closed_constant(ctx: BoundContext, kind: IterKind, r: float, s: float) -> float:
    """The paper's closed constant at control exponents (r, s), written out.

      ((|5-4k^2|^p + 2^(sp) |4-2k^2|^p + |1+2k|^(rp) + |1-2k|^(rp)
        + 2^p |1+k|^(rp) + 2^p |1-k|^(rp) + k^(2p) (2^((r+s)p) + 2^((r+1)p))
        + 3^(sp)) / |(2^d)^p - 2^((r+s)p)|)^(1/p)

    with d the odd kind's degree (2^d = 2 additive, 8 cubic).  It shares only
    IterKind's bases with the series code, so comparing it with the summed
    series checks both.
    """
    p = ctx.space.p
    k = ctx.params.k
    k2 = float(k * k)
    lam = r + s
    den = _denominator(kind, ctx, lam)
    two_p = 2.0**p
    num = (
        abs(5.0 - 4.0 * k2) ** p
        + 2.0 ** (s * p) * abs(4.0 - 2.0 * k2) ** p
        + abs(1.0 + 2.0 * k) ** (r * p)
        + abs(1.0 - 2.0 * k) ** (r * p)
        + two_p * abs(1.0 + k) ** (r * p)
        + two_p * abs(1.0 - k) ** (r * p)
        + k2**p * (2.0 ** (lam * p) + 2.0 ** ((r + 1.0) * p))
        + 3.0 ** (s * p)
    )
    return (num / den) ** (1.0 / p)


def _odd_constant(ctx: BoundContext, kind: IterKind, terms, x_norm: float) -> float:
    """(sum_t C(r_t, s_t)^p x_norm^((r_t + s_t) p))^(1/p) over power terms (r_t, s_t)."""
    p = ctx.space.p
    return sum(
        _closed_constant(ctx, kind, r, s) ** p * x_norm ** ((r + s) * p) for r, s in terms
    ) ** (1.0 / p)


def corollary_constant(name: str, ctx: BoundContext, x_norm: float = 1.0) -> float:
    """Closed-form constant of the power-control bounds.

    epsilon_* : control theta |x|^r |y|^s  (denominator |(2^d)^p - 2^((r+s)p)|)
    delta_*   : constant control, epsilon at r = s = 0
    alpha_*   : control theta |x|^r, epsilon at s = 0
    beta_*    : control theta |y|^s, epsilon at r = 0
    gamma_*   : (alpha^p ||x||^(rp) + beta^p ||x||^(sp))^(1/p), x-dependent
    quadratic_factor : (||x||^(sp) / |k^(2p) - |k|^(sp)|)^(1/p)

    with the flavor (an odd IterKind's label) giving d; r and s are the
    context control's exponents.  x_norm only matters for the gamma_* and
    quadratic_factor entries.
    """
    if name not in CONSTANT_NAMES:
        raise InvalidInputError(f"unknown constant name {name!r}")
    check_nonnegative("x_norm", x_norm)
    p = ctx.space.p
    r, s = ctx.phi.r, ctx.phi.s
    if name == "quadratic_factor":
        den = _denominator(IterKind.QUADRATIC, ctx, s)
        return (x_norm ** (s * p) / den) ** (1.0 / p)
    family, flavor = name.split("_")
    kind = next(kind for kind in _ODD_KINDS if kind.label == flavor)
    if family == "gamma":
        return _odd_constant(ctx, kind, ((r, 0.0), (0.0, s)), x_norm)
    r_t = r if family in ("alpha", "epsilon") else 0.0
    s_t = s if family in ("beta", "epsilon") else 0.0
    return _closed_constant(ctx, kind, r_t, s_t)


def full_bound_power(ctx: BoundContext, x_norm: float) -> float:
    """Closed-form full bound for a power control at ||x|| = x_norm.

    Composes the closed constants exactly the way stability_bound(FULL)
    composes the series: an odd-part block with prefactor
    M^8 theta / (6 k^2 |1-k^2|) over the control's live power terms (gamma
    for a sum of two, alpha or beta for a single power, epsilon for a
    product) and, when phi has a live y-term, a quadratic block
    (M^3 theta / 2) * quadratic_factor.
    """
    check_nonnegative("x_norm", x_norm)
    phi = ctx.phi
    if phi.form not in ("sum", "product"):
        raise InvalidInputError("closed full bound needs a sum or product control")
    select_directions(phi)  # validates bands / critical exponents
    M = ctx.space.modulus
    k2 = float(ctx.params.k * ctx.params.k)
    out = M**8 * phi.theta / (6.0 * k2 * abs(1.0 - k2)) * sum(
        _odd_constant(ctx, kind, phi.terms(), x_norm) for kind in _ODD_KINDS
    )
    if not quadratic_series_vanishes(phi):
        out += M**3 * phi.theta / 2.0 * corollary_constant("quadratic_factor", ctx, x_norm)
    return float(out)


def bound_table(ctx: BoundContext, xs) -> dict:
    """JSON-ready table: directions, applicable closed constants, per-x bounds."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    # per_x reads every slot's direction: a critical control raises here.
    per_x = stability_bound(BoundKind.FULL, ctx, xs)
    phi = ctx.phi
    names = [f"{_FAMILY[r > 0, s > 0]}_{kind.label}" for r, s in phi.terms() for kind in _ODD_KINDS]
    if not quadratic_series_vanishes(phi):
        names.append("quadratic_factor")
    return {
        "kind": "full",
        "k": ctx.params.k,
        "p": ctx.space.p,
        "M": ctx.space.modulus,
        "theta": phi.theta,
        "r": phi.r,
        "s": phi.s,
        "form": phi.form,
        "j": [int(d) for d in ctx.directions],
        "constants": {name: corollary_constant(name, ctx, 1.0) for name in names},
        "per_x": [
            {"x": float(x), "bound": float(b)} for x, b in zip(xs, per_x)
        ],
    }

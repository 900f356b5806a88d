"""Comparison series, closed-form constants, and the stability bounds.

The reference series here are summed by explicit Python loops from a frozen
nine-term table, independent of the vectorized implementation under test.
"""

import json

import mpmath as mp
import numpy as np
import pytest

from stabeq import (
    BoundContext,
    BoundKind,
    CriticalExponentError,
    Direction,
    DivergentSeriesError,
    EquationParams,
    InvalidInputError,
    PNormSpace,
    PowerBound,
    bound_table,
    corollary_constant,
    full_bound_power,
    psi_tilde_bound,
    psi_tilde_numeric,
    select_direction,
    select_directions,
    series_step_ratio,
    stability_bound,
)

# Residual decomposition terms of the odd-part relation, instantiated at the
# two k values used below: absolute coefficients and (a_m, b_m) multipliers.
NINE_TERMS = {
    2: (
        [11.0, 4.0, 8.0, 1.0, 4.0, 2.0, 2.0, 1.0, 1.0],
        [(1, 1), (2, 2), (2, 1), (1, 3), (1, 2), (3, 1), (-1, 1), (5, 1), (-3, 1)],
    ),
    3: (
        [31.0, 9.0, 18.0, 1.0, 14.0, 2.0, 2.0, 1.0, 1.0],
        [(1, 1), (2, 2), (2, 1), (1, 3), (1, 2), (4, 1), (-2, 1), (7, 1), (-5, 1)],
    ),
}


def ctx_for(k, p, phi, directions=None):
    return BoundContext.create(EquationParams(k), PNormSpace(1, p), phi, directions)


def psi_ref_odd(base, k, p, phi, x, j, n_terms):
    """Reference additive (base 2) or cubic (base 8) comparison series."""
    coeffs, args = NINE_TERMS[k]
    pref = (k * k * abs(1.0 - k * k)) ** (-p)
    start = 0 if j < 0 else 1
    total = 0.0
    for i in range(start, start + n_terms):
        xi = x / (2.0 ** (i * j))
        inner = sum(
            c**p * float(phi.value(a * xi, b * xi)) ** p
            for c, (a, b) in zip(coeffs, args)
        )
        total += base ** (p * i * j) * pref * inner
    return total


def psi_ref_quadratic(k, p, phi, x, j, n_terms):
    start = 0 if j < 0 else 1
    total = 0.0
    for i in range(start, start + n_terms):
        xi = x / (float(abs(k)) ** (i * j))
        total += (k * k) ** (p * i * j) * float(phi.value(0.0, xi)) ** p
    return total


def psi_oracle(kind, k, p, phi, x, j):
    """The comparison series at x to 50 digits: the frozen rows at the series' geometry.

    Term i reads phi at (a_m xi_i, b_m xi_i), xi_i = |x| / base^(ij), from
    i = (1+j)/2.  Under a control of one degree the terms are geometric, so
    the ratio of the first two terms, checked on the third, gives the tail
    exactly.
    """
    with mp.workdps(50):
        if kind == "e":
            base, weight, pref, rows = abs(k), k * k, mp.mpf(1), [(1, (0, 1))]
        else:
            base, weight = 2, {"a": 2, "c": 8}[kind]
            pref = mp.mpf(k * k * abs(1 - k * k)) ** -p
            rows = list(zip(*NINE_TERMS[k]))
        ax, theta = abs(mp.mpf(x)), mp.mpf(phi.theta)

        def control(u, v):
            return theta * mp.fsum(abs(u) ** r * abs(v) ** s for r, s in phi.terms())

        def term(i):
            xi = ax / mp.mpf(base) ** (i * j)
            inner = mp.fsum(mp.mpf(c) ** p * control(a * xi, b * xi) ** p for c, (a, b) in rows)
            return mp.mpf(weight) ** (p * i * j) * pref * inner

        start = 0 if j < 0 else 1
        t0, t1, t2 = term(start), term(start + 1), term(start + 2)
        if t0 == 0:
            return 0.0
        rho = t1 / t0
        assert abs(t2 - rho * t1) <= mp.mpf(10) ** -45 * t1
        return t0 / (1 - rho)


ORACLE_CASES = [
    (3, 0.5, PowerBound("sum", 2.16, 4.0, 4.0)),
    (2, 1.0, PowerBound("constant", 1.0)),
    (2, 0.75, PowerBound("product", 1.0, 0.25, 0.5)),
]


@pytest.mark.parametrize("k, p, phi", ORACLE_CASES)
def test_psi_matches_a_50_digit_oracle(k, p, phi):
    ctx = ctx_for(k, p, phi)
    xs = np.linspace(-5.0, 5.0, 101)
    eps = np.finfo(float).eps
    for slot, kind in enumerate("eac"):
        got = psi_tilde_bound(kind, ctx, xs)
        j = int(ctx.directions[slot])
        for x, g in zip(xs, got):
            want = psi_oracle(kind, k, p, phi, x, j)
            if want == 0:
                assert g == 0.0, (kind, x)
                continue
            assert abs(mp.mpf(g) / want - 1) <= 2e-15, (kind, x)
            assert g >= want * (1 - 4 * eps), (kind, x)


# --- control family -------------------------------------------------------


def test_power_bound_validation():
    with pytest.raises(InvalidInputError):
        PowerBound("gaussian", 1.0)
    with pytest.raises(InvalidInputError):
        PowerBound("constant", -0.5)
    with pytest.raises(InvalidInputError):
        PowerBound("constant", np.inf)
    with pytest.raises(InvalidInputError, match="theta must be finite and >= 0, got True"):
        PowerBound("constant", True)
    with pytest.raises(InvalidInputError):
        PowerBound("constant", 1.0, r=2.0)
    with pytest.raises(InvalidInputError):
        PowerBound("sum", 1.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError, match="r must be finite and >= 0, got -1.0"):
        PowerBound("sum", 1.0, -1.0, 2.0)
    with pytest.raises(InvalidInputError, match="s must be finite and >= 0, got nan"):
        PowerBound("sum", 1.0, 2.0, np.nan)
    with pytest.raises(InvalidInputError):
        PowerBound("product", 1.0, 2.0, 0.0)


def test_power_bound_values():
    phi = PowerBound("sum", 0.5, 2.0, 3.0)
    assert phi.value(2.0, 3.0) == pytest.approx(0.5 * (4 + 27))
    assert phi.value(-2.0, -3.0) == pytest.approx(0.5 * (4 + 27))
    prod = PowerBound("product", 2.0, 1.0, 2.0)
    assert prod.value(3.0, 2.0) == pytest.approx(2.0 * 3 * 4)
    assert prod.value(0.0, 5.0) == 0.0
    const = PowerBound("constant", 0.7)
    out = const.value(np.zeros(4), np.ones(4))
    assert out.shape == (4,) and np.all(out == 0.7)


def test_power_bound_exponents_and_y_slot():
    assert PowerBound("constant", 1.0).exponents() == (0.0,)
    assert PowerBound("sum", 1.0, 2.0, 3.0).exponents() == (2.0, 3.0)
    assert PowerBound("sum", 1.0, 4.0, 0.0).exponents() == (4.0,)
    assert PowerBound("product", 1.0, 1.5, 2.5).exponents() == (4.0,)
    assert PowerBound("constant", 1.0).y_slot_exponent() == 0.0
    assert PowerBound("sum", 1.0, 0.0, 3.0).y_slot_exponent() == 3.0
    assert PowerBound("sum", 1.0, 4.0, 0.0).y_slot_exponent() is None
    assert PowerBound("product", 1.0, 1.0, 1.0).y_slot_exponent() is None


# --- direction selection --------------------------------------------------


def test_select_direction_by_critical_exponent():
    assert select_direction(4.0, 2.0) is Direction.CONTRACT
    assert select_direction(0.0, 2.0) is Direction.EXPAND
    with pytest.raises(CriticalExponentError):
        select_direction(2.0, 2.0)


def test_select_directions_constant_control():
    dirs = select_directions(PowerBound("constant", 1.0))
    assert dirs == (Direction.EXPAND, Direction.EXPAND, Direction.EXPAND)


def test_select_directions_high_powers_contract():
    dirs = select_directions(PowerBound("sum", 1.0, 4.0, 4.0))
    assert dirs == (Direction.CONTRACT, Direction.CONTRACT, Direction.CONTRACT)


def test_select_directions_critical_raises():
    with pytest.raises(CriticalExponentError):
        select_directions(PowerBound("sum", 1.0, 1.0, 0.0))  # additive critical
    with pytest.raises(CriticalExponentError):
        select_directions(PowerBound("sum", 1.0, 0.5, 4.0))  # straddles a band


def test_lenient_context_marks_unusable_slot_only():
    """A straddling sum still serves the quadratic bound; the odd series refuse."""
    ctx = ctx_for(2, 1.0, PowerBound("sum", 1.0, 0.5, 4.0))
    assert ctx.directions[0] is Direction.CONTRACT
    assert ctx.directions[1] is None
    # s = 4 > 2 contracts the quadratic series: sum (4/16)^i x^4 = x^4 / 3
    assert psi_tilde_bound("e", ctx, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert stability_bound("quadratic", ctx, 1.0) == pytest.approx(1.0 / 24.0, rel=1e-12)
    with pytest.raises(CriticalExponentError):
        psi_tilde_bound("a", ctx, 1.0)
    # theta = 0 zeroes the series but leaves the additive slot without a
    # direction: the quadratic bound is served, every reader of psi_a raises.
    zero = ctx_for(2, 1.0, PowerBound("sum", 0.0, 0.5, 4.0))
    assert zero.directions == ctx.directions
    assert psi_tilde_bound("e", zero, 1.0) == 0.0
    assert stability_bound("quadratic", zero, [0.0, 1.0]).tolist() == [0.0, 0.0]
    for call in (
        lambda: psi_tilde_bound("a", zero, 1.0),
        lambda: psi_tilde_numeric("a", zero, 1.0, 5),
        lambda: series_step_ratio("a", zero),
        *(lambda kind=kind: stability_bound(kind, zero, 1.0) for kind in ("additive_g", "odd_combined", "full")),
    ):
        with pytest.raises(CriticalExponentError):
            call()


# --- series values --------------------------------------------------------


def test_step_ratio_known_values():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    assert series_step_ratio("a", ctx) == pytest.approx(0.5)
    assert series_step_ratio("c", ctx) == pytest.approx(0.125)
    assert series_step_ratio("e", ctx) == pytest.approx(0.25)
    ctx3 = ctx_for(2, 1.0, PowerBound("sum", 1.0, 0.0, 3.0))
    assert series_step_ratio("e", ctx3) == pytest.approx(0.5)
    assert series_step_ratio("a", ctx_for(2, 1.0, PowerBound("constant", 0.0))) == 0.0


def test_psi_constant_control_frozen_values():
    """Geometric sums for k=2, p=1, theta=1: 34/12 * {2, 8/7} and 4/3."""
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    assert psi_tilde_bound("a", ctx, 1.0) == pytest.approx(17.0 / 3.0, rel=1e-12)
    assert psi_tilde_bound("c", ctx, 1.0) == pytest.approx(68.0 / 21.0, rel=1e-12)
    assert psi_tilde_bound("e", ctx, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_psi_partial_sums_match_reference_loops():
    cases = [
        (2, 1.0, PowerBound("constant", 0.7)),
        (2, 0.5, PowerBound("sum", 1.2, 4.0, 4.0)),
        (3, 0.75, PowerBound("sum", 0.4, 0.0, 0.5)),
        (2, 1.0, PowerBound("product", 0.9, 2.0, 2.5)),
        (3, 1.0, PowerBound("sum", 1.0, 0.25, 0.5)),
    ]
    for k, p, phi in cases:
        ctx = ctx_for(k, p, phi)
        for x in (0.7, 1.0, 2.3):
            for base, kind in ((2.0, "a"), (8.0, "c")):
                slot = {"e": 0, "a": 1, "c": 2}[kind]
                j = int(ctx.directions[slot])
                got = psi_tilde_numeric(kind, ctx, x, 40)
                want = psi_ref_odd(base, k, p, phi, x, j, 40)
                assert got == pytest.approx(want, rel=1e-12), (k, p, phi.form, kind)
            if phi.y_slot_exponent() is not None:
                j = int(ctx.directions[0])
                got = psi_tilde_numeric("e", ctx, x, 40)
                want = psi_ref_quadratic(k, p, phi, x, j, 40)
                assert got == pytest.approx(want, rel=1e-12)


def test_psi_bound_dominates_partial_sums_and_converges():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    full = psi_tilde_bound("a", ctx, 1.0)
    prev = 0.0
    for n in (1, 2, 5, 20, 60):
        partial = psi_tilde_numeric("a", ctx, 1.0, n)
        assert partial >= prev
        assert full >= partial
        prev = partial
    assert full == pytest.approx(psi_tilde_numeric("a", ctx, 1.0, 200), rel=1e-12)


def test_psi_vectorizes_over_x():
    ctx = ctx_for(2, 1.0, PowerBound("sum", 1.0, 4.0, 4.0))
    xs = np.array([0.5, 1.0, 2.0])
    vec = psi_tilde_bound("a", ctx, xs)
    assert vec.shape == (3,)
    for i, x in enumerate(xs):
        assert vec[i] == pytest.approx(psi_tilde_bound("a", ctx, float(x)), rel=1e-14)


@pytest.mark.parametrize("k, p", [(2, 1.0), (3, 0.5), (-2, 0.75)])
@pytest.mark.parametrize("phi", [PowerBound("constant", 0.3), PowerBound("sum", 0.3, 4.0, 4.0)])
def test_psi_of_a_point_does_not_depend_on_its_batch(k, p, phi):
    ctx = ctx_for(k, p, phi)
    xs = np.array([-2.5, -1.0, 0.0, 0.5, 1.0, 2.5, 2.5, 4.0])
    for kind in "ace":
        vec = psi_tilde_bound(kind, ctx, xs)
        lone = [psi_tilde_bound(kind, ctx, float(x)) for x in xs]
        assert vec.tolist() == lone
        assert psi_tilde_bound(kind, ctx, -xs).tolist() == lone
        assert psi_tilde_numeric(kind, ctx, xs, 100).tolist() == [
            psi_tilde_numeric(kind, ctx, float(x), 100) for x in xs
        ]


def test_psi_zero_theta_and_vanishing_quadratic():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 0.0))
    assert psi_tilde_bound("a", ctx, 2.0) == 0.0
    prod_ctx = ctx_for(2, 1.0, PowerBound("product", 1.0, 2.0, 2.0))
    assert psi_tilde_bound("e", prod_ctx, 2.0) == 0.0
    assert prod_ctx.quad_zero
    assert stability_bound("quadratic", prod_ctx, 2.0) == 0.0


def test_psi_divergent_direction_raises():
    ctx = ctx_for(
        2,
        1.0,
        PowerBound("sum", 1.0, 0.0, 4.0),
        directions=(Direction.EXPAND, Direction.EXPAND, Direction.EXPAND),
    )
    with pytest.raises(DivergentSeriesError):
        psi_tilde_numeric("a", ctx, 1.0, 10)
    with pytest.raises(DivergentSeriesError):
        psi_tilde_bound("e", ctx, 1.0)
    # A critical degree under the wrong direction diverges whatever its rounded
    # step ratio: at p = 0.75 that ratio is 1 - 2^-53, below 1.
    expand = (Direction.EXPAND, Direction.EXPAND, Direction.EXPAND)
    for p in (0.75, 0.5, 1.0, 0.3):
        ctx = ctx_for(2, p, PowerBound("sum", 1.0, 1.0, 0.0), directions=expand)
        with pytest.raises(DivergentSeriesError):
            psi_tilde_bound("a", ctx, 1.0)
        with pytest.raises(DivergentSeriesError):
            psi_tilde_numeric("a", ctx, 1.0, 10)
    ctx = ctx_for(2, 0.75, PowerBound("sum", 1.0, 1.0, 0.0), directions=expand)
    assert series_step_ratio("a", ctx) == 0.9999999999999999
    # One ulp above the critical degree the series converges, but its step
    # ratio rounds to 1, so no float64 tail bound exists.
    ctx = ctx_for(2, 0.5, PowerBound("sum", 1.0, float(np.nextafter(1.0, 2.0)), 0.0))
    assert series_step_ratio("a", ctx) == 1.0
    with pytest.raises(InvalidInputError, match="rounds to 1.0"):
        psi_tilde_bound("a", ctx, 1.0)


def test_psi_numeric_stops_at_the_last_finite_term_for_huge_k():
    # The suite turns RuntimeWarning into an error: an overflow in the
    # argument scale k^i would fail this test.
    ctx = ctx_for(10**11, 1.0, PowerBound("constant", 1.0))
    assert psi_tilde_numeric("e", ctx, 1.0, 64) == 1.0
    assert psi_tilde_numeric("e", ctx, 1.0, 64) <= psi_tilde_bound("e", ctx, 1.0)
    # psi(1) underflows to 0 here, so |x|^(40p) psi(1) would lose psi(1e10) or
    # give inf * 0: every point is summed where it is, x = 1 (psi about
    # 1e-418 at p = 1) raises rather than bound by 0, and x = 1e100
    # overflows at its first term with no numpy warning.
    for p, want in ((1.0, 1e-18), (0.5, 1e-9)):
        ctx = ctx_for(10**11, p, PowerBound("sum", 1.0, 0.0, 40.0))
        with pytest.raises(InvalidInputError, match="underflows float64 at x = 1.0"):
            psi_tilde_bound("e", ctx, 1.0)
        assert psi_tilde_bound("e", ctx, 1e10) == pytest.approx(want, rel=1e-14)
        for x in (1e100, [1.0, 1e200]):
            with pytest.raises(InvalidInputError, match="overflows float64 at term 1"):
                psi_tilde_bound("e", ctx, x)
            with pytest.raises(InvalidInputError, match="overflows float64 at term 1"):
                psi_tilde_numeric("e", ctx, x, 5)


def test_series_stopping_where_a_chunk_starts_past_float64_keeps_its_tail_bound():
    """At k = 270 the control |u|^1.999 leaves float64 at term 64, the first
    term of the second chunk; the sum stops before it and the tail bound
    carries the rest, so the bound still dominates the exact sum."""
    ctx = ctx_for(270, 0.05, PowerBound("sum", 1.0, 0.0, 1.999))
    got = psi_tilde_bound("e", ctx, 1.0)
    with mp.workdps(50):
        # term i is rho^i, rho = 270^(p (s - 2)), at the float64 p and s given
        rho = mp.mpf(270) ** (mp.mpf(0.05) * (mp.mpf(1.999) - 2))
        exact = 1 / (1 - rho)
        assert got >= exact
        assert (got - exact) / exact <= 1e-12


def test_a_positive_series_that_underflows_raises_and_exact_zeros_stay():
    ctx = ctx_for(10**11, 1.0, PowerBound("sum", 1.0, 0.0, 40.0))
    for x in (1.0, [0.0, 1.0], -1e-30):
        with pytest.raises(InvalidInputError, match="series 'e' .* underflows float64 at x = "):
            psi_tilde_bound("e", ctx, x)
    with pytest.raises(InvalidInputError, match="underflows float64 at x = 1.0"):
        psi_tilde_numeric("e", ctx, 1.0, 5)
    # Summed once at |x| = 1, then scaled: |1e-100|^4 psi(1) underflows too.
    homogeneous = ctx_for(2, 1.0, PowerBound("sum", 1.0, 4.0, 4.0))
    assert psi_tilde_bound("a", homogeneous, 1.0) > 0.0
    with pytest.raises(InvalidInputError, match="series 'a' .* at x = 1e-100"):
        psi_tilde_bound("a", homogeneous, [1.0, 1e-100])
    # x = 0 under a positive degree, theta = 0 and a vanishing series are
    # exactly 0; a degree-0 control is positive at x = 0.
    assert psi_tilde_bound("e", ctx, 0.0) == 0.0
    assert list(psi_tilde_bound("a", homogeneous, [0.0, -0.0])) == [0.0, 0.0]
    unit_free = ctx_for(10**11, 1.0, PowerBound("sum", 0.0, 0.0, 40.0))
    assert psi_tilde_bound("e", unit_free, 1.0) == 0.0
    assert psi_tilde_bound("e", ctx_for(2, 1.0, PowerBound("product", 1.0, 2.0, 2.0)), 1.0) == 0.0
    assert psi_tilde_bound("e", ctx_for(2, 1.0, PowerBound("constant", 1.0)), 0.0) > 0.0


def test_psi_numeric_rejects_bad_term_count():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    for n_terms in (0, 2.5, True):  # a count, never a float or a bool
        with pytest.raises(InvalidInputError, match="n_terms must be"):
            psi_tilde_numeric("a", ctx, 1.0, n_terms)
    with pytest.raises(InvalidInputError):
        psi_tilde_numeric("zeta", ctx, 1.0, 5)
    # A non-finite x is rejected by name under every control, theta = 0 too.
    for phi in (
        PowerBound("constant", 1.0),
        PowerBound("sum", 1.0, 4.0, 4.0),
        PowerBound("product", 1.0, 2.0, 2.0),
        PowerBound("constant", 0.0),
    ):
        ctx = ctx_for(2, 1.0, phi)
        for x in (np.nan, np.inf, -np.inf, [1.0, np.nan, 2.0]):
            for call in (
                *(lambda s=s: psi_tilde_bound(s, ctx, x) for s in "aec"),
                lambda: psi_tilde_numeric("a", ctx, x, 5),
                *(lambda kind=kind: stability_bound(kind, ctx, x) for kind in BoundKind),
            ):
                with pytest.raises(InvalidInputError, match="x must be finite"):
                    call()


def test_huge_x_scales_up_or_raises_naming_x():
    """A homogeneous series at huge |x| is psi(1) scaled up while that is finite.

    phi itself overflows at x = 1e100 under sum:4:4 (|x|^4 > 1e308), but the
    p-th power of each term does not.  The suite turns RuntimeWarning into an
    error, so a numpy overflow warning fails this test.
    """
    ctx = ctx_for(3, 0.5, PowerBound("sum", 1.0, 4.0, 4.0))
    assert psi_tilde_bound("a", ctx, 1e100) == pytest.approx(1.0915620139099486e201, rel=1e-15)
    assert psi_tilde_bound("a", ctx, -1e100) == psi_tilde_bound("a", ctx, 1e100)
    for x in (1e200, [1.0, -1e200]):
        for s in "aec":
            with pytest.raises(InvalidInputError, match="leaves float64 at x = -?1e\\+200"):
                psi_tilde_bound(s, ctx, x)
    # psi^(1/p) overflows before psi does: the bound raises naming x.
    for kind in BoundKind:
        with pytest.raises(InvalidInputError, match="overflows at x = 1e\\+100"):
            stability_bound(kind, ctx, [1.0, 1e100])


# --- stability bounds -----------------------------------------------------


def test_quadratic_bound_frozen_examples():
    ctx3 = ctx_for(2, 1.0, PowerBound("sum", 1.0, 0.0, 3.0))
    assert psi_tilde_bound("e", ctx3, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert stability_bound("quadratic", ctx3, 1.0) == pytest.approx(0.125, rel=1e-12)
    ctx_const = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    assert stability_bound("quadratic", ctx_const, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_full_bound_frozen_constant_example():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    # odd block 34/63 plus quadratic block 1/6 at p = 1
    want = 34.0 / 63.0 + 1.0 / 6.0
    assert stability_bound("full", ctx, 1.0) == pytest.approx(want, rel=1e-12)
    assert stability_bound("full", ctx, 1.0) == pytest.approx(0.7063492063492063, rel=1e-14)


def test_bound_formulas_compose_from_series():
    ctx = ctx_for(3, 0.5, PowerBound("sum", 0.8, 4.0, 4.0))
    x = 1.7
    M = ctx.space.modulus
    p = ctx.space.p
    psa = psi_tilde_bound("a", ctx, x)
    psc = psi_tilde_bound("c", ctx, x)
    pse = psi_tilde_bound("e", ctx, x)
    assert stability_bound("additive_g", ctx, x) == pytest.approx(
        M**5 / 2.0 * psa ** (1 / p), rel=1e-12
    )
    assert stability_bound("cubic_h", ctx, x) == pytest.approx(
        M**5 / 8.0 * psc ** (1 / p), rel=1e-12
    )
    assert stability_bound("odd_combined", ctx, x) == pytest.approx(
        M**6 / 48.0 * (4.0 * psa ** (1 / p) + psc ** (1 / p)), rel=1e-12
    )
    want_full = M**8 / 96.0 * (
        4.0 * (2.0 * psa) ** (1 / p) + (2.0 * psc) ** (1 / p)
    ) + M**3 / (4.0 * 9.0) * (2.0 * pse) ** (1 / p)
    assert stability_bound("full", ctx, x) == pytest.approx(want_full, rel=1e-12)


def test_bounds_linear_in_theta_and_homogeneous_in_x():
    base = ctx_for(2, 0.5, PowerBound("sum", 0.3, 4.0, 0.0))
    doubled = ctx_for(2, 0.5, PowerBound("sum", 0.6, 4.0, 0.0))
    for kind in ("additive_g", "cubic_h", "odd_combined", "full"):
        b1 = stability_bound(kind, base, 1.3)
        b2 = stability_bound(kind, doubled, 1.3)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)
        # single live exponent r = 4: psi(c x) = c^{4p} psi(x)
        assert stability_bound(kind, base, 2.6) == pytest.approx(2.0**4 * b1, rel=1e-10)


def test_bound_kind_accepts_strings_and_rejects_junk():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    assert stability_bound(BoundKind.QUADRATIC, ctx, 1.0) == stability_bound(
        "quadratic", ctx, 1.0
    )
    with pytest.raises(ValueError):
        stability_bound("septic", ctx, 1.0)


# --- closed-form constants ------------------------------------------------


def test_delta_constants_frozen():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    assert corollary_constant("delta_additive", ctx) == pytest.approx(34.0, rel=1e-14)
    assert corollary_constant("delta_cubic", ctx) == pytest.approx(34.0 / 7.0, rel=1e-14)


def test_quadratic_factor_frozen():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    # s = 0 gives 1 / |k^2 - 1| = 1/3 at k = 2
    assert corollary_constant("quadratic_factor", ctx) == pytest.approx(1.0 / 3.0, rel=1e-14)


CLOSED_VS_SERIES = [
    ("delta_additive", PowerBound("constant", 0.7), "a", 2.0),
    ("delta_cubic", PowerBound("constant", 0.7), "c", 8.0),
    ("alpha_additive", PowerBound("sum", 0.7, 4.0, 0.0), "a", 2.0),
    ("alpha_cubic", PowerBound("sum", 0.7, 4.0, 0.0), "c", 8.0),
    ("alpha_additive", PowerBound("sum", 0.7, 0.5, 0.0), "a", 2.0),
    ("alpha_cubic", PowerBound("sum", 0.7, 0.5, 0.0), "c", 8.0),
    ("beta_additive", PowerBound("sum", 0.7, 0.0, 4.0), "a", 2.0),
    ("beta_cubic", PowerBound("sum", 0.7, 0.0, 4.0), "c", 8.0),
    ("beta_additive", PowerBound("sum", 0.7, 0.0, 0.5), "a", 2.0),
    ("beta_cubic", PowerBound("sum", 0.7, 0.0, 0.5), "c", 8.0),
    ("epsilon_additive", PowerBound("product", 0.7, 2.0, 2.0), "a", 2.0),
    ("epsilon_cubic", PowerBound("product", 0.7, 2.0, 2.0), "c", 8.0),
    ("epsilon_additive", PowerBound("product", 0.7, 0.2, 0.3), "a", 2.0),
    ("epsilon_cubic", PowerBound("product", 0.7, 0.2, 0.3), "c", 8.0),
]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [1.0, 0.75, 0.5])
def test_closed_constants_match_their_series(k, p):
    """Each constant times its prefactor reproduces the series assembly.

    psi^(1/p) = [2 or 8] * theta * constant / (k^2 |1 - k^2|) at ||x|| = 1.
    """
    for name, phi, kind, divisor in CLOSED_VS_SERIES:
        ctx = ctx_for(k, p, phi)
        series = psi_tilde_bound(kind, ctx, 1.0) ** (1.0 / p)
        assembled = (k * k * abs(1.0 - k * k)) / (divisor * phi.theta) * series
        closed = corollary_constant(name, ctx, 1.0)
        assert closed == pytest.approx(assembled, rel=1e-9), (name, k, p)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("s", [0.5, 4.0])
def test_quadratic_factor_matches_series(k, s):
    phi = PowerBound("sum", 0.7, 0.0, s)
    ctx = ctx_for(k, 1.0, phi)
    series = psi_tilde_bound("e", ctx, 1.0)
    assembled = series / (phi.theta * k * k)
    assert corollary_constant("quadratic_factor", ctx, 1.0) == pytest.approx(
        assembled, rel=1e-9
    )


def reference_constant(name, k, p, r, s):
    """delta/alpha/beta/epsilon as four numerators, each written out for its
    control family, the reference for the one constant at (r, s)."""
    family, flavor = name.split("_")
    crit = 1.0 if flavor == "additive" else 3.0
    base = 2.0**p if flavor == "additive" else 8.0**p
    k2 = float(k * k)
    t1, t2 = abs(5.0 - 4.0 * k2) ** p, abs(4.0 - 2.0 * k2) ** p
    kp, two_p = k2**p, 2.0**p
    lam = {"delta": 0.0, "alpha": r, "beta": s, "epsilon": r + s}[family]
    if lam == crit:
        raise CriticalExponentError(name)
    if family == "delta":
        num = t1 + t2 + kp * (two_p + 1.0) + 2.0 * two_p + 3.0
    elif family == "alpha":
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
    elif family == "beta":
        num = (
            t1
            + 2.0 ** (s * p) * t2
            + kp * (2.0 ** (s * p) + two_p)
            + 3.0 ** (s * p)
            + 2.0 * two_p
            + 2.0
        )
    else:
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
    return (num / abs(base - 2.0 ** (lam * p))) ** (1.0 / p)


RS_PAIRS = [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (4.0, 4.0), (0.25, 3.0), (3.0, 0.2)]


@pytest.mark.parametrize("k", [2, -2, 3, 5, 10, -7])
@pytest.mark.parametrize("p", [1.0, 0.75, 0.5, 0.3])
def test_one_closed_constant_matches_the_four_family_numerators(k, p):
    """delta, alpha and beta are epsilon at zero exponents: same values to
    rel 1e-15 and the same critical exponents as the per-family forms."""
    for r, s in RS_PAIRS:
        ctx = ctx_for(k, p, PowerBound("product", 0.7, r, s))
        for family in ("delta", "alpha", "beta", "epsilon"):
            for flavor in ("additive", "cubic"):
                name = f"{family}_{flavor}"
                try:
                    want = reference_constant(name, k, p, r, s)
                except CriticalExponentError:
                    with pytest.raises(CriticalExponentError):
                        corollary_constant(name, ctx)
                    continue
                got = corollary_constant(name, ctx)
                assert got == pytest.approx(want, rel=1e-15, abs=0.0), (name, r, s)


def test_gamma_combines_alpha_and_beta():
    ctx = ctx_for(2, 1.0, PowerBound("sum", 0.7, 4.0, 4.0))
    for flavor in ("additive", "cubic"):
        al = corollary_constant(f"alpha_{flavor}", ctx, 1.0)
        be = corollary_constant(f"beta_{flavor}", ctx, 1.0)
        ga = corollary_constant(f"gamma_{flavor}", ctx, 2.0)
        # p = 1: gamma(x) = alpha x^r + beta x^s
        assert ga == pytest.approx(al * 2.0**4 + be * 2.0**4, rel=1e-12)


def test_gamma_matches_sum_series_at_p_one():
    phi = PowerBound("sum", 0.7, 4.0, 4.0)
    ctx = ctx_for(2, 1.0, phi)
    x = 1.5
    series = psi_tilde_bound("a", ctx, x)
    assembled = (4.0 * 3.0) / (2.0 * phi.theta) * series
    assert corollary_constant("gamma_additive", ctx, x) == pytest.approx(
        assembled, rel=1e-9
    )


def test_corollary_constant_validation():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    with pytest.raises(InvalidInputError):
        corollary_constant("omega_additive", ctx)
    for x_norm in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            corollary_constant("delta_additive", ctx, x_norm=x_norm)
    crit = ctx_for(2, 1.0, PowerBound("sum", 1.0, 1.0, 0.0))
    with pytest.raises(CriticalExponentError):
        corollary_constant("alpha_additive", crit)
    crit_q = ctx_for(2, 1.0, PowerBound("sum", 1.0, 0.0, 2.0))
    with pytest.raises(CriticalExponentError):
        corollary_constant("quadratic_factor", crit_q)


# --- full closed form -----------------------------------------------------


def test_full_bound_power_matches_series_at_p_one():
    ctx = ctx_for(2, 1.0, PowerBound("sum", 0.3, 4.0, 4.0))
    closed = full_bound_power(ctx, 2.0)
    series = stability_bound("full", ctx, 2.0)
    assert closed == pytest.approx(17.38095238095238, rel=1e-12)
    assert series == pytest.approx(closed, rel=1e-9)


def test_full_bound_power_product_and_single_power():
    prod = ctx_for(2, 1.0, PowerBound("product", 0.5, 2.0, 2.0))
    assert full_bound_power(prod, 1.5) == pytest.approx(
        stability_bound("full", prod, 1.5), rel=1e-9
    )
    xonly = ctx_for(2, 1.0, PowerBound("sum", 0.5, 4.0, 0.0))
    assert full_bound_power(xonly, 1.5) == pytest.approx(
        stability_bound("full", xonly, 1.5), rel=1e-9
    )
    yonly = ctx_for(2, 1.0, PowerBound("sum", 0.5, 0.0, 4.0))
    assert full_bound_power(yonly, 1.5) == pytest.approx(
        stability_bound("full", yonly, 1.5), rel=1e-9
    )


def test_full_bound_power_tracks_series_below_p_one():
    """Below p = 1 the two routes root at different points and drift apart.

    The series route symmetrizes 2 psi inside the 1/p root while the closed
    route splits the powers first, so neither dominates in general.  They
    must still agree within the quasi-norm modulus slack M^3.
    """
    ctx = ctx_for(2, 0.5, PowerBound("sum", 0.3, 4.0, 4.0))
    closed = full_bound_power(ctx, 2.0)
    series = stability_bound("full", ctx, 2.0)
    M3 = ctx.space.modulus**3
    assert closed > 0 and series > 0
    assert series / M3 <= closed <= series * M3


def test_full_bound_power_validation():
    const = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    with pytest.raises(InvalidInputError):
        full_bound_power(const, 1.0)
    ctx = ctx_for(2, 1.0, PowerBound("sum", 1.0, 4.0, 4.0))
    for x_norm in (-2.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            full_bound_power(ctx, x_norm)


# --- bound table ----------------------------------------------------------


def test_bound_table_sum_control():
    ctx = ctx_for(2, 1.0, PowerBound("sum", 1.0, 4.0, 4.0))
    table = bound_table(ctx, [0.5, 1.0, 2.0])
    assert table["kind"] == "full"
    assert table["k"] == 2 and table["p"] == 1.0 and table["form"] == "sum"
    assert table["j"] == [1, 1, 1]
    for name in ("alpha_additive", "beta_cubic", "quadratic_factor"):
        assert np.isfinite(table["constants"][name])
    assert len(table["per_x"]) == 3
    assert all(row["bound"] > 0 for row in table["per_x"])


def test_bound_table_product_control():
    ctx = ctx_for(2, 1.0, PowerBound("product", 1.0, 2.0, 2.0))
    table = bound_table(ctx, [1.0])
    assert set(table["constants"]) == {"epsilon_additive", "epsilon_cubic"}
    assert table["j"][0] == -1  # vanishing quadratic series, direction by convention


SWEEP_EXPONENTS = [0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0]
SWEEP_CONTROLS = (
    [PowerBound("constant", 1.0)]
    + [PowerBound("sum", 1.0, r, s) for r in SWEEP_EXPONENTS for s in SWEEP_EXPONENTS if r + s > 0]
    + [PowerBound("product", 1.0, r, s) for r in SWEEP_EXPONENTS[1:] for s in SWEEP_EXPONENTS[1:]]
)


@pytest.mark.parametrize("theta", [1.0, 0.0])
@pytest.mark.parametrize("k", [2, -2, 3, 5])
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_bound_table_raises_or_is_strict_json(k, p, theta):
    """A listed constant is critical only when its series is too, and a
    series slot with no direction raises at every theta, so the table raises
    exactly where select_directions does and otherwise holds only finite
    numbers; at theta = 0 its bounds are all zero."""
    for phi in SWEEP_CONTROLS:
        ctx = ctx_for(k, p, PowerBound(phi.form, theta, phi.r, phi.s))
        try:
            select_directions(phi)
        except CriticalExponentError:
            with pytest.raises(CriticalExponentError):
                bound_table(ctx, [-2.0, 0.0, 0.5, 3.0])
            continue
        table = bound_table(ctx, [-2.0, 0.0, 0.5, 3.0])
        json.dumps(table, allow_nan=False)
        if theta == 0.0:
            assert [row["bound"] for row in table["per_x"]] == [0.0] * 4


def test_bound_table_straddling_control_raises():
    ctx = ctx_for(2, 1.0, PowerBound("sum", 1.0, 0.5, 4.0))
    with pytest.raises(CriticalExponentError):
        bound_table(ctx, [1.0])

"""Comparison series, closed-form constants, and the stability bounds.

The reference series here are summed by explicit Python loops from a frozen
nine-term table, independent of the vectorized implementation under test.
"""

import json
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from stabeq import (
    BoundContext,
    BoundKind,
    CriticalExponentError,
    Direction,
    EquationParams,
    InvalidInputError,
    IterKind,
    PNormSpace,
    PowerBound,
    bound_table,
    corollary_constant,
    full_bound_power,
    psi_tilde_bound,
    select_directions,
    stability_bound,
)
from stabeq.bounds import _series_exponents, _series_geometry

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


EPS = np.finfo(float).eps


def ctx_for(k, p, phi):
    return BoundContext(EquationParams(k), PNormSpace(1, p), phi)


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


def two_degrees(kind, phi):
    """True where psi splits its slot's control into one series per power term."""
    return kind != "e" and len(set(phi.exponents())) > 1


def assert_split_bounds(got, exact, p, split, what):
    """exact (1 - 4 EPS) <= got <= s exact (1 + 1e-14), with s = 2^(1-p) where
    psi splits two degrees by (u + v)^p <= u^p + v^p, else 1."""
    slack = 2.0 ** (1.0 - p) if split else 1.0
    assert got >= exact * (1 - 4 * EPS), what
    assert got <= slack * exact * (1 + 1e-14), what


def psi_oracle(kind, k, p, phi, x, j):
    """The comparison series at x to 50 digits: the frozen rows at the series' geometry.

    Term i reads phi at (a_m xi_i, b_m xi_i), xi_i = |x| / base^(ij), from
    i = (1+j)/2.  Under a control of one degree the terms are geometric, so
    the ratio of the first two terms, checked on the third, gives the tail
    exactly.  Two degrees at p = 1 are the sum of one such oracle per power
    term, exactly.
    """
    with mp.workdps(50):
        if two_degrees(kind, phi):
            assert p == 1.0, "the series of a sum splits by power term only at p = 1"
            return mp.fsum(
                psi_oracle(kind, k, p, PowerBound("sum", phi.theta, *t), x, j) for t in phi.terms()
            )
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
    # rho -> 1: psi_a's step ratio is 2^(-0.03), 2^(-0.01) and 2^(-0.03).
    (2, 0.3, PowerBound("sum", 1.0, 0.9, 0.9)),
    (2, 1.0, PowerBound("sum", 1.0, 0.99, 0.99)),
    (2, 0.3, PowerBound("product", 1.0, 0.45, 0.45)),
    # Two degrees: psi_a and psi_c are one closed form per power term.
    (2, 1.0, PowerBound("sum", 1.0, 0.9, 0.95)),
    (3, 1.0, PowerBound("sum", 1.0, 2.0, 2.5)),
]


@pytest.mark.parametrize("k, p, phi", ORACLE_CASES)
def test_psi_matches_a_50_digit_oracle(k, p, phi):
    ctx = ctx_for(k, p, phi)
    xs = np.linspace(-5.0, 5.0, 101)
    for slot, kind in enumerate("eac"):
        got = psi_tilde_bound(kind, ctx, xs)
        j = int(ctx.directions[slot])
        for x, g in zip(xs, got):
            want = psi_oracle(kind, k, p, phi, x, j)
            if want == 0:
                assert g == 0.0, (kind, x)
                continue
            assert abs(mp.mpf(g) / want - 1) <= 2e-15, (kind, x)
            assert g >= want * (1 - 4 * EPS), (kind, x)


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
    # A y-power control gives psi_e the degree s, against its critical value 2.
    assert select_directions(PowerBound("sum", 1.0, 0.0, 4.0))[0] is Direction.CONTRACT
    assert select_directions(PowerBound("constant", 1.0))[0] is Direction.EXPAND
    with pytest.raises(CriticalExponentError, match="psi_e .* critical value 2$"):
        select_directions(PowerBound("sum", 1.0, 0.0, 2.0))


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
    assert _series_geometry(IterKind.QUADRATIC, ctx)[2] == int(Direction.CONTRACT)
    with pytest.raises(CriticalExponentError, match="psi_a"):
        ctx.directions
    # s = 4 > 2 contracts the quadratic series: sum (4/16)^i x^4 = x^4 / 3
    assert psi_tilde_bound("e", ctx, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert stability_bound("quadratic", ctx, 1.0) == pytest.approx(1.0 / 24.0, rel=1e-12)
    with pytest.raises(CriticalExponentError):
        psi_tilde_bound("a", ctx, 1.0)
    # theta = 0 zeroes the series but leaves the additive slot without a
    # direction: the quadratic bound is served, every reader of psi_a raises.
    zero = ctx_for(2, 1.0, PowerBound("sum", 0.0, 0.5, 4.0))
    assert psi_tilde_bound("e", zero, 1.0) == 0.0
    assert stability_bound("quadratic", zero, [0.0, 1.0]).tolist() == [0.0, 0.0]
    for call in (
        lambda: zero.directions,
        lambda: psi_tilde_bound("a", zero, 1.0),
        lambda: step_ratio("a", zero),
        lambda: stability_bound("full", zero, 1.0),
    ):
        with pytest.raises(CriticalExponentError):
            call()


# --- series values --------------------------------------------------------


def step_ratio(letter, ctx):
    """The series' rounded step ratio rho, the bound on term(i+1)/term(i)."""
    kind = next(kind for kind in IterKind if kind.letter == letter)
    return _series_geometry(kind, ctx)[3]


def test_step_ratio_known_values():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    assert step_ratio("a", ctx) == pytest.approx(0.5)
    assert step_ratio("c", ctx) == pytest.approx(0.125)
    assert step_ratio("e", ctx) == pytest.approx(0.25)
    ctx3 = ctx_for(2, 1.0, PowerBound("sum", 1.0, 0.0, 3.0))
    assert step_ratio("e", ctx3) == pytest.approx(0.5)
    assert step_ratio("a", ctx_for(2, 1.0, PowerBound("constant", 0.0))) == 0.0


def test_psi_constant_control_frozen_values():
    """Geometric sums for k=2, p=1, theta=1: 34/12 * {2, 8/7} and 4/3."""
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    assert psi_tilde_bound("a", ctx, 1.0) == pytest.approx(17.0 / 3.0, rel=1e-12)
    assert psi_tilde_bound("c", ctx, 1.0) == pytest.approx(68.0 / 21.0, rel=1e-12)
    assert psi_tilde_bound("e", ctx, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_psi_partial_sums_match_reference_loops():
    """psi over a batch of x against the reference loops summed to 300 terms.

    300 terms converge every series here, and 8^300 is still finite.  The
    last three controls have two degrees, so psi_a and psi_c are one closed
    form per power term: exact at p = 1, and up to 2^(1-p) above the loops
    below it; under sum:2:2.5 A contracts and C expands.
    """
    cases = [
        (2, 1.0, PowerBound("constant", 0.7)),
        (2, 0.5, PowerBound("sum", 1.2, 4.0, 4.0)),
        (3, 0.75, PowerBound("sum", 0.4, 0.0, 0.5)),
        (2, 1.0, PowerBound("product", 0.9, 2.0, 2.5)),
        (3, 1.0, PowerBound("sum", 1.0, 0.25, 0.5)),
        (3, 0.5, PowerBound("sum", 1.0, 2.0, 2.5)),
        (2, 0.75, PowerBound("sum", 1.0, 0.25, 0.5)),
    ]
    xs = np.array([0.7, 1.0, 2.3, -2.3, 4.9])
    for k, p, phi in cases:
        ctx = ctx_for(k, p, phi)
        for slot, kind in enumerate("eac"):
            if kind == "e" and phi.y_slot_exponent() is None:
                continue
            j = int(ctx.directions[slot])
            for x, got in zip(xs, psi_tilde_bound(kind, ctx, xs)):
                if kind == "e":
                    want = psi_ref_quadratic(k, p, phi, x, j, 300)
                else:
                    want = psi_ref_odd({"a": 2.0, "c": 8.0}[kind], k, p, phi, x, j, 300)
                assert_split_bounds(got, want, p, two_degrees(kind, phi), (k, p, phi, kind, x))


def test_psi_bound_dominates_partial_sums_and_converges():
    phi = PowerBound("constant", 1.0)
    ctx = ctx_for(2, 1.0, phi)
    full = psi_tilde_bound("a", ctx, 1.0)
    prev = 0.0
    for n in (1, 2, 5, 20, 60):
        partial = psi_ref_odd(2.0, 2, 1.0, phi, 1.0, -1, n)
        assert partial >= prev
        assert full >= partial
        prev = partial
    assert full == pytest.approx(psi_ref_odd(2.0, 2, 1.0, phi, 1.0, -1, 200), rel=1e-12)


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


@pytest.mark.parametrize(
    "k, p, phi, n_ref",
    [
        # psi_a's step ratio is 2^(-0.03), past the reach of the reference loops.
        (2, 0.3, PowerBound("sum", 1.0, 0.1, 0.9), None),
        (3, 0.5, PowerBound("sum", 1.0, 2.0, 2.5), 300),
        (2, 0.75, PowerBound("sum", 1.0, 0.25, 0.5), 300),
    ],
)
def test_a_two_degree_psi_is_batch_free_and_keeps_the_split_bounds(k, p, phi, n_ref):
    """Two degrees below p = 1: a point's value is bitwise that of the point
    alone, at least the reference loops and at most 2^(1-p) times them."""
    ctx = ctx_for(k, p, phi)
    xs = np.exp(np.random.default_rng(0).uniform(np.log(1e-4), np.log(1e4), 30))
    for slot, kind in ((1, "a"), (2, "c")):
        vec = psi_tilde_bound(kind, ctx, xs)
        assert vec.tolist() == [psi_tilde_bound(kind, ctx, float(x)) for x in xs]
        if n_ref is None:
            continue
        j = int(ctx.directions[slot])
        for x, got in zip(xs[::5], vec[::5]):
            want = psi_ref_odd({"a": 2.0, "c": 8.0}[kind], k, p, phi, x, j, n_ref)
            assert_split_bounds(got, want, p, True, (kind, x))


def test_a_two_degree_sum_keeps_to_the_float_budget():
    """4,001 points peak at 0.13 MB: a few arrays of one float per point."""
    ctx = ctx_for(3, 0.5, PowerBound("sum", 1.0, 2.0, 2.5))
    tracemalloc.start()
    try:
        psi_tilde_bound("a", ctx, np.linspace(-5.0, 5.0, 4001))
        assert tracemalloc.get_traced_memory()[1] < 3 * 2**20
    finally:
        tracemalloc.stop()


def test_psi_zero_theta_and_vanishing_quadratic():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 0.0))
    assert psi_tilde_bound("a", ctx, 2.0) == 0.0
    prod_ctx = ctx_for(2, 1.0, PowerBound("product", 1.0, 2.0, 2.0))
    assert psi_tilde_bound("e", prod_ctx, 2.0) == 0.0
    assert prod_ctx.quad_zero
    assert stability_bound("quadratic", prod_ctx, 2.0) == 0.0


def test_psi_divergent_direction_raises():
    # One ulp above the critical degree the series converges, but its step
    # ratio rounds to 1, so no float64 tail bound exists.
    ctx = ctx_for(2, 0.5, PowerBound("sum", 1.0, float(np.nextafter(1.0, 2.0)), 0.0))
    assert step_ratio("a", ctx) == 1.0
    with pytest.raises(InvalidInputError, match="rounds to 1.0"):
        psi_tilde_bound("a", ctx, 1.0)


def test_psi_stops_at_the_last_finite_term_for_huge_k():
    # The suite turns RuntimeWarning into an error: an overflow in the
    # argument scale k^i would fail this test.
    phi = PowerBound("constant", 1.0)
    ctx = ctx_for(10**11, 1.0, phi)
    assert psi_tilde_bound("e", ctx, 1.0) == 1.0 == psi_ref_quadratic(10**11, 1.0, phi, 1.0, -1, 5)
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


def test_a_geometric_series_with_rho_near_one_in_closed_form_dominates_its_exact_sum():
    """At k = 270 the control |u|^1.999 gives psi_e a step ratio 1 - 2.8e-4,
    and summed term by term its terms would leave float64 at term 64; its
    first term over 1 - rho, taken by expm1, still dominates the exact sum
    and stays within 1e-12 of it."""
    ctx = ctx_for(270, 0.05, PowerBound("sum", 1.0, 0.0, 1.999))
    got = psi_tilde_bound("e", ctx, 1.0)
    with mp.workdps(50):
        # term i is rho^i, rho = 270^(p (s - 2)), at the float64 p and s given
        rho = mp.mpf(270) ** (mp.mpf(0.05) * (mp.mpf(1.999) - 2))
        exact = 1 / (1 - rho)
        assert got >= exact
        assert (got - exact) / exact <= 1e-12


def test_a_two_degree_series_with_rho_near_one_keeps_the_split_bounds():
    """Under sum:0.9:0.95 at p = 0.3, psi_a's step ratio is 2^(-0.015); split
    into one closed form per power term, it is at least the series summed to
    4,000 terms in mpmath and at most 2^(1-p) times it."""
    k, p, phi = 2, 0.3, PowerBound("sum", 1.0, 0.9, 0.95)
    got = psi_tilde_bound("a", ctx_for(k, p, phi), 1.0)
    coeffs, args = NINE_TERMS[k]
    with mp.workdps(20):
        # EXPAND: term i reads phi at 2^i (a_m, b_m) with weight 2^(-ip).
        rows = [
            (mp.mpf(c) ** p, abs(mp.mpf(a)) ** phi.r, abs(mp.mpf(b)) ** phi.s)
            for c, (a, b) in zip(coeffs, args)
        ]
        u, v, step = mp.mpf(2) ** phi.r, mp.mpf(2) ** phi.s, mp.mpf(2) ** -p
        total, ur, vs, wi = mp.mpf(0), mp.mpf(1), mp.mpf(1), mp.mpf(1)
        for _ in range(4000):
            total += wi * mp.fsum(c * (ar * ur + bs * vs) ** p for c, ar, bs in rows)
            ur, vs, wi = ur * u, vs * v, wi * step
        total *= mp.mpf(k * k * abs(1 - k * k)) ** -p
        assert_split_bounds(got, total, p, True, got)


def test_a_series_reads_its_control_once_per_degree_in_its_slot(monkeypatch):
    """The closed form reads every row of its first term in one phi call, at
    any step ratio: rho runs from 2^(-3) to 1 - 2.8e-4 below.  A slot of one
    degree reads phi whole, sum:4:4 too; one of two degrees reads it once
    per power term."""
    calls = []
    value = PowerBound.value
    monkeypatch.setattr(PowerBound, "value", lambda self, x, y: calls.append(1) or value(self, x, y))
    xs = np.linspace(-5.0, 5.0, 101)
    for k, p, phi, kinds in (
        (2, 1.0, PowerBound("constant", 1.0), "eac"),
        (3, 0.5, PowerBound("sum", 1.0, 4.0, 4.0), "eac"),
        (270, 0.05, PowerBound("sum", 1.0, 0.0, 1.999), "e"),
        (3, 0.5, PowerBound("sum", 1.0, 2.0, 2.5), "eac"),
    ):
        ctx = ctx_for(k, p, phi)
        for kind in kinds:
            for x in (1.0, xs):
                calls.clear()
                psi_tilde_bound(kind, ctx, x)
                assert len(calls) == (2 if two_degrees(kind, phi) else 1), (k, p, phi, kind)


def test_a_positive_series_that_underflows_raises_and_exact_zeros_stay():
    ctx = ctx_for(10**11, 1.0, PowerBound("sum", 1.0, 0.0, 40.0))
    for x in (1.0, [0.0, 1.0], -1e-30):
        with pytest.raises(InvalidInputError, match="series 'e' .* underflows float64 at x = "):
            psi_tilde_bound("e", ctx, x)
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


def test_psi_rejects_unknown_kind_and_nonfinite_x():
    ctx = ctx_for(2, 1.0, PowerBound("constant", 1.0))
    with pytest.raises(InvalidInputError, match="unknown series kind 'zeta'"):
        psi_tilde_bound("zeta", ctx, 1.0)
    # An int too long to print is named by its digit count.
    with pytest.raises(InvalidInputError, match="^unknown series kind an int of 5001 digits$"):
        psi_tilde_bound(10**5000, ctx, 1.0)
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


@pytest.mark.parametrize(
    "k, p, phi, x, message",
    [
        # One degree: a finite first term over 1 - rho = 0.0069.
        (2, 1.0, PowerBound("sum", 2e305, 0.99, 0.99), 1.0, "leaves float64 at x = 1.0"),
        # Two degrees: psi_a(1) is 1.7e308, and the exact psi_a(2) is past float64.
        (2, 1.0, PowerBound("sum", 1e306, 0.9, 0.95), 2.0, "leaves float64 at x = 2.0"),
        # phi itself overflows at |x| = 1, though psi(1e-3) is about 1e149.
        (3, 0.5, PowerBound("sum", 1e307, 4.0, 4.0), 1.0, "overflows float64 at term 1"),
    ],
)
def test_a_series_past_float64_at_one_keeps_the_points_where_it_is_finite(k, p, phi, x, message):
    """psi_a(1) is past float64, or nearly so: a point where psi is finite
    keeps theta^p psi_unit there, within rounding, and the first x past
    float64 is named, with no numpy warning."""
    big = ctx_for(k, p, phi)
    unit = ctx_for(k, p, PowerBound("sum", 1.0, phi.r, phi.s))
    got = psi_tilde_bound("a", big, [0.0, 1e-3])
    assert got[0] == 0.0
    assert np.isfinite(got[1])
    want = phi.theta**p * psi_tilde_bound("a", unit, 1e-3)
    assert want * (1 - 1e-14) <= got[1] <= want * (1 + 1e-14)
    with pytest.raises(InvalidInputError, match=f"series 'a' .* {message}"):
        psi_tilde_bound("a", big, [1e-3, x])


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
    assert stability_bound("quadratic", ctx, x) == pytest.approx(
        M / (2.0 * 9.0) * pse ** (1 / p), rel=1e-12
    )
    want_full = M**8 / 96.0 * (
        4.0 * (2.0 * psa) ** (1 / p) + (2.0 * psc) ** (1 / p)
    ) + M**3 / (4.0 * 9.0) * (2.0 * pse) ** (1 / p)
    assert stability_bound("full", ctx, x) == pytest.approx(want_full, rel=1e-12)


def test_bounds_linear_in_theta_and_homogeneous_in_x():
    base = ctx_for(2, 0.5, PowerBound("sum", 0.3, 4.0, 0.0))
    doubled = ctx_for(2, 0.5, PowerBound("sum", 0.6, 4.0, 0.0))
    for kind in BoundKind:
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
    with pytest.raises(InvalidInputError, match="^unknown bound kind 'septic'$"):
        stability_bound("septic", ctx, 1.0)
    with pytest.raises(InvalidInputError, match="^unknown bound kind an int of 5001 digits$"):
        stability_bound(10**5000, ctx, 1.0)


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
    # (2^1)^0.75 and 2^(0.75 r) round to one float: the denominator is 0.
    near = ctx_for(2, 0.75, PowerBound("sum", 1.0, 0.9999999999999999, 0.0))
    with pytest.raises(CriticalExponentError, match="psi_a divides by 0: .* 0.9999999999999999 "):
        corollary_constant("alpha_additive", near)


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


# One ulp either side of each critical value 1, 2 and 3.
NEAR_CRITICAL = [float(np.nextafter(d, d + side)) for d in (1.0, 2.0, 3.0) for side in (-1, 1)]


@pytest.mark.parametrize("k", [2, 3, -2, 5])
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_a_selected_direction_makes_every_degree_converge(k, p):
    """Wherever select_directions returns, each series reads its slot's j,
    and every live degree e of the slot has j (e - d) > 0, the exact
    condition for the series to converge, also one ulp from a critical value."""
    near = [0.0, *NEAR_CRITICAL]
    controls = (
        SWEEP_CONTROLS
        + [PowerBound("sum", 1.0, r, s) for r in near for s in near if r + s > 0]
        + [PowerBound("product", 1.0, r, s) for r in NEAR_CRITICAL for s in NEAR_CRITICAL]
    )
    served = 0
    for phi in controls:
        try:
            directions = select_directions(phi)
        except CriticalExponentError:
            continue
        served += 1
        ctx = ctx_for(k, p, phi)
        assert ctx.directions == directions
        for kind, j in zip(IterKind, directions):
            assert _series_geometry(kind, ctx)[2] == int(j)
            for e in _series_exponents(kind, phi):
                assert int(j) * (e - kind.degree) > 0, (phi, kind)
    assert (served, len(controls)) == (107, 169)  # the rest raise


def test_bound_table_straddling_control_raises():
    ctx = ctx_for(2, 1.0, PowerBound("sum", 1.0, 0.5, 4.0))
    with pytest.raises(CriticalExponentError):
        bound_table(ctx, [1.0])

"""Scaled iterations, Cauchy limits, and the component decomposition."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabeq import (
    ConvergenceDiagnostics,
    Direction,
    EquationParams,
    ExperimentConfig,
    FunctionHandle,
    GridSpec,
    InvalidInputError,
    IterationSpec,
    IterKind,
    LimitFunction,
    NoiseSpec,
    PhiForm,
    PNormSpace,
    decompose_full,
    make_test_function,
    parity_split,
    run_experiment,
    take_limit,
    to_json,
)
from stabeq import approximants, equations
from stabeq.equations import horner_cubic
from stabeq.harness import decompose

SPACE1 = PNormSpace(1, 1.0)
K2 = EquationParams(2)
# 32 fixed pseudo-random points on [-5, 5].
PROBES = np.random.default_rng(1729).uniform(-5.0, 5.0, 32)


def handle(fn):
    return FunctionHandle(lambda xs: np.asarray(fn(xs))[:, None], SPACE1)


def sin_perturbed_odd():
    """x^3 + x + 0.01 sin x; odd, with known contracting-limit coefficients."""
    return handle(lambda xs: xs**3 + xs + 0.01 * np.sin(xs))


# --- one level -----------------------------------------------------------


def power(b, e):
    """float(b) ** e, or the infinity it rounds to past float64's range."""
    try:
        return float(b) ** e
    except OverflowError:
        return math.inf if b > 0 or e % 2 == 0 else -math.inf


def iterate_reference(spec, f, xs, n):
    """(value, rounding scale) of level n at the points xs, from the approximants docstring.

    A component of degree d iterates with base b (k for Q, 2 for A and C):
    level n reads f at rung n, u = x * b^(-nj), and weighs by w = b^(dnj); an
    odd kind reads f(2u) - c f(u), with 2u at rung n - j.  The rounding scale
    is |w| times the magnitude of f(u), or of f(2u) plus c times that of f(u).
    """
    j = int(spec.direction)
    if spec.kind.label == "quadratic":
        b, d, c = spec.params.k, 2, 0.0
    else:  # g = f(2x) - 8 f(x) for A, h = f(2x) - 2 f(x) for C
        b, d, c = {"additive": (2, 1, 8.0), "cubic": (2, 3, 2.0)}[spec.kind.label]
    w = power(b, d * n * j)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, mag = f.evaluate(xs * power(b, -n * j))
        if c:
            vals2, mag2 = f.evaluate(xs * power(b, -(n - j) * j))
            vals, mag = vals2 - c * vals, mag2 + c * mag
        return w * vals, abs(w) * mag


def test_iterate_quadratic_values():
    """A limit stopped at its cap returns that level's iterate k^(2n) f(x / k^n)."""
    quartic = handle(lambda xs: xs**4)
    # k = 2, contracting, n = 2: 4^2 * (1/4)^4 = 1/16
    spec = IterationSpec(IterKind.QUADRATIC, Direction.CONTRACT, K2, max_n=2)
    vals, diag = take_limit(spec, quartic, 1.0)
    assert vals[0] == pytest.approx(0.0625, rel=1e-15)
    assert diag.n_used == 2 and not diag.converged
    square = handle(lambda xs: xs**2)
    for max_n in (1, 5):
        spec = IterationSpec(IterKind.QUADRATIC, Direction.CONTRACT, K2, max_n=max_n)
        vals, diag = take_limit(spec, square, 3.0)
        assert vals[0] == pytest.approx(9.0)
        assert diag == ConvergenceDiagnostics(n_used=1, last_step=0.0, converged=True)


def test_iterate_additive_fixed_on_additive_maps():
    lin = handle(lambda xs: xs)
    # g(x) = f(2x) - 8 f(x) = -6x, invariant under the scaling: level 1 repeats level 0
    for direction in Direction:
        vals, diag = take_limit(IterationSpec(IterKind.ADDITIVE, direction), lin, np.array([1.0, -2.5]))
        assert vals[:, 0] == pytest.approx([-6.0, 15.0])
        assert diag == ConvergenceDiagnostics(n_used=1, last_step=0.0, converged=True)


def test_iterate_cubic_fixed_on_cubic_maps():
    cubic = handle(lambda xs: xs**3)
    # h(x) = f(2x) - 2 f(x) = 6x^3
    for direction in Direction:
        vals, diag = take_limit(IterationSpec(IterKind.CUBIC, direction), cubic, np.array([1.0, -2.5]))
        assert vals[:, 0] == pytest.approx([6.0, -93.75])
        assert diag == ConvergenceDiagnostics(n_used=1, last_step=0.0, converged=True)


@pytest.mark.parametrize("kind", [IterKind.ADDITIVE, IterKind.CUBIC], ids=lambda k: k.label)
def test_contracting_odd_iterates_read_each_rung_rounded_once(kind):
    """Level n reads x / 2^(n-1) and x / 2^n, each rounded once, in the subnormals too."""
    seen = []
    f = handle(lambda xs: seen.append(xs.copy()) or xs)
    tiny = 5e-324
    xs = np.array([7 * tiny, -3 * tiny, 1e-310, -2.2250738585072014e-308, 0.7])
    spec = IterationSpec(kind, Direction.CONTRACT)
    for n in (1, 2, 5, 9):
        seen.clear()
        rungs, _, _ = approximants._Ladder(spec, f, xs).block(range(n, n + 1), np.arange(xs.size))
        assert rungs == range(n - 1, n + 1)
        want = [float(Fraction(x) / 2 ** (n - 1)) for x in xs]
        want += [float(Fraction(x) / 2**n) for x in xs]
        assert sorted(np.concatenate(seen).tolist()) == sorted(want)


def test_iteration_spec_validation():
    with pytest.raises(InvalidInputError):
        IterationSpec(IterKind.QUADRATIC, Direction.CONTRACT)  # params missing
    with pytest.raises(InvalidInputError):
        IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT, tol=-1e-3)
    with pytest.raises(InvalidInputError, match="max_n must be >= 1, got 0"):
        IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT, max_n=0)
    for max_n in (2.5, True):
        with pytest.raises(InvalidInputError, match=f"max_n must be an integer, got {max_n!r}"):
            IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT, max_n=max_n)
    for tol in (np.inf, np.nan, True):
        with pytest.raises(InvalidInputError, match="tol must be finite"):
            IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT, tol=tol)
    caps = [IterationSpec(kind, Direction.CONTRACT, K2).max_n for kind in IterKind]
    assert caps + [IterationSpec(IterKind.QUADRATIC, Direction.EXPAND, K2, max_n=5).max_n] == [48] * 3 + [5]


# --- limits ---------------------------------------------------------------


def test_take_limit_stationary_on_exact_solution():
    cubic = handle(lambda xs: xs**3)
    spec = IterationSpec(IterKind.CUBIC, Direction.EXPAND)
    vals, diag = take_limit(spec, cubic, np.array([2.0, -1.5]))
    assert np.allclose(vals[:, 0], [48.0, -20.25], rtol=1e-14)
    assert diag.n_used == 1
    assert diag.last_step == 0.0
    assert diag.converged


def test_take_limit_contract_matches_taylor_oracle():
    """Contracting limits absorb the local slope of the perturbation.

    For f = x^3 + x + 0.01 sin x the additive limit is -6.06 x (slope of
    g at 0) and the cubic limit 5.99 x^3, both from the sin Taylor series.
    """
    f = sin_perturbed_odd()
    xs = np.array([-3.0, -1.2, 0.7, 2.5])
    vals_a, diag_a = take_limit(IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT), f, xs)
    assert np.max(np.abs(vals_a[:, 0] - (-6.06) * xs)) < 1e-7
    assert diag_a.converged
    vals_c, diag_c = take_limit(IterationSpec(IterKind.CUBIC, Direction.CONTRACT), f, xs)
    assert np.max(np.abs(vals_c[:, 0] - 5.99 * xs**3)) < 1e-6
    assert diag_c.converged


def test_powers_past_float64_are_signed_infinities():
    big = 10**11
    assert approximants._powers(big, 2.0, range(16)).tolist() == [
        *(float(big) ** (2.0 * n) for n in range(15)),
        np.inf,
    ]
    assert approximants._powers(-big, 1.0, range(28, 31)).tolist() == [1e308, -np.inf, np.inf]


def test_quadratic_limit_blows_up_where_its_weight_leaves_float64():
    """k^(2n) passes float64's range at n = 15 for k = 1e11: the points blow up there."""
    even, _ = parity_split(FunctionHandle(lambda x: np.sqrt(np.abs(x)), SPACE1))
    xs = np.array([0.7, 1.3])
    spec = IterationSpec(IterKind.QUADRATIC, Direction.CONTRACT, EquationParams(10**11))
    vals, diag = take_limit(spec, even, xs)
    assert diag == ConvergenceDiagnostics(n_used=15, last_step=np.inf, converged=False)
    assert same_bits(vals, iterate_reference(spec, even, xs, 14)[0])  # the last finite iterate
    spec3 = IterationSpec(IterKind.QUADRATIC, Direction.CONTRACT, EquationParams(3))
    assert not take_limit(spec3, even, xs)[1].converged


def test_take_limit_expand_sees_asymptotic_coefficients():
    """Expanding limits kill the bounded perturbation instead."""
    f = sin_perturbed_odd()
    xs = np.array([-3.0, -1.2, 0.7, 2.5])
    vals_a, diag_a = take_limit(IterationSpec(IterKind.ADDITIVE, Direction.EXPAND), f, xs)
    assert np.max(np.abs(vals_a[:, 0] - (-6.0) * xs)) < 1e-4
    assert diag_a.converged
    vals_c, diag_c = take_limit(IterationSpec(IterKind.CUBIC, Direction.EXPAND), f, xs)
    assert np.max(np.abs(vals_c[:, 0] - 6.0 * xs**3)) < 1e-6
    assert diag_c.converged


def test_take_limit_flags_divergence_at_cap():
    quartic = handle(lambda xs: xs**4)
    spec = IterationSpec(IterKind.ADDITIVE, Direction.EXPAND, max_n=20)
    vals, diag = take_limit(spec, quartic, np.array([2.0]))
    assert not diag.converged
    assert diag.n_used == 20
    assert np.isfinite(vals).all()
    assert diag.last_step > 1.0


def test_take_limit_keeps_last_finite_value_on_overflow():
    grower = handle(lambda xs: np.expm1(xs))
    spec = IterationSpec(IterKind.ADDITIVE, Direction.EXPAND)
    vals, diag = take_limit(spec, grower, np.array([5.0]))
    assert not diag.converged
    assert diag.last_step == np.inf
    assert np.isfinite(vals).all()


def test_take_limit_mixed_batch_isolates_points():
    """A diverging point must not poison converged neighbors in the batch."""
    quartic_plus_cubic = handle(lambda xs: xs**4 + xs**3)
    spec = IterationSpec(IterKind.CUBIC, Direction.EXPAND, max_n=12)
    vals, diag = take_limit(spec, quartic_plus_cubic, np.array([0.0, 1.0]))
    assert vals[0, 0] == 0.0
    assert not diag.converged  # the x = 1 point keeps growing


def test_floor_stops_expand_iteration_before_cancellation_noise():
    """Regression for the absorption failure at large expanded arguments.

    Without the rounding floor the additive sequence at x = -4.8 bottoms out
    near step 3e-8, then float cancellation garbage grows like 4^n until the
    value collapses to exactly 0 and a zero step fakes convergence.  The
    floor must stop at the plateau with the correct value instead.
    """
    cfg = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 42))
    f = make_test_function(cfg)
    _, odd = parity_split(f)
    spec = IterationSpec(IterKind.ADDITIVE, Direction.EXPAND)
    vals, diag = take_limit(spec, odd, np.array([-4.8, -4.0, 4.7]))
    A = -vals[:, 0] / 6.0
    assert np.max(np.abs(A - np.array([-4.8, -4.0, 4.7]))) < 1e-3
    assert diag.converged
    assert diag.n_used < 20  # stops at the precision plateau, not the cap


def test_phase_locked_noise_does_not_fake_early_convergence():
    """Regression for acceptance during a dyadic phase lock.

    With seed 42 the noise frequency puts omega * x within 0.06 of a full
    turn at x = 3.0967..., so the sine stays suppressed over the first few
    doublings and the loose-tolerance steps are tiny but growing (2e-8,
    3e-7, 5e-6).  Accepting inside that run leaves the value 3.5e-3 off.
    The stop rule must reject the growing run and converge properly.
    """
    cfg = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 42))
    f = make_test_function(cfg)
    _, odd = parity_split(f)
    spec = IterationSpec(IterKind.ADDITIVE, Direction.EXPAND, tol=1e-6)
    x = 3.096774193548387
    vals, diag = take_limit(spec, odd, np.array([x]))
    assert diag.converged
    assert diag.n_used >= 5  # the locked prefix ends near n = 4
    assert abs(vals[0, 0] - (-6.0 * x)) < 1e-4


def test_doubling_the_cap_does_not_move_converged_values():
    cfg = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 7))
    f = make_test_function(cfg)
    _, odd = parity_split(f)
    for kind in (IterKind.ADDITIVE, IterKind.CUBIC):
        a, da = take_limit(IterationSpec(kind, Direction.EXPAND, max_n=48), odd, PROBES)
        b, db = take_limit(IterationSpec(kind, Direction.EXPAND, max_n=96), odd, PROBES)
        assert da.converged and db.converged
        assert np.array_equal(a, b)


# --- LimitFunction --------------------------------------------------------


def test_limit_function_scalar_calls_return_fresh_arrays():
    f = sin_perturbed_odd()
    lf = LimitFunction(IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT), f)
    first = lf(1.5)
    first_value = first[0]
    first[0] = 123.0  # mutate the returned array
    again = lf(1.5)
    assert again is not first
    assert again[0] == first_value


def test_limit_function_diagnostics_accumulate():
    f = sin_perturbed_odd()
    lf = LimitFunction(IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT), f)
    fresh = lf.diagnostics
    assert fresh.n_used == 0 and fresh.converged
    lf(np.array([0.5, 1.0]))
    lf(3.0)
    merged = lf.diagnostics
    assert merged.n_used >= 1
    assert merged.converged
    assert set(to_json(merged)) == {"n_used", "last_step", "converged"}


def test_limit_function_handle_normalization():
    f = sin_perturbed_odd()
    lf = LimitFunction(IterationSpec(IterKind.CUBIC, Direction.CONTRACT), f, scale=1.0 / 6.0)
    assert lf(0.0)[0] == 0.0
    assert lf(np.array([2.0])).shape == (1, 1)


# --- decompositions -------------------------------------------------------


def test_decompose_odd_exact_polynomial():
    """An odd map: Q vanishes, and A and C, each called alone, stop at level 1."""
    f = handle(lambda xs: 2.0 * xs**3 + 5.0 * xs)
    dec = decompose_full(f, K2)
    xs = np.linspace(-5, 5, 41)
    assert not dec.Q(xs).any()
    assert np.max(np.abs(dec.A(xs)[:, 0] - 5.0 * xs)) < 1e-10
    assert np.max(np.abs(dec.C(xs)[:, 0] - 2.0 * xs**3)) < 1e-9
    assert all(d.n_used == 1 for d in dec.diagnostics.values())


def test_decompose_full_exact_polynomial():
    f = FunctionHandle.componentwise(SPACE1, horner_cubic, 2.0, -1.0, 5.0)
    dec = decompose_full(f, K2)
    xs = np.linspace(-5, 5, 101)
    A, Q, C = dec.components_at(xs)
    assert np.max(np.abs(A[:, 0] - 5.0 * xs)) < 1e-8 * (1 + np.max(np.abs(5 * xs)))
    assert np.max(np.abs(Q[:, 0] + xs**2)) < 1e-8 * (1 + np.max(xs**2))
    assert np.max(np.abs(C[:, 0] - 2.0 * xs**3)) < 1e-8 * (1 + np.max(np.abs(2 * xs**3)))
    for diag in dec.diagnostics.values():
        assert diag.converged
        assert diag.n_used == 1
    assert dec.directions == (Direction.EXPAND, Direction.EXPAND, Direction.EXPAND)
    assert np.array_equal(dec.offsets, f.offset)


def test_decompose_full_reassembles_near_solution():
    cfg = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 3))
    f = make_test_function(cfg)
    dec = decompose_full(f, K2)
    A, Q, C = dec.components_at(PROBES)
    resid = np.abs(f(PROBES) - (A + Q + C))[:, 0]
    assert np.max(resid) < 0.05  # within the perturbation scale
    assert all(d.converged for d in dec.diagnostics.values())


def test_decompose_full_respects_direction_choice():
    f = FunctionHandle(
        lambda xs: (xs**3 + xs + 0.01 * np.sin(xs))[:, None], SPACE1
    )
    contract = decompose_full(
        f, K2, (Direction.CONTRACT, Direction.CONTRACT, Direction.CONTRACT)
    )
    # the contracting additive limit absorbs the perturbation slope at 0
    assert contract.A(2.0)[0] == pytest.approx(1.01 * 2.0, abs=1e-6)
    expand = decompose_full(f, K2)
    assert expand.A(2.0)[0] == pytest.approx(2.0, abs=1e-4)


def test_decompose_full_evaluates_nothing_until_a_component_is_called():
    seen = []
    poly = FunctionHandle.componentwise(SPACE1, horner_cubic, 2.0, -1.0, 5.0)

    def recording(xs):
        seen.append(xs.copy())
        return poly(xs)

    f = FunctionHandle(recording, SPACE1)
    seen.clear()  # the handle's own evaluation at 0
    dec = decompose_full(f, K2)
    assert not seen
    assert all(d.n_used == 0 for d in dec.diagnostics.values())
    dec.Q(np.array([1.5]))
    assert np.any(np.concatenate(seen) != 0.0)


def test_component_diagnostics_cover_exactly_the_evaluated_points():
    cfg = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 3))
    f = make_test_function(cfg)
    dec = decompose_full(f, K2)
    xs = np.array([0.25, -0.5, 1.0])
    dec.A(xs)
    _, odd = parity_split(f)
    _, expected = take_limit(dec.A.spec, odd, xs)
    assert dec.A.diagnostics == expected


@settings(max_examples=20, deadline=None)
@given(
    a3=st.floats(min_value=-3, max_value=3, allow_nan=False),
    a2=st.floats(min_value=-3, max_value=3, allow_nan=False),
    a1=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_decompose_full_recovers_random_polynomials(a3, a2, a1):
    f = FunctionHandle.componentwise(SPACE1, horner_cubic, a3, a2, a1)
    dec = decompose_full(f, K2)
    xs = np.array([-2.0, 0.5, 3.0])
    A, Q, C = dec.components_at(xs)
    scale = 1.0 + max(abs(a3), abs(a2), abs(a1)) * 27.0
    assert np.max(np.abs(A[:, 0] - a1 * xs)) < 1e-8 * scale
    assert np.max(np.abs(Q[:, 0] - a2 * xs**2)) < 1e-8 * scale
    assert np.max(np.abs(C[:, 0] - a3 * xs**3)) < 1e-8 * scale


# --- the shared odd ladder ------------------------------------------------


def take_limit_reference(spec, f, xs):
    """take_limit's stopping rule with every level evaluated afresh by iterate_reference."""
    space = f.space
    prev, _ = iterate_reference(spec, f, xs, 0)
    result = prev.copy()
    n_used = np.zeros(xs.size, dtype=int)
    last_step = np.zeros(xs.size)
    converged = np.zeros(xs.size, dtype=bool)
    armed = np.zeros(xs.size, dtype=bool)
    prev_step = np.full(xs.size, np.inf)
    active = np.arange(xs.size)
    eps = np.finfo(float).eps
    for n in range(1, spec.max_n + 1):
        cur, mag = iterate_reference(spec, f, xs[active], n)
        with np.errstate(invalid="ignore"):
            step = space.pnorm(cur - prev[active])
        finite = np.isfinite(cur).all(axis=-1)
        tol_eff = spec.tol * (1.0 + space.pnorm(np.where(finite[:, None], cur, 0.0)))
        floor = 4.0 * eps * space.pnorm(np.where(finite[:, None], mag, 0.0))
        small = finite & (step <= np.maximum(tol_eff, floor))
        ok = small & ((armed[active] & (step <= prev_step[active])) | (step <= floor))
        result[active[finite]] = cur[finite]
        n_used[active] = n
        last_step[active[finite]] = step[finite]
        last_step[active[~finite]] = np.inf
        converged[active[ok]] = True
        armed[active] = small
        prev_step[active] = step
        keep = ~(ok | ~finite)
        active = active[keep]
        if active.size == 0:
            break
        prev[active] = cur[keep]
    diag = ConvergenceDiagnostics(
        int(n_used.max(initial=0)), float(last_step.max(initial=0.0)), bool(converged.all())
    )
    return result, diag


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def odd_part(**fields):
    return parity_split(make_test_function(ExperimentConfig(**fields)))[1]


BOUNDED = NoiseSpec("bounded_smooth", 0.01, 3)
POWER = NoiseSpec("power_scaled", 0.01, 3)
GRID41 = np.linspace(-5, 5, 41)
LADDER_CASES = {
    "expand-dim1-p1": (odd_part(noise=BOUNDED), Direction.EXPAND, (48, 48), GRID41),
    "contract-dim1-p1": (odd_part(noise=BOUNDED), Direction.CONTRACT, (48, 48), GRID41),
    "expand-dim3-p0.5": (
        odd_part(noise=BOUNDED, codomain_dim=3, p=0.5, poly=([1, 2, -1], 0.5, [1, -3, 2])),
        Direction.EXPAND,
        (48, 48),
        GRID41,
    ),
    "contract-dim3-p0.5": (
        odd_part(noise=POWER, codomain_dim=3, p=0.5, k=3, phi_form=PhiForm("sum", 4.0, 4.0)),
        Direction.CONTRACT,
        (48, 48),
        GRID41,
    ),
    "expand-cap-5": (odd_part(noise=BOUNDED), Direction.EXPAND, (5, 5), GRID41),
    "expand-caps-5-and-48": (
        odd_part(noise=BOUNDED),
        Direction.EXPAND,
        (5, 48),
        GRID41,
    ),
    "expand-overflow": (
        FunctionHandle(lambda xs: np.sinh(xs)[:, None], SPACE1),
        Direction.EXPAND,
        (48, 48),
        np.array([-2.0, 0.5, 3.0]),
    ),
    # The contracting rungs x / 2^m round in the subnormals, where 2 (x / 2^n)
    # is not x / 2^(n-1): each level reads both as rungs, each rounded once.
    "contract-subnormal": (
        odd_part(noise=POWER, k=3, p=0.5, phi_form=PhiForm("sum", 4.0, 4.0)),
        Direction.CONTRACT,
        (48, 48),
        GridSpec(1e-310, 2e-310, 5).points(),
    ),
}


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_shared_ladder_equals_separate_and_fresh_limits_bitwise(case):
    odd, direction, caps, xs = LADDER_CASES[case]
    specs = [
        IterationSpec(kind, direction, max_n=cap)
        for kind, cap in zip((IterKind.ADDITIVE, IterKind.CUBIC), caps)
    ]
    joint = take_limit(tuple(specs), odd, xs)
    for spec, (vals, diag) in zip(specs, joint):
        alone, alone_diag = take_limit(spec, odd, xs)
        fresh, fresh_diag = take_limit_reference(spec, odd, xs)
        assert same_bits(vals, alone) and same_bits(vals, fresh)
        assert diag == alone_diag == fresh_diag
    diags = [diag for _, diag in joint]
    if case.startswith("expand-cap"):
        assert diags[0].n_used == 5 and not diags[0].converged
    if case == "expand-overflow":
        assert all(d.last_step == np.inf for d in diags)


# Caps on both sides of the block boundaries: levels 0-1, 2-7, 8-13, ...
CAPS = st.sampled_from((1, 2, 5, 6, 7, 8, 13, 14, 30, 48)) | st.integers(1, 48)
# Zeros, subnormals, and points whose iterates overflow: at level 0 (1e100),
# or, for Q under a quartic power_scaled noise, some levels on (1e70).
POINTS = st.lists(
    st.sampled_from((0.0, -0.0, 5e-324, 1e-310, -2e-310, 2.2250738585072014e-308, 1e70, -1e100))
    | st.floats(-50.0, 50.0),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(
    direction=st.sampled_from(Direction),
    odd=st.booleans(),
    k=st.sampled_from((2, 3, -2)),
    dim=st.sampled_from((1, 3)),
    p=st.sampled_from((1.0, 0.5)),
    noise=st.sampled_from(("bounded_smooth", "power_scaled")),
    amplitude=st.sampled_from((0.0, 0.01, 0.5)),
    phi=st.sampled_from((PhiForm(), PhiForm("sum", 4.0, 4.0))),
    caps=st.tuples(CAPS, CAPS),
    points=POINTS,
)
@example(  # Q at x = 1e70 blows up at level 24 and keeps its level-23 iterate
    direction=Direction.EXPAND, odd=False, k=2, dim=1, p=1.0, noise="power_scaled",
    amplitude=0.01, phi=PhiForm("sum", 4.0, 4.0), caps=(30, 30), points=[1.0, 1e70],
)
@example(  # A and C run past level 8, so steps are compared across block edges
    direction=Direction.EXPAND, odd=True, k=2, dim=1, p=1.0, noise="bounded_smooth",
    amplitude=0.01, phi=PhiForm(), caps=(48, 48), points=np.linspace(-5, 5, 12).tolist(),
)
def test_chunked_limits_equal_the_level_by_level_reference(
    direction, odd, k, dim, p, noise, amplitude, phi, caps, points
):
    poly = ([1, 2, -1], 0.5, [1, -3, 2]) if dim == 3 else (1.0, 1.0, 1.0)
    cfg = ExperimentConfig(
        k=k, p=p, codomain_dim=dim, poly=poly, phi_form=phi, noise=NoiseSpec(noise, amplitude, 5)
    )
    base = parity_split(make_test_function(cfg))[int(odd)]
    xs = np.array(points)
    kinds = (IterKind.ADDITIVE, IterKind.CUBIC) if odd else (IterKind.QUADRATIC,)
    specs = tuple(
        IterationSpec(kind, direction, EquationParams(k), max_n=cap)
        for kind, cap in zip(kinds, caps)
    )
    got = take_limit(specs, base, xs) if odd else (take_limit(specs[0], base, xs),)
    for spec, (vals, diag) in zip(specs, got):
        fresh, fresh_diag = take_limit_reference(spec, base, xs)
        assert same_bits(vals, fresh)
        assert repr(diag) == repr(fresh_diag)  # last_step may be NaN


@pytest.mark.parametrize("direction", Direction, ids=lambda d: d.name)
def test_shared_ladder_reads_each_rung_once(direction):
    f = make_test_function(ExperimentConfig(noise=BOUNDED))
    seen = []

    def counted(xs):
        seen.append(xs.size)
        return f(xs)

    _, odd = parity_split(FunctionHandle(counted, f.space))
    xs = np.linspace(-5, 5, 21)
    if direction == Direction.CONTRACT:  # rungs that round in the subnormals
        xs = np.concatenate([xs, [7 * 5e-324, -1e-310, 2.2250738585072014e-308]])
    specs = tuple(IterationSpec(kind, direction) for kind in (IterKind.ADDITIVE, IterKind.CUBIC))
    # n is the last level a point reaches in A or C, from one-point limits.
    last = [max(take_limit(spec, odd, np.array([x]))[1].n_used for spec in specs) for x in xs]
    assert len(set(last)) > 1
    seen.clear()
    take_limit(specs, odd, xs)
    # Three rungs at levels 0-1 and one per level after, up to the end of
    # the block holding n: levels 0-1, then blocks of _BLOCK_LEVELS, the last
    # cut at the cap.  A rung is one odd-part value, two base evaluations.
    size = approximants._BLOCK_LEVELS

    def end(n):
        return 1 if n == 1 else min(48, 1 + size * -(-(n - 1) // size))

    assert sum(seen) == sum(2 * (end(n) + 2) for n in last)
    # One base-map call per block.
    assert len(seen) == 1 + -(-(max(last) - 1) // size)


def test_take_limit_shares_a_ladder_only_between_odd_kinds_of_one_direction():
    odd = odd_part(noise=BOUNDED)
    xs = np.array([1.0])
    quad = IterationSpec(IterKind.QUADRATIC, Direction.EXPAND, params=K2)
    add = IterationSpec(IterKind.ADDITIVE, Direction.EXPAND)
    cub = IterationSpec(IterKind.CUBIC, Direction.CONTRACT)
    for specs in ((quad, add), (add, cub), ()):
        with pytest.raises(InvalidInputError):
            take_limit(specs, odd, xs)


@pytest.mark.parametrize(
    "phi, calls",
    [(PhiForm(), 2), (PhiForm("sum", 4.0, 4.0), 2), (PhiForm("sum", 2.0, 2.5), 3)],
)
def test_components_at_equals_the_three_component_calls(monkeypatch, phi, calls):
    cfg = ExperimentConfig(noise=POWER, k=3, phi_form=phi, grid=GridSpec(-5, 5, 41))
    f = make_test_function(cfg)
    xs = cfg.grid.points()
    alone = decompose(cfg, f)
    expected = (alone.A(xs), alone.Q(xs), alone.C(xs))
    seen = []
    monkeypatch.setattr(
        approximants, "take_limit", lambda *a: seen.append(a[0]) or take_limit(*a)
    )
    dec = decompose(cfg, f)
    got = dec.components_at(xs)
    assert len(seen) == calls  # A and C share one call unless their directions differ
    assert all(same_bits(a, b) for a, b in zip(got, expected))
    assert dec.diagnostics == alone.diagnostics


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("phi", [PhiForm(), PhiForm("sum", 2.0, 2.5)])
def test_limits_do_not_depend_on_the_float_budget(monkeypatch, dim, phi):
    """Chunks of 1, 4 and 1,170 points (1, 1 and 292 at dim 4) give the same
    limits and diagnostics; sinh blows up at 3 and 20, so last_step is inf."""
    cfg = ExperimentConfig(codomain_dim=dim, k=3, noise=BOUNDED, phi_form=phi)
    f = make_test_function(cfg)
    xs = np.concatenate([np.linspace(-5, 5, 21), [0.0]])
    sinh = FunctionHandle(lambda xs: np.sinh(xs)[:, None] * np.ones(dim), PNormSpace(dim, 1.0))
    specs = tuple(
        IterationSpec(kind, Direction.EXPAND) for kind in (IterKind.ADDITIVE, IterKind.CUBIC)
    )
    runs = []
    for budget in (7, 64, 1 << 14):
        monkeypatch.setattr(equations, "_BLOCK", budget)
        dec = decompose(cfg, f)
        values = [*dec.components_at(xs), dec.Q(2.5), dec.Q(xs[:0])]
        blown = take_limit(specs, sinh, np.array([-2.0, 0.5, 3.0, 20.0, 1.0]))
        values += [vals for vals, _ in blown]
        runs.append((values, dec.diagnostics, [diag for _, diag in blown]))
    assert all(diag.last_step == np.inf for diag in runs[0][2])
    for values, diagnostics, blown in runs[1:]:
        assert all(same_bits(a, b) for a, b in zip(values, runs[0][0]))
        assert diagnostics == runs[0][1] and blown == runs[0][2]


def test_merged_chunks_keep_a_nan_step(monkeypatch):
    """At x = 3e102, A's level 0 is f(2x) - 8 f(x) = inf - inf and level 1
    is 0, so a limit capped at level 1 stops on a NaN step.  np.max keeps
    the NaN, over one chunk or over the one record its chunks fill."""
    f = FunctionHandle(lambda xs: (xs**3)[:, None], SPACE1)
    spec = IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT, max_n=1)
    xs = np.array([1.0, 3e102, 2.0])
    _, diag = take_limit(spec, f, xs)
    assert np.isnan(diag.last_step)
    monkeypatch.setattr(equations, "_BLOCK", 7)  # one point per chunk
    _, chunked = take_limit(spec, f, xs)
    assert repr(chunked) == repr(diag)
    limit = LimitFunction(spec, f)
    limit(xs)
    assert np.isnan(limit.diagnostics.last_step)


def test_mixed_direction_report_keeps_separate_limits():
    cfg = ExperimentConfig(
        noise=BOUNDED, phi_form=PhiForm("sum", 2.0, 2.5), grid=GridSpec(-5, 5, 21)
    )
    report = run_experiment(cfg)
    _, j_a, j_c = report.directions
    assert j_a != j_c
    _, odd = parity_split(make_test_function(cfg))
    xs = cfg.grid.points()
    for name, kind, j, scale in (
        ("A", IterKind.ADDITIVE, j_a, -1.0 / 6.0),
        ("C", IterKind.CUBIC, j_c, 1.0 / 6.0),
    ):
        spec = IterationSpec(kind, j, tol=cfg.tol, max_n=cfg.max_n)
        vals, diag = take_limit_reference(spec, odd, xs)
        cells = [getattr(row, name) for row in report.rows]
        offset = scale * 0.0  # the limit's signed zero at x = 0
        assert cells == [tuple(v) for v in (scale * vals - offset).tolist()]
        assert report.diagnostics["additive" if name == "A" else "cubic"] == diag

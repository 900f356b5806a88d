"""Acceptance suite: ten numbered criteria, one verdict line each.

Every test records a (pass, detail) entry in RESULTS before asserting, and
the conftest terminal-summary hook prints the collected verdict lines after
the run.  Criteria with runtime budgets measure wall time and enforce it.
"""

import time

import numpy as np
import pytest

from stabeq import (
    Direction,
    EquationKind,
    EquationParams,
    ExperimentConfig,
    FunctionHandle,
    GridSpec,
    NoiseSpec,
    PNormSpace,
    PowerBound,
    BoundContext,
    corollary_constant,
    decompose_full,
    make_test_function,
    modulus_of_concavity,
    power_sum_residual,
    psi_tilde_bound,
    report_to_csv,
    residual,
    run_experiment,
    verify_solution,
)

RESULTS: dict[str, tuple[bool, str]] = {}


def record(key: str, ok: bool, detail: str) -> None:
    RESULTS[key] = (bool(ok), detail)
    assert ok, f"criterion {key} failed: {detail}"


def poly_handle(a3, a2, a1, dim=1, p=1.0) -> FunctionHandle:
    space = PNormSpace(dim, p)
    return FunctionHandle(lambda x: ((a3 * x + a2) * x + a1) * x, space)


def grid_pairs() -> np.ndarray:
    pts = np.linspace(-5.0, 5.0, 101)
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def test_criterion_01_exact_solution_residual():
    """Exact mixed polynomial annihilates the operator for k in {-2, 2, 3}."""
    f = poly_handle(2.0, -1.0, 5.0)
    pairs = grid_pairs()
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for k in (-2, 2, 3):
        report = verify_solution(f, EquationParams(k), pairs, 1e-9)
        ok = ok and report.passed
        worst = max(worst, report.max_residual / report.scale)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    record(
        "01",
        ok,
        f"max residual {worst:.3e} of scale (limit 1e-9), {elapsed:.2f}s (limit 2s)",
    )


def test_criterion_02_quartic_is_detected():
    """x^4 leaves the residual 24 y^4 at k = 2, relative 1e-9, 1000 points."""
    space = PNormSpace(1, 1.0)
    f = FunctionHandle(lambda x: x**4, space)
    rng = np.random.default_rng(20240817)
    X = rng.uniform(-5.0, 5.0, 1000)
    Y = rng.uniform(0.5, 5.0, 1000) * rng.choice([-1.0, 1.0], 1000)
    got = residual(f, EquationKind.general_mixed(EquationParams(2)), X, Y)[:, 0]
    want = 24.0 * Y**4
    rel = np.max(np.abs(got - want) / np.abs(want))
    record("02", rel <= 1e-9, f"max relative error {rel:.3e} (limit 1e-9)")


def test_criterion_03_exact_recovery_is_stationary():
    """Exact polynomials split into their monomials in a single iterate."""
    a3, a2, a1 = 2.0, -1.0, 5.0
    dec = decompose_full(poly_handle(a3, a2, a1), EquationParams(2))
    xs = np.linspace(-5.0, 5.0, 101)
    worst = 0.0
    values, records = dec.components_at(xs)
    for got, truth in zip(values, (a1 * xs, a2 * xs**2, a3 * xs**3)):
        worst = max(worst, np.max(np.abs(got[:, 0] - truth) / np.maximum(1.0, np.abs(truth))))
    n_used = sorted(int(n.max()) for n, _, _ in records.values())
    ok = worst <= 1e-8 and all((n == 1).all() for n, _, _ in records.values())
    record(
        "03",
        ok,
        f"max relative error {worst:.3e} (limit 1e-8), n_used {n_used} (all must be 1)",
    )


CONSTANT_CONFIGS = [
    (k, p, family, phi)
    for k in (2, 3)
    for p in (1.0, 0.75, 0.5)
    for family, phi in (
        ("delta", PowerBound("constant", 0.7)),
        ("alpha", PowerBound("sum", 0.7, 4.0, 0.0)),
        ("beta", PowerBound("sum", 0.7, 0.0, 4.0)),
    )
] + [
    (2, 1.0, "epsilon", PowerBound("product", 0.7, 2.0, 2.0)),
    (3, 0.75, "epsilon", PowerBound("product", 0.7, 0.2, 0.3)),
]


def test_criterion_04_closed_constants_match_series():
    """delta = 34 and 34/7 at (k=2, p=1); 20 configs agree with the series."""
    ctx0 = BoundContext(EquationParams(2), PNormSpace(1, 1.0), PowerBound("constant", 1.0))
    d_a = corollary_constant("delta_additive", ctx0)
    d_c = corollary_constant("delta_cubic", ctx0)
    frozen_ok = abs(d_a - 34.0) <= 1e-9 and abs(d_c - 34.0 / 7.0) <= 1e-9

    start = time.perf_counter()
    worst = 0.0
    assert len(CONSTANT_CONFIGS) == 20
    for k, p, family, phi in CONSTANT_CONFIGS:
        ctx = BoundContext(EquationParams(k), PNormSpace(1, p), phi)
        for kind, divisor in (("a", 2.0), ("c", 8.0)):
            series = psi_tilde_bound(kind, ctx, 1.0) ** (1.0 / p)
            assembled = (k * k * abs(1.0 - k * k)) / (divisor * phi.theta) * series
            flavor = "additive" if kind == "a" else "cubic"
            closed = corollary_constant(f"{family}_{flavor}", ctx)
            worst = max(worst, abs(closed - assembled) / assembled)
    elapsed = time.perf_counter() - start
    ok = frozen_ok and worst <= 1e-9 and elapsed < 5.0
    record(
        "04",
        ok,
        f"delta ({d_a:.12g}, {d_c:.12g}) vs (34, 34/7); "
        f"20 configs max relative gap {worst:.3e} (limit 1e-9), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_05_bound_dominates_100_seeds():
    """Calibrated full bound covers the observed residual for 100 seeds."""
    start = time.perf_counter()
    min_margin = np.inf
    failures = []
    for seed in range(100):
        cfg = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, seed))
        report = run_experiment(cfg)
        seed_min = min(row.margin for row in report.rows)
        min_margin = min(min_margin, seed_min)
        if not (report.passed and seed_min >= 0.0):
            failures.append(seed)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    record(
        "05",
        ok,
        f"{100 - len(failures)}/100 seeds, min margin {min_margin:.4f}, "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_06_power_sum_residual_nonnegative():
    rng = np.random.default_rng(11)
    worst = np.inf
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        xs = np.abs(rng.normal(0.0, 3.0, dim))
        p = float(rng.uniform(0.05, 1.0))
        worst = min(worst, power_sum_residual(xs, p))
    record("06", worst >= -1e-12, f"min residual {worst:.3e} (limit -1e-12)")


def test_criterion_07_norm_laws_hold():
    """Both p-norm laws across 1000 pairs for each p in {1, 0.5, 1/3}."""
    rng = np.random.default_rng(23)
    worst = -np.inf
    for p in (1.0, 0.5, 1.0 / 3.0):
        space = PNormSpace(4, p)
        M = modulus_of_concavity(p)
        x = rng.uniform(-1.0, 1.0, (1000, 4))
        y = rng.uniform(-1.0, 1.0, (1000, 4))
        nx, ny, nxy = space.pnorm(x), space.pnorm(y), space.pnorm(x + y)
        power_gap = np.max(nxy**p - (nx**p + ny**p))
        quasi_gap = np.max(nxy - M * (nx + ny))
        worst = max(worst, power_gap, quasi_gap)
    record("07", worst <= 1e-12, f"max law violation {worst:.3e} (limit 1e-12)")


def _law_probes():
    probes = np.linspace(-4.0, 4.0, 32)
    return probes, np.random.default_rng(5).permutation(probes)


def _law_points():
    """Every point _component_law_gaps reads a component at: the probes, ys,
    2 probes, and the arguments a x + b y of the quadratic and cubic laws."""
    probes, ys = _law_probes()
    terms = EquationKind.quadratic().terms + EquationKind.cubic().terms
    return np.concatenate([probes, ys, 2 * probes, *(a * probes + b * ys for _, a, b in terms)])


def _component_law_gaps(dec, tol):
    """Max scaled violation of the scaling and equation laws at 32 probes."""
    probes, ys = _law_probes()
    gaps = []

    for limit, factor in ((dec.Q, 4.0), (dec.A, 2.0), (dec.C, 8.0)):
        v2 = np.asarray(limit(2 * probes))[:, 0]
        v1 = np.asarray(limit(probes))[:, 0]
        scale = 1.0 + max(np.max(np.abs(v2)), np.max(np.abs(v1)))
        gaps.append(np.max(np.abs(v2 - factor * v1)) / scale)

    q_res = residual(dec.Q, EquationKind.quadratic(), probes, ys)[:, 0]
    q_scale = 1.0 + np.max(np.abs(np.asarray(dec.Q(2 * probes))))
    gaps.append(np.max(np.abs(q_res)) / q_scale)

    a_xy = np.asarray(dec.A(probes + ys))[:, 0]
    a_x = np.asarray(dec.A(probes))[:, 0]
    a_y = np.asarray(dec.A(ys))[:, 0]
    a_scale = 1.0 + max(np.max(np.abs(a_xy)), np.max(np.abs(a_x)), np.max(np.abs(a_y)))
    gaps.append(np.max(np.abs(a_xy - a_x - a_y)) / a_scale)

    c_res = residual(dec.C, EquationKind.cubic(), probes, ys)[:, 0]
    c_scale = 1.0 + np.max(np.abs(np.asarray(dec.C(2 * probes + ys))))
    gaps.append(np.max(np.abs(c_res)) / c_scale)

    return max(gaps) / tol


def test_criterion_08_recovered_components_obey_their_laws():
    """Scaling and defining-equation laws hold to 10 tol after decomposition."""
    exact = decompose_full(poly_handle(2.0, -1.0, 5.0), EquationParams(2))
    exact_gap = _component_law_gaps(exact, 1e-10)

    cfg = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 42), tol=1e-6)
    noisy = decompose_full(
        make_test_function(cfg),
        EquationParams(2),
        (Direction.EXPAND, Direction.EXPAND, Direction.EXPAND),
        tol=cfg.tol,
        max_n=cfg.max_n,
    )
    noisy_gap = _component_law_gaps(noisy, 1e-6)
    # Every component converged at every point a law check read.
    _, records = noisy.components_at(_law_points())
    assert all(converged.all() for _, _, converged in records.values())

    worst = max(exact_gap, noisy_gap)
    record(
        "08",
        worst <= 10.0,
        f"max law violation {worst:.3f} x tol x scale (limit 10)",
    )


def test_criterion_09_doubling_the_cap_is_idle():
    """Recovered values move by <= 10 tol when max_n doubles."""
    tol = 1e-10
    f = make_test_function(ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 42)))
    xs = np.linspace(-5.0, 5.0, 101)
    worst = 0.0
    outs = []
    for cap in (24, 48):
        dec = decompose_full(
            f,
            EquationParams(2),
            (Direction.EXPAND, Direction.EXPAND, Direction.EXPAND),
            tol=tol,
            max_n=cap,
        )
        values, records = dec.components_at(xs)
        outs.append(values)
        assert all(converged.all() for _, _, converged in records.values())
    for a, b in zip(*outs):
        worst = max(worst, float(np.max(np.abs(a - b))))
    record("09", worst <= 10.0 * tol, f"max value change {worst:.3e} (limit {10 * tol:.0e})")


def test_criterion_10_reports_are_byte_identical():
    cfg = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 42))
    text1 = report_to_csv(run_experiment(cfg))
    text2 = report_to_csv(run_experiment(cfg))
    ok = text1 == text2
    record("10", ok, f"{len(text1)} CSV bytes compared equal" if ok else "outputs differ")

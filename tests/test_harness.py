"""Experiment harness: configs, calibration, reports, determinism."""

import json

import numpy as np
import pytest

from stabeq import (
    CSV_HEADER,
    Direction,
    EquationParams,
    ExperimentConfig,
    GridSpec,
    InvalidInputError,
    NoiseSpec,
    PhiForm,
    UnboundablePerturbationError,
    calibrate_theta,
    emit_report,
    make_test_function,
    report_to_csv,
    run_experiment,
)

SEEDED = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 42))

# Calibrated control amplitude for SEEDED on the default grid.
THETA_SEEDED = 0.1615980603378142


# --- config dataclasses ---------------------------------------------------


def test_noise_spec_validation():
    with pytest.raises(InvalidInputError):
        NoiseSpec("pink", 0.1)
    with pytest.raises(InvalidInputError):
        NoiseSpec("bounded_smooth", -0.1)
    assert NoiseSpec().kind == "none"


def test_phi_form_validation_and_power_scale():
    with pytest.raises(InvalidInputError):
        PhiForm("spline")
    with pytest.raises(InvalidInputError):
        PhiForm("sum", -1.0, 2.0)
    assert PhiForm("constant").power_scale() == 0.0
    assert PhiForm("sum", 1.5, 4.0).power_scale() == 4.0
    assert PhiForm("product", 1.5, 2.0).power_scale() == 3.5


def test_grid_spec():
    with pytest.raises(InvalidInputError):
        GridSpec(lo=1.0, hi=1.0)
    with pytest.raises(InvalidInputError):
        GridSpec(count=1)
    g = GridSpec(-2.0, 2.0, 5)
    assert np.array_equal(g.points(), [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert g.pairs().shape == (25, 2)
    assert np.array_equal(g.pairs()[0], [-2.0, -2.0])


def test_experiment_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(poly=(1.0, 2.0))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(tol=-1e-9)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(max_n=0)


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        k=3,
        p=0.5,
        codomain_dim=2,
        poly=((1.0, 2.0), (0.5, -1.0), (3.0, 0.0)),
        noise=NoiseSpec("power_scaled", 0.05, 7),
        phi_form=PhiForm("sum", 4.0, 4.0),
        grid=GridSpec(-3.0, 3.0, 31),
        tol=1e-8,
        max_n=20,
    )
    blob = json.dumps(cfg.to_json())
    back = ExperimentConfig.from_json(json.loads(blob))
    assert back.to_json() == cfg.to_json()
    assert back.grid == cfg.grid and back.noise == cfg.noise


def test_config_from_json_fills_defaults():
    cfg = ExperimentConfig.from_json({"k": 3})
    assert cfg.k == 3
    assert cfg.p == 1.0 and cfg.grid.count == 101
    assert cfg.phi_form == PhiForm()


def test_config_from_json_merges_onto_base():
    base = ExperimentConfig(k=3, grid=GridSpec(-2.0, 2.0, 5), tol=0)
    cfg = ExperimentConfig.from_json({"grid": {"count": 7}, "tol": 1e-8}, base=base)
    assert cfg.k == 3 and cfg.grid == GridSpec(-2.0, 2.0, 7)
    assert cfg.tol == 1e-8  # converted by the field's type, not the base value's
    for bad in ({"noise": {"amp": 0.1}}, {"grid": 5}, {"k": "two"}):
        with pytest.raises(InvalidInputError):
            ExperimentConfig.from_json(bad, base=base)


# --- test function factory ------------------------------------------------


def test_make_test_function_deterministic():
    xs = np.linspace(-4, 4, 57)
    f1 = make_test_function(SEEDED)
    f2 = make_test_function(SEEDED)
    assert np.array_equal(f1(xs), f2(xs))


def test_make_test_function_noise_is_bounded_and_seeded():
    xs = np.linspace(-5, 5, 201)
    clean = make_test_function(ExperimentConfig())
    noisy = make_test_function(SEEDED)
    other_seed = make_test_function(ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 43)))
    delta = np.abs(noisy(xs) - clean(xs))
    assert np.max(delta) <= 0.01 + 1e-15
    assert np.max(delta) > 0.001
    assert not np.array_equal(noisy(xs), other_seed(xs))


def test_make_test_function_zero_amplitude_is_clean():
    xs = np.linspace(-5, 5, 41)
    clean = make_test_function(ExperimentConfig())
    silent = make_test_function(ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.0, 42)))
    assert np.array_equal(clean(xs), silent(xs))


def test_make_test_function_vanishes_at_zero():
    for kind in ("none", "bounded_smooth", "power_scaled"):
        cfg = ExperimentConfig(noise=NoiseSpec(kind, 0.02, 5))
        assert make_test_function(cfg)(0.0) == pytest.approx(0.0, abs=1e-15)


def test_make_test_function_vector_components_differ():
    cfg = ExperimentConfig(
        codomain_dim=3,
        poly=(1.0, (1.0, 2.0, 3.0), 1.0),
        noise=NoiseSpec("bounded_smooth", 0.05, 11),
    )
    out = make_test_function(cfg)(np.array([1.0, 2.0]))
    assert out.shape == (2, 3)
    assert len({round(v, 12) for v in out[0]}) == 3


def test_power_scaled_noise_uses_control_exponent():
    cfg = ExperimentConfig(
        noise=NoiseSpec("power_scaled", 0.01, 3),
        phi_form=PhiForm("sum", 4.0, 4.0),
    )
    clean = make_test_function(ExperimentConfig())
    noisy = make_test_function(cfg)
    xs = np.array([0.5, 1.0, 2.0, 4.0])
    delta = np.abs(noisy(xs) - clean(xs)).ravel()
    assert np.all(delta <= 0.01 * np.abs(xs) ** 4 + 1e-15)
    assert delta[3] > delta[0]


# --- calibration ----------------------------------------------------------


def test_calibrate_theta_frozen_value():
    f = make_test_function(SEEDED)
    theta = calibrate_theta(f, EquationParams(2), SEEDED.phi_form, SEEDED.grid)
    assert theta == THETA_SEEDED


def test_calibrate_theta_is_deterministic_and_covers_grid():
    f = make_test_function(SEEDED)
    params = EquationParams(2)
    t1 = calibrate_theta(f, params, SEEDED.phi_form, SEEDED.grid)
    t2 = calibrate_theta(f, params, SEEDED.phi_form, SEEDED.grid)
    assert t1 == t2
    # the 1.01 safety factor leaves every grid residual strictly covered
    pts = SEEDED.grid.pairs()
    from stabeq import difference_operator

    resid = f.space.pnorm(difference_operator(f, params, pts[:, 0], pts[:, 1]))
    phi_unit = SEEDED.phi_form.instantiate(1.0).value(pts[:, 0], pts[:, 1])
    assert np.all(resid <= t1 * phi_unit + 1e-15)


def test_calibrate_theta_exact_polynomial_is_dust():
    f = make_test_function(ExperimentConfig())
    theta = calibrate_theta(f, EquationParams(2), PhiForm("constant"), GridSpec())
    assert 0.0 <= theta < 1e-8


def test_calibrate_theta_scales_linearly_at_p_one():
    base = SEEDED
    doubled = ExperimentConfig(
        poly=(2.0, 2.0, 2.0), noise=NoiseSpec("bounded_smooth", 0.02, 42)
    )
    params = EquationParams(2)
    t1 = calibrate_theta(make_test_function(base), params, base.phi_form, base.grid)
    t2 = calibrate_theta(make_test_function(doubled), params, base.phi_form, base.grid)
    assert t2 == 2.0 * t1


def test_calibrate_theta_unboundable_even_noise_product_control():
    """Even noise leaves a residual on the x = 0 line where a product control
    vanishes, so no finite amplitude can cover it."""
    cfg = ExperimentConfig(
        noise=NoiseSpec("power_scaled", 0.01, 9),
        phi_form=PhiForm("product", 2.0, 2.0),
    )
    f = make_test_function(cfg)
    with pytest.raises(UnboundablePerturbationError):
        calibrate_theta(f, EquationParams(2), cfg.phi_form, cfg.grid)


def test_calibrate_theta_rejects_bad_grid():
    f = make_test_function(ExperimentConfig())
    with pytest.raises(InvalidInputError):
        calibrate_theta(f, EquationParams(2), PhiForm("constant"), np.zeros((0, 2)))
    with pytest.raises(InvalidInputError):
        calibrate_theta(f, EquationParams(2), PhiForm("constant"), np.zeros((4, 3)))


# --- experiments ----------------------------------------------------------


def test_run_experiment_smoke():
    report = run_experiment(SEEDED)
    assert report.passed
    assert report.theta_used == THETA_SEEDED
    assert report.directions == (Direction.EXPAND, Direction.EXPAND, Direction.EXPAND)
    assert len(report.rows) == SEEDED.grid.count
    assert report.diagnostics["quadratic_bound_zero"] is False
    for name in ("additive", "quadratic", "cubic"):
        assert report.diagnostics[name].converged
    for row in report.rows:
        assert row.margin == row.bound - row.residual
        assert row.margin >= -1e-12 * (1.0 + row.bound)


def test_run_experiment_zero_point_row():
    report = run_experiment(SEEDED)
    row = report.rows[SEEDED.grid.count // 2]
    assert row.x == 0.0
    assert row.f == (0.0,) and row.A == (0.0,) and row.Q == (0.0,) and row.C == (0.0,)
    assert row.residual == 0.0
    assert row.bound == pytest.approx(THETA_SEEDED * 0.7063492063492063, rel=1e-14)


def test_run_experiment_exact_polynomial_passes_with_tiny_bound():
    report = run_experiment(ExperimentConfig(grid=GridSpec(-5.0, 5.0, 41)))
    assert report.passed
    assert report.theta_used < 1e-8
    assert all(d.n_used == 1 for d in report.diagnostics.values()
               if hasattr(d, "n_used"))


def test_run_experiment_vector_codomain():
    cfg = ExperimentConfig(
        codomain_dim=2,
        p=0.5,
        poly=((1.0, 0.5), (1.0, -1.0), (1.0, 2.0)),
        noise=NoiseSpec("bounded_smooth", 0.01, 4),
        grid=GridSpec(-4.0, 4.0, 21),
    )
    report = run_experiment(cfg)
    assert report.passed
    assert len(report.rows[0].f) == 2
    assert ";" in report_to_csv(report).splitlines()[1]


def test_run_experiment_product_control_flags_quad_zero():
    cfg = ExperimentConfig(
        phi_form=PhiForm("product", 2.0, 2.0),
        grid=GridSpec(-4.0, 4.0, 21),
    )
    report = run_experiment(cfg)
    assert report.diagnostics["quadratic_bound_zero"] is True
    assert report.passed


def test_report_json_structure():
    report = run_experiment(ExperimentConfig(grid=GridSpec(-2.0, 2.0, 5)))
    data = report.to_json()
    assert set(data) == {"rows", "theta_used", "directions", "diagnostics", "pass"}
    assert data["pass"] is True
    assert data["directions"] == [-1, -1, -1]
    assert len(data["rows"]) == 5
    assert set(data["rows"][0]) == {"x", "f", "A", "Q", "C", "residual", "bound", "margin"}
    assert isinstance(data["diagnostics"]["additive"], dict)
    json.dumps(data)  # must be serializable as-is


# --- serialization --------------------------------------------------------


def test_csv_header_and_shape():
    report = run_experiment(ExperimentConfig(grid=GridSpec(-2.0, 2.0, 5)))
    lines = report_to_csv(report).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    assert all(line.count(",") == 7 for line in lines[1:])


def test_csv_zero_row_frozen():
    report = run_experiment(SEEDED)
    lines = report_to_csv(report).splitlines()
    zero_row = lines[1 + SEEDED.grid.count // 2]
    assert zero_row == "0,0,0,0,0,0,0.11414466166718623,0.11414466166718623"


def test_csv_byte_determinism():
    text1 = report_to_csv(run_experiment(SEEDED))
    text2 = report_to_csv(run_experiment(SEEDED))
    assert text1 == text2


def test_csv_floats_round_trip():
    report = run_experiment(SEEDED)
    line = report_to_csv(report).splitlines()[1]
    cells = line.split(",")
    assert float(cells[0]) == report.rows[0].x
    assert float(cells[6]) == report.rows[0].bound


def test_emit_report_formats_and_paths(tmp_path):
    report = run_experiment(ExperimentConfig(grid=GridSpec(-2.0, 2.0, 5)))
    csv_text = emit_report(report, "csv")
    assert csv_text.startswith(CSV_HEADER)
    json_text = emit_report(report, "json")
    assert json.loads(json_text)["pass"] is True
    out = tmp_path / "report.csv"
    returned = emit_report(report, "csv", str(out))
    assert out.read_text() == returned == csv_text
    with pytest.raises(InvalidInputError):
        emit_report(report, "yaml")
    with pytest.raises(OSError):
        emit_report(report, "csv", str(tmp_path / "missing" / "report.csv"))

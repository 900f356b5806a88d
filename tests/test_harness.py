"""Experiment harness: configs, calibration, reports, determinism."""

import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabeq import (
    CSV_HEADER,
    ConvergenceDiagnostics,
    Direction,
    EquationKind,
    EquationParams,
    ExperimentConfig,
    GridSpec,
    InvalidInputError,
    NoiseSpec,
    PhiForm,
    PowerBound,
    ReportRow,
    StabilityReport,
    UnboundablePerturbationError,
    calibrate_theta,
    emit_report,
    make_test_function,
    report_to_csv,
    report_to_json,
    run_experiment,
    to_json,
    verify_solution,
)
from stabeq.equations import _BLOCK, operator_residual
from stabeq.errors import is_finite_number

SEEDED = ExperimentConfig(noise=NoiseSpec("bounded_smooth", 0.01, 42))

# Calibrated control amplitude for SEEDED on the default grid.
THETA_SEEDED = 0.1615980603378142


# --- config dataclasses ---------------------------------------------------


def test_noise_spec_validation():
    with pytest.raises(InvalidInputError):
        NoiseSpec("pink", 0.1)
    for amplitude in (-0.1, True):
        with pytest.raises(InvalidInputError, match="noise amplitude must be finite and >= 0"):
            NoiseSpec("bounded_smooth", amplitude)
    with pytest.raises(InvalidInputError, match="seed"):
        NoiseSpec("bounded_smooth", 0.01, -1)
    for seed in (1.5, True):
        with pytest.raises(InvalidInputError, match="noise seed must be an integer"):
            NoiseSpec("bounded_smooth", 0.01, seed)
    assert NoiseSpec().kind == "none"


def test_phi_form_validation_and_power_scale():
    with pytest.raises(InvalidInputError):
        PhiForm("spline")
    with pytest.raises(InvalidInputError):
        PhiForm("sum", -1.0, 2.0)
    assert PhiForm("constant").power_scale() == 0.0
    assert PhiForm("sum", 1.5, 4.0).power_scale() == 4.0
    assert PhiForm("product", 1.5, 2.0).power_scale() == 3.5
    assert PhiForm("sum", 0.0, 2.5).power_scale() == 2.5
    assert PhiForm("sum", 3.0, 0.0).power_scale() == 3.0


def test_grid_spec():
    for lo, hi in ((1.0, 1.0), (True, 2.0), (-1.0, np.True_), (-np.inf, 1.0)):
        with pytest.raises(InvalidInputError, match="grid needs finite lo < hi"):
            GridSpec(lo, hi)
    with pytest.raises(InvalidInputError, match="grid count must be >= 2, got 1"):
        GridSpec(count=1)
    for count in (5.5, True):
        with pytest.raises(InvalidInputError, match="grid count must be an integer"):
            GridSpec(-1.0, 1.0, count)
    assert GridSpec(-1.0, 1.0, np.int64(5)).points().size == 5
    g = GridSpec(-2.0, 2.0, 5)
    assert np.array_equal(g.points(), [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert g.pairs().shape == (25, 2)
    assert np.array_equal(g.pairs()[0], [-2.0, -2.0])


@pytest.mark.parametrize(
    "value,want",
    [
        (0, True),
        (-2.5, True),
        (2**1023, True),
        (np.int64(-3), True),
        (np.float32(3e38), True),
        (Fraction(1, 3), True),
        (10**400, False),
        (-(10**400), False),
        (np.nan, False),
        (-np.inf, False),
        (np.float32(np.inf), False),
        (True, False),
        (np.False_, False),
        ("1", False),
        (None, False),
        (1j, False),
        (np.array(1.0), False),
    ],
    ids=[
        "int", "float", "int-2^1023", "int64", "float32-max", "fraction", "int-huge",
        "int-minus-huge", "nan", "-inf", "float32-inf", "bool", "numpy-bool", "str", "none",
        "complex", "0-d-array",
    ],
)
def test_is_finite_number(value, want):
    assert is_finite_number(value) is want


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExperimentConfig(tol="1e-9"),
        lambda: ExperimentConfig(p="0.5"),
        lambda: GridSpec("a", 1.0, 3),
        lambda: NoiseSpec("none", "0", 0),
        lambda: PhiForm("sum", "1", 0.0),
        lambda: ExperimentConfig(tol=10**400, grid=GridSpec(-1.0, 1.0, 5)),
        lambda: NoiseSpec("bounded_smooth", 10**400, 1),
        lambda: PowerBound("constant", 10**400),
        lambda: GridSpec(-(10**400), 1.0, 5),
        lambda: ExperimentConfig(poly=("1", 1.0, 1.0)),
        lambda: ExperimentConfig(poly=5),
    ],
    ids=[
        "tol-str", "p-str", "grid-str", "amplitude-str", "r-str", "tol-huge",
        "amplitude-huge", "theta-huge", "grid-huge", "poly-str", "poly-int",
    ],
)
def test_what_is_not_a_finite_number_is_invalid_input(build):
    with pytest.raises(InvalidInputError):
        build()


@pytest.mark.parametrize(
    "poly,stored",
    [
        (([1.0, 2.0], 1.0, 1.0), ((1.0, 2.0), 1.0, 1.0)),
        ((np.array([1.0, 2.0]), 1.0, 1.0), ((1.0, 2.0), 1.0, 1.0)),
        ((np.int64(1), 1.0, 1.0), (1.0, 1.0, 1.0)),
        ((np.array(3.0), np.float32(0.5), (np.int64(1), 2)), (3.0, 0.5, (1.0, 2.0))),
        (np.ones((3, 2)), ((1.0, 1.0),) * 3),
        ([1, 2, 3], (1.0, 2.0, 3.0)),
    ],
)
def test_poly_is_stored_as_its_json_reads_back(poly, stored):
    cfg = ExperimentConfig(codomain_dim=2, poly=poly)
    assert cfg.poly == stored
    assert [type(c) for c in cfg.poly] == [type(c) for c in stored]
    assert all(type(v) is float for c in cfg.poly for v in (c if type(c) is tuple else (c,)))
    hash(cfg)
    assert ExperimentConfig.from_json(json.loads(json.dumps(to_json(cfg)))) == cfg


def test_experiment_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(poly=(1.0, 2.0))
    for tol in (-1e-9, np.nan, True):
        with pytest.raises(InvalidInputError, match="tol must be finite and >= 0"):
            ExperimentConfig(tol=tol)
    with pytest.raises(InvalidInputError, match="max_n must be >= 1, got 0"):
        ExperimentConfig(max_n=0)
    for max_n in (2.5, True):
        with pytest.raises(InvalidInputError, match="max_n must be an integer"):
            ExperimentConfig(max_n=max_n)
    # k, p and codomain_dim are checked by the types that own them
    for fields, message in (
        ({"k": 2.5}, "k must be an integer"),
        ({"k": True}, "k must be an integer"),
        ({"k": -1}, r"\|k\| >= 2"),
        ({"p": np.nan}, "p must satisfy"),
        ({"p": True}, "p must satisfy"),
        ({"codomain_dim": 0}, "dim must be >= 1"),
        ({"codomain_dim": True}, "dim must be an integer"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            ExperimentConfig(**fields)
    for poly in (
        (("a",), 1.0, 1.0),
        ((1.0, 2.0), 1.0, 1.0),
        (np.inf, 0.0, 0.0),
        (1.0, np.nan, 1.0),
        (True, 1.0, 1.0),
    ):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(poly=poly)
    assert ExperimentConfig(codomain_dim=2, poly=((1.0, 2.0), 0.0, 1.0)).codomain_dim == 2
    with pytest.raises(InvalidInputError, match="poly entries"):
        ExperimentConfig(codomain_dim=2, poly=((1.0, True), 0.0, 1.0))


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
    blob = json.dumps(to_json(cfg))
    back = ExperimentConfig.from_json(json.loads(blob))
    assert to_json(back) == to_json(cfg)
    assert back.grid == cfg.grid and back.noise == cfg.noise


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(),
        ExperimentConfig(codomain_dim=2),
        ExperimentConfig(codomain_dim=4),
        ExperimentConfig(codomain_dim=2, poly=((1.0, 2.0), 0.5, (3.0, 0.0))),
    ],
    ids=["dim1", "dim2", "dim4", "mixed"],
)
def test_config_json_round_trip_keeps_scalar_coefficients(cfg):
    data = json.loads(json.dumps(to_json(cfg)))
    assert ExperimentConfig.from_json(data) == cfg
    # scalar coefficients are written as numbers, vectors as lists
    assert [isinstance(c, list) for c in data["poly"]] == [
        isinstance(c, tuple) for c in cfg.poly
    ]


def _ints(lo, hi):
    return st.integers(lo, hi) | st.integers(lo, hi).map(np.int64)


COEF = st.floats(-10.0, 10.0)
PAIR = st.lists(COEF, min_size=2, max_size=2)

# Every number a config holds, keyed by the argument that carries it, with
# the values it validly takes; the odd values below replace a few of them.
CONFIG_NUMBERS = {
    "k": st.sampled_from([2, -2, 3, 10]) | st.sampled_from([2, -3]).map(np.int64),
    "p": st.floats(0.05, 1.0),
    "codomain_dim": _ints(1, 3),
    "a3": COEF,
    # a 2-vector, as a tuple, a list, an array or a tuple of numpy integers
    "a2": COEF
    | PAIR.map(tuple)
    | PAIR
    | PAIR.map(np.array)
    | st.lists(st.integers(-10, 10).map(np.int64), min_size=2, max_size=2).map(tuple),
    "a1": COEF,
    "amplitude": st.floats(0.0, 1.0),
    "seed": _ints(0, 2**32),
    "r": st.floats(0.0, 5.0),
    "s": st.floats(0.0, 5.0),
    "lo": st.floats(-10.0, -0.5),
    "hi": st.floats(0.5, 10.0),
    "count": _ints(2, 500),
    "tol": st.floats(0.0, 1e-3),
    "max_n": _ints(1, 100),
}
ODD_NUMBERS = st.sampled_from(
    [True, False, np.True_, np.nan, np.inf, -np.inf, -1, -2.5, 0.5, 2.5,
     "1", "nan", 10**400, -(10**400), np.float32(0.5)]
)


@st.composite
def config_numbers(draw):
    values = {name: draw(valid) for name, valid in CONFIG_NUMBERS.items()}
    for name in draw(st.sets(st.sampled_from(sorted(CONFIG_NUMBERS)), max_size=2)):
        values[name] = draw(ODD_NUMBERS)
    return values


DEFAULT_NUMBERS = dict(
    k=2, p=1.0, codomain_dim=1, a3=1.0, a2=1.0, a1=1.0, amplitude=0.01, seed=3,
    r=4.0, s=4.0, lo=-5.0, hi=5.0, count=101, tol=1e-10, max_n=48,
)


@settings(max_examples=120, deadline=None)
@given(config_numbers())
@example({**DEFAULT_NUMBERS, "max_n": True})
@example({**DEFAULT_NUMBERS, "k": 2.5})
@example({**DEFAULT_NUMBERS, "p": np.nan})
@example({**DEFAULT_NUMBERS, "tol": "1e-9"})
@example({**DEFAULT_NUMBERS, "tol": 10**400})
@example({**DEFAULT_NUMBERS, "lo": -(10**400)})
@example({**DEFAULT_NUMBERS, "a3": "1"})
@example({**DEFAULT_NUMBERS, "a3": np.int64(1)})
@example({**DEFAULT_NUMBERS, "codomain_dim": 2, "a2": [1.0, 2.0]})
@example({**DEFAULT_NUMBERS, "codomain_dim": 2, "a2": np.array([1.0, 2.0])})
def test_every_config_the_api_builds_reads_back_from_its_json(v):
    """A config either fails to build, or it hashes and its JSON is strict and reads back equal."""
    try:
        cfg = ExperimentConfig(
            k=v["k"],
            p=v["p"],
            codomain_dim=v["codomain_dim"],
            poly=(v["a3"], v["a2"], v["a1"]),
            noise=NoiseSpec("power_scaled", v["amplitude"], v["seed"]),
            phi_form=PhiForm("sum", v["r"], v["s"]),
            grid=GridSpec(v["lo"], v["hi"], v["count"]),
            tol=v["tol"],
            max_n=v["max_n"],
        )
    except InvalidInputError:
        return
    hash(cfg)
    blob = json.dumps(to_json(cfg), allow_nan=False)
    assert ExperimentConfig.from_json(json.loads(blob)) == cfg


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


def row_major_reference(cfg, xs):
    """The test map as written before it went component-major: (N, dim) ufuncs."""
    dim = cfg.codomain_dim
    a3, a2, a1 = (np.broadcast_to(np.asarray(c, dtype=float), (dim,)) for c in cfg.poly)
    eps, lam = cfg.noise.amplitude, cfg.phi_form.power_scale()
    omega = np.random.default_rng(cfg.noise.seed).uniform(0.5, 2.5, dim)
    x = xs[:, None]
    out = ((a3 * x + a2) * x + a1) * x
    if cfg.noise.kind == "bounded_smooth":
        out = out + eps * np.sin(omega * x)
    elif cfg.noise.kind == "power_scaled" and lam == 0.0:
        out = out + eps * (np.cos(omega * x) - 1.0)
    elif cfg.noise.kind == "power_scaled":
        out = out + eps * np.abs(x) ** lam * np.cos(omega * x)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "kind, phi",
    [
        ("none", PhiForm()),
        ("bounded_smooth", PhiForm()),
        ("power_scaled", PhiForm()),  # lambda = 0
        ("power_scaled", PhiForm("sum", 4.0, 4.0)),  # lambda = 4
        ("power_scaled", PhiForm("product", 0.5, 1.0)),  # lambda = 1.5
    ],
)
def test_make_test_function_matches_the_row_major_formula(dim, kind, phi):
    cfg = ExperimentConfig(
        codomain_dim=dim,
        poly=(1.5, tuple(np.linspace(-1.0, 2.0, dim)), -0.25),
        noise=NoiseSpec(kind, 0.01, 17),
        phi_form=phi,
    )
    rng = np.random.default_rng(dim)
    xs = np.concatenate([rng.uniform(-60.0, 60.0, 4000), cfg.grid.points()])
    f = make_test_function(cfg)
    want = row_major_reference(cfg, xs) - row_major_reference(cfg, np.zeros(1))[0]
    vals = f(xs)
    assert np.array_equal(vals, want)
    # the components-axis sum of the (N, dim) view reads as a row-major sum
    assert np.array_equal(f.space.pnorm(vals), f.space.pnorm(np.ascontiguousarray(vals)))


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


def full_array_theta(f, params, phi_form, pairs):
    """calibrate_theta written over whole count^2 arrays, as the reference."""
    X, Y = pairs[:, 0], pairs[:, 1]
    resid, local_scale = operator_residual(f, EquationKind.general_mixed(params), X, Y)
    rnorm = f.space.pnorm(resid)
    phi_unit = phi_form.instantiate(1.0).value(X, Y)
    uncovered = (phi_unit == 0.0) & ~(rnorm <= 1e-12 * local_scale)
    if np.any(uncovered):
        i = int(np.argmax(uncovered))
        return (
            f"control vanishes at (x, y) = ({X[i]:.6g}, {Y[i]:.6g}) where the "
            f"residual is {rnorm[i]:.6g}; no finite theta covers it"
        ), i
    covered = phi_unit > 0.0
    if not np.any(covered):
        return 0.0, None
    return 1.01 * float(np.max(rnorm[covered] / phi_unit[covered])), None


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("phi", [PhiForm(), PhiForm("sum", 0.5, 0.5)])
def test_calibrate_theta_matches_the_full_array_reference(dim, phi):
    # 181 rows of 181 pairs: 90 rows per block, so the last block is one row
    grid = GridSpec(-5.0, 5.0, 181)
    assert grid.count**2 > _BLOCK and grid.count % (_BLOCK // grid.count) != 0
    cfg = ExperimentConfig(
        codomain_dim=dim, noise=NoiseSpec("bounded_smooth", 0.01, 5), phi_form=phi, grid=grid
    )
    f = make_test_function(cfg)
    params = EquationParams(2)
    want, _ = full_array_theta(f, params, phi, grid.pairs())
    assert calibrate_theta(f, params, phi, grid) == want
    assert calibrate_theta(f, params, phi, grid.pairs()) == want


def test_calibrate_theta_names_the_first_uncovered_pair():
    """The x = 0 row, where a product control vanishes, lies past the first
    block; the error still names the pair the full-array scan finds first."""
    grid = GridSpec(-5.0, 5.0, 301)
    cfg = ExperimentConfig(
        noise=NoiseSpec("power_scaled", 0.01, 9),
        phi_form=PhiForm("product", 2.0, 2.0),
        grid=grid,
    )
    f = make_test_function(cfg)
    params = EquationParams(2)
    want, i = full_array_theta(f, params, cfg.phi_form, grid.pairs())
    assert i >= (_BLOCK // grid.count) * grid.count  # not in the first block
    for g in (grid, grid.pairs()):
        with pytest.raises(UnboundablePerturbationError) as exc:
            calibrate_theta(f, params, cfg.phi_form, g)
        assert str(exc.value) == want


def test_calibrate_theta_names_the_first_non_finite_residual():
    """The cubic overflows float64 on a +-1e300 grid: no numpy warning (the
    suite makes RuntimeWarning an error), an InvalidInputError naming the
    first non-finite pair and the grid."""
    cfg = ExperimentConfig(grid=GridSpec(-1e300, 1e300, 7))
    f = make_test_function(cfg)
    for g, where in ((cfg.grid, "grid -1e+300:1e+300:7"), (cfg.grid.pairs(), "the given pairs")):
        with pytest.raises(InvalidInputError) as exc:
            calibrate_theta(f, EquationParams(2), cfg.phi_form, g)
        assert "(x, y) = (-1e+300, -1e+300)" in str(exc.value)
        assert where in str(exc.value)


@pytest.mark.parametrize(
    "phi, grid, noise",
    [
        (PhiForm("sum", 4.0, 4.0), GridSpec(-1e80, 1e80, 7), NoiseSpec()),
        (
            PhiForm("product", 2.0, 2.0),
            GridSpec(-1e100, 1e100, 5),
            NoiseSpec("bounded_smooth", 0.01, 1),
        ),
    ],
)
def test_calibrate_theta_names_the_first_non_finite_control(phi, grid, noise):
    """The residual is finite but the unit control overflows float64: no
    numpy warning and no theta of 0, an InvalidInputError naming the control,
    the first such pair and the grid."""
    cfg = ExperimentConfig(noise=noise, phi_form=phi, grid=grid)
    f = make_test_function(cfg)
    lo = f"{grid.lo:g}"
    on_grid = f"grid {lo}:{grid.hi:g}:{grid.count}"
    for g, where in ((grid, on_grid), (grid.pairs(), "the given pairs")):
        with pytest.raises(InvalidInputError) as exc:
            calibrate_theta(f, EquationParams(2), phi, g)
        assert str(exc.value) == (
            f"control {phi.form}:{phi.r:g}:{phi.s:g} is inf at (x, y) = ({lo}, {lo}) "
            f"on {where}; no finite theta covers it"
        )


def calibration_peak_bytes(count):
    cfg = ExperimentConfig(
        codomain_dim=4,
        noise=NoiseSpec("bounded_smooth", 0.01, 0),
        grid=GridSpec(-5.0, 5.0, count),
    )
    f = make_test_function(cfg)
    tracemalloc.start()
    try:
        calibrate_theta(f, EquationParams(2), cfg.phi_form, cfg.grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_calibrate_theta_memory_does_not_grow_with_the_grid():
    assert calibration_peak_bytes(601) <= calibration_peak_bytes(201) + 2**20


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
    data = json.loads(json.dumps(to_json(report)))
    assert set(data) == {"rows", "theta_used", "directions", "diagnostics", "pass"}
    assert data["pass"] is True
    assert data["directions"] == [-1, -1, -1]
    assert len(data["rows"]) == 5
    assert set(data["rows"][0]) == {"x", "f", "A", "Q", "C", "residual", "bound", "margin"}
    assert isinstance(data["diagnostics"]["additive"], dict)
    json.dumps(data)  # must be serializable as-is


# --- serialization --------------------------------------------------------


# Hand-written serializers the reports had before to_json derived them from
# the dataclass fields; they pin the bytes to_json must keep producing.
def reference_diagnostics_json(d):
    return {
        "n_used": d.n_used,
        "last_step": d.last_step,
        "converged": d.converged,
    }


def reference_stability_json(report):
    diag = {
        name: d if isinstance(d, bool) else reference_diagnostics_json(d)
        for name, d in report.diagnostics.items()
    }
    return {
        "rows": [
            {
                "x": row.x,
                "f": list(row.f),
                "A": list(row.A),
                "Q": list(row.Q),
                "C": list(row.C),
                "residual": row.residual,
                "bound": row.bound,
                "margin": row.margin,
            }
            for row in report.rows
        ],
        "theta_used": report.theta_used,
        "directions": [int(d) for d in report.directions],
        "diagnostics": diag,
        "pass": report.passed,
    }


def reference_solution_json(report):
    return {
        "equation": report.equation,
        "k": report.k,
        "max_residual": report.max_residual,
        "argmax_point": list(report.argmax_point),
        "scale": report.scale,
        "pass": report.passed,
    }


@pytest.mark.parametrize("dim", [1, 3])
def test_to_json_writes_the_reference_report_bytes(dim):
    cfg = ExperimentConfig(
        codomain_dim=dim,
        noise=NoiseSpec("bounded_smooth", 0.01, 3),
        phi_form=PhiForm("product", 2.0, 2.0),
        grid=GridSpec(-4.0, 4.0, 21),
    )
    report = run_experiment(cfg)
    assert report.diagnostics["quadratic_bound_zero"] is True
    want = json.dumps(reference_stability_json(report), indent=2)
    assert json.dumps(to_json(report), indent=2) == want
    assert report_to_json(report) == want + "\n"
    for d in report.diagnostics.values():
        if not isinstance(d, bool):
            assert json.dumps(to_json(d), indent=2) == json.dumps(
                reference_diagnostics_json(d), indent=2
            )

    f = make_test_function(cfg)
    solution = verify_solution(f, EquationParams(cfg.k), cfg.grid, cfg.tol)
    assert json.dumps(to_json(solution), indent=2) == json.dumps(
        reference_solution_json(solution), indent=2
    )


# The CSV writer before rows were rendered from a template.
def _fmt(v) -> str:
    return format(float(v), ".17g")


def _cell(value) -> str:
    if isinstance(value, tuple):
        return ";".join(_fmt(v) for v in value)
    return _fmt(value)


def reference_csv(report):
    lines = [CSV_HEADER]
    lines.extend(
        ",".join(_cell(getattr(row, name)) for name in CSV_HEADER.split(","))
        for row in report.rows
    )
    return "\n".join(lines) + "\n"


EDGE_FLOATS = (
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
)
leaves = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(-(10**30), 10**30),
)


@st.composite
def reports(draw):
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[leaves] * dim)
    row = st.builds(ReportRow, leaves, *[vector] * 4, leaves, leaves, leaves)
    rows = draw(st.lists(row, max_size=4))
    last_step = st.sampled_from((0.0, 1e-17, float("inf")))
    diag = st.builds(ConvergenceDiagnostics, st.integers(0, 60), last_step, st.booleans())
    return StabilityReport(
        rows=rows,
        theta_used=draw(leaves),
        directions=draw(st.tuples(*[st.sampled_from(Direction)] * 3)),
        diagnostics={
            **{name: draw(diag) for name in ("additive", "quadratic", "cubic")},
            "quadratic_bound_zero": draw(st.booleans()),
        },
        passed=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(reports())
@example(  # no rows; last_step inf
    StabilityReport([], 0.5, (1, -1, 1), {"cubic": ConvergenceDiagnostics(3, np.inf, False)}, True)
)
def test_emitted_reports_equal_the_reference_writers(report):
    assert emit_report(report, "json") == json.dumps(to_json(report), indent=2) + "\n"
    assert emit_report(report, "csv") == reference_csv(report)


@pytest.mark.parametrize("format", ["csv", "json"])
def test_rows_of_unequal_dimension_raise(format):
    report = run_experiment(ExperimentConfig(codomain_dim=2, grid=GridSpec(-2.0, 2.0, 5)))
    rows = report.rows
    rows[3] = replace(rows[3], f=rows[3].f[:1])
    ragged = "report row 3 has a vector of dimension 1, row 0 has dimension 2"
    with pytest.raises(InvalidInputError, match=ragged):
        emit_report(report, format)
    rows[1] = replace(rows[1], C=rows[1].C + (0.0,))  # an earlier ragged row is named first
    with pytest.raises(InvalidInputError, match="report row 1 has a vector of dimension 3"):
        emit_report(report, format)
    rows[0] = replace(rows[0], A=rows[0].A[:1])  # row 0's vectors are checked against its f
    with pytest.raises(InvalidInputError, match="report row 0 has a vector of dimension 1"):
        emit_report(report, format)


def test_csv_header_and_shape():
    report = run_experiment(ExperimentConfig(grid=GridSpec(-2.0, 2.0, 5)))
    lines = report_to_csv(report).splitlines()
    assert lines[0] == CSV_HEADER == "x,f,A,Q,C,residual,bound,margin"
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


def test_emit_report_formats():
    report = run_experiment(ExperimentConfig(grid=GridSpec(-2.0, 2.0, 5)))
    csv_text = emit_report(report, "csv")
    assert csv_text == report_to_csv(report)
    assert csv_text.startswith(CSV_HEADER)
    json_text = emit_report(report, "json")
    assert json_text == report_to_json(report)
    assert json.loads(json_text)["pass"] is True
    with pytest.raises(InvalidInputError):
        emit_report(report, "yaml")

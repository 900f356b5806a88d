"""End-to-end command line checks through click's test runner."""

import json

import pytest
from click.testing import CliRunner

from stabeq import (
    CSV_HEADER,
    ExperimentConfig,
    GridSpec,
    NoiseSpec,
    emit_report,
    run_experiment,
    to_json,
)
from stabeq.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def test_help_lists_subcommands(runner):
    result = invoke(runner, "--help")
    assert result.exit_code == 0
    for name in ("check", "decompose", "bounds", "experiment"):
        assert name in result.output


# --- check ----------------------------------------------------------------


def test_check_exact_polynomial_passes(runner):
    result = invoke(runner, "check", "--grid", "-3:3:11")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pass"] is True
    assert payload["k"] == 2
    assert payload["max_residual"] < 1e-9 * payload["scale"]


def test_check_noisy_function_fails(runner):
    result = invoke(
        runner, "check", "--noise", "bounded_smooth:0.01:42", "--grid", "-3:3:11"
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["pass"] is False


def test_check_rejects_degenerate_k(runner):
    result = invoke(runner, "check", "--k", "1")
    assert result.exit_code == 2


# --- decompose ------------------------------------------------------------


def test_decompose_exact_polynomial(runner):
    result = invoke(runner, "decompose", "--grid", "-2:2:5")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["x"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert payload["A"][4][0] == pytest.approx(2.0, abs=1e-9)
    assert payload["Q"][4][0] == pytest.approx(4.0, abs=1e-9)
    assert payload["C"][4][0] == pytest.approx(8.0, abs=1e-9)
    assert payload["directions"] == [-1, -1, -1]
    assert all(d["converged"] for d in payload["diagnostics"].values())


def test_decompose_iteration_cap_reports_failure(runner):
    result = invoke(
        runner,
        "decompose",
        "--noise",
        "bounded_smooth:0.01:42",
        "--grid",
        "-3:3:7",
        "--max-n",
        "2",
    )
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert not all(d["converged"] for d in payload["diagnostics"].values())


# --- bounds ---------------------------------------------------------------


def test_bounds_table_sum_control(runner):
    result = invoke(runner, "bounds", "--phi", "sum:4:4", "--grid", "0:2:3")
    assert result.exit_code == 0
    table = json.loads(result.output)
    assert table["j"] == [1, 1, 1]
    assert "alpha_additive" in table["constants"]
    assert "beta_cubic" in table["constants"]
    assert len(table["per_x"]) == 3


def test_bounds_critical_exponent_exits_2(runner):
    # Every subcommand that reads the directions names the first critical
    # series in slot order (e, a, c), the control's exponents in it and the
    # critical value, in one message.
    for phi, series, exponents, critical in (
        ("sum:1:0", "a", "1", 1),
        ("sum:0.5:2", "e", "2", 2),  # psi_a's exponents (0.5, 2) straddle 1 too
        ("sum:0:2", "e", "2", 2),
    ):
        for command in ("experiment", "decompose", "bounds"):
            result = invoke(runner, command, "--phi", phi)
            assert result.exit_code == 2, command
            assert result.stderr == (
                f"error: series psi_{series} has no convergent direction: the control's "
                f"exponents ({exponents}) equal or straddle its critical value {critical}\n"
            ), command


def test_bounds_closed_constant_with_a_zero_denominator_exits_2(runner):
    # psi_a converges (EXPAND), but at p = 0.75 alpha_additive's denominator
    # (2^1)^p - 2^(r p) rounds to 0.
    result = invoke(runner, "bounds", "--p", "0.75", "--phi", "sum:0.9999999999999999:0")
    assert result.exit_code == 2
    assert result.stderr == (
        "error: the closed constant of series psi_a divides by 0: at p = 0.75 the "
        "control's exponent 0.9999999999999999 is within rounding of its critical value 1\n"
    )


# --- experiment -----------------------------------------------------------


def test_experiment_csv_to_stdout(runner):
    args = (
        "experiment",
        "--noise",
        "bounded_smooth:0.01:42",
        "--grid",
        "-4:4:9",
        "--format",
        "csv",
    )
    first = invoke(runner, *args)
    assert first.exit_code == 0
    lines = first.output.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    second = invoke(runner, *args)
    assert second.output == first.output


def test_experiment_json_passes(runner):
    result = invoke(
        runner, "experiment", "--noise", "bounded_smooth:0.01:42", "--grid", "-4:4:9"
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pass"] is True
    assert payload["theta_used"] > 0


def test_experiment_out_writes_file(runner, tmp_path):
    out = tmp_path / "report.csv"
    result = invoke(
        runner,
        "experiment",
        "--grid",
        "-2:2:5",
        "--format",
        "csv",
        "--out",
        str(out),
    )
    assert result.exit_code == 0
    assert result.output == ""
    assert out.read_text().startswith(CSV_HEADER)


def test_experiment_unwritable_out_exits_1(runner, tmp_path):
    out = tmp_path / "missing" / "r.csv"
    result = invoke(runner, "experiment", "--grid", "-2:2:5", "--out", str(out))
    assert result.exit_code == 1
    assert "error:" in result.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("max_n, code", [(40, 0), (2, 1)])
def test_experiment_prints_emit_report(runner, fmt, dim, max_n, code):
    # max_n 2 leaves the noisy limits unconverged: the report fails, exit 1.
    cfg = ExperimentConfig(
        codomain_dim=dim,
        noise=NoiseSpec("bounded_smooth", 0.01, 42),
        grid=GridSpec(-3.0, 3.0, 7),
        max_n=max_n,
    )
    result = invoke(
        runner, "experiment", "--dim", str(dim), "--noise", "bounded_smooth:0.01:42",
        "--grid=-3:3:7", "--max-n", str(max_n), "--format", fmt,
    )
    assert result.exit_code == code, result.stderr
    assert result.stdout == emit_report(run_experiment(cfg), fmt)


def test_probe_points_do_not_fail_a_converged_report(runner):
    # Every grid point converges within 14 doublings and every margin is
    # positive; only points the report never audits could fail it.
    result = invoke(
        runner,
        "experiment",
        "--noise",
        "bounded_smooth:0.01:1",
        "--grid=-20:20:41",
        "--max-n",
        "14",
    )
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.output)
    assert payload["pass"] is True
    assert min(row["margin"] for row in payload["rows"]) > 0.1


def test_experiment_config_overrides_flags(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "noise": {"kind": "bounded_smooth", "amplitude": 0.01, "seed": 42},
                "grid": {"min": -5.0, "max": 5.0, "count": 101},
            }
        )
    )
    result = invoke(runner, "experiment", "--grid", "-1:1:3", "--config", str(cfg))
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["theta_used"] == pytest.approx(0.1615980603378142, rel=1e-14)
    assert len(payload["rows"]) == 101


@pytest.mark.parametrize(
    "flag,message",
    [
        (("--k", "1"), "k must satisfy |k| >= 2, got 1"),
        (("--p", "0"), "p must satisfy 0 < p <= 1, got 0.0"),
        (("--dim", "0"), "dim must be >= 1, got 0"),
    ],
)
def test_out_of_range_flags_exit_2_before_the_config_is_read(runner, tmp_path, flag, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(to_json(ExperimentConfig())))
    result = invoke(runner, "experiment", *flag, "--grid=-1:1:3", "--config", str(cfg))
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("where", ["flag", "config", "grid"])
def test_integers_past_float64_exit_2_naming_the_field(runner, tmp_path, where):
    big = str(10**400)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"k": {big}}}')
    args = {"flag": ("--k", big), "config": ("--config", str(cfg)), "grid": (f"--grid=-1:1:{big}",)}
    result = invoke(runner, "experiment", *args[where])
    assert result.exit_code == 2
    field = "grid count" if where == "grid" else "k"
    assert f"{field} must be finite in float64, got {big}" in result.stderr


@pytest.mark.parametrize("command", ["experiment", "check"])
@pytest.mark.parametrize("count", [10**18, 10**20])
def test_a_grid_count_past_memory_exits_2_naming_it(runner, command, count):
    # 10**18 points (6.94 EiB) exceed any 64-bit address space and 10**20
    # fails numpy's size check, so neither allocates anything.
    result = invoke(runner, command, f"--grid=-1:1:{count}")
    assert result.exit_code == 2
    assert result.stderr == f"error: grid count {count} does not fit in memory\n"


def test_config_written_by_to_json_loads_at_dim_4(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(to_json(ExperimentConfig(codomain_dim=4))))
    result = invoke(runner, "experiment", "--grid=-1:1:5", "--config", str(cfg))
    assert result.exit_code == 0, result.stderr
    assert len(json.loads(result.output)["rows"][0]["f"]) == 4


@pytest.mark.parametrize(
    "phi, max_n, code, n_used",
    [("sum:2:2.5", None, 0, 31), ("sum:2.1:2.1", None, 0, 39), ("sum:2:2.5", "30", 1, 30)],
)
def test_max_n_caps_the_quadratic_limit_too(runner, phi, max_n, code, n_used):
    # At k = 2 under these controls Q needs more than 30 levels, and the
    # default cap of 48 covers them; a cap of 30 leaves Q unconverged.
    args = ("experiment", "--k", "2", "--p", "1", "--phi", phi, "--noise", "power_scaled:0.01:3", "--grid=-5:5:21")
    result = invoke(runner, *args, *(("--max-n", max_n) if max_n else ()))
    assert result.exit_code == code, result.stderr
    quadratic = json.loads(result.output)["diagnostics"]["quadratic"]
    assert (quadratic["n_used"], quadratic["converged"]) == (n_used, code == 0)


def test_decompose_and_experiment_share_the_quadratic_cap(runner):
    shape = ("--k", "3", "--p", "0.5", "--phi", "sum:4:4", "--noise", "power_scaled:0.01:0", "--max-n", "5")
    dec = json.loads(invoke(runner, "decompose", *shape).output)["diagnostics"]
    exp = json.loads(invoke(runner, "experiment", *shape).output)["diagnostics"]
    assert dec["quadratic"]["n_used"] == exp["quadratic"]["n_used"] == 5


@pytest.mark.parametrize(
    "overrides",
    [
        {"max-n": 1},
        {"grid": {"cnt": 3}},
        {"grid": {"count": 5.9}},
        {"k": 2.7},
        {"max_n": True},
        {"poly": [["a"], 1, 1]},
        {"poly": [[1, 2], 1, 1]},
        {"p": "0.5"},
        {"tol": True},
        {"p": 10**400},
        {"poly": ["1", 1, 1]},
        {"noise": {"seed": -1}},
    ],
)
def test_config_unknown_key_exits_2(runner, tmp_path, overrides):
    """Unknown keys, non-integral int fields, non-number float fields and
    malformed poly entries exit 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    result = invoke(runner, "experiment", "--grid", "-1:1:3", "--config", str(cfg))
    assert result.exit_code == 2
    assert any(
        what in result.stderr
        for what in ("unknown key", "expected an integer", "expected a number", "too large", "poly", "seed")
    )


def test_config_holding_malformed_json_exits_2_naming_the_file(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"k": 3,')
    result = invoke(runner, "experiment", "--grid", "-1:1:3", "--config", str(cfg))
    assert result.exit_code == 2
    assert f"--config {cfg}:" in result.stderr


def test_huge_k_writes_a_finite_report_without_warnings(runner):
    # The suite turns RuntimeWarning into an error, so a numpy overflow
    # warning in the bound series would fail this test.
    result = invoke(
        runner, "experiment", "--k", "100000000000", "--grid", "-1:1:5", "--format", "json"
    )
    assert result.exit_code == 0, result.stderr
    assert result.stderr == ""
    rows = json.loads(result.output)["rows"]
    assert len(rows) == 5
    assert all(0.0 < row["bound"] < float("inf") for row in rows)


def test_bound_series_overflowing_at_its_first_term_exits_2(runner):
    result = invoke(runner, "bounds", "--phi", "sum:4:4", "--grid=-1e200:1e200:3")
    assert result.exit_code == 2
    assert "k = 2" in result.stderr
    # Each series is finite at 1e100 here, but the bound psi^(1/p) is not.
    result = invoke(
        runner, "bounds", "--k", "3", "--p", "0.5", "--phi", "sum:4:4", "--grid=-1e100:1e100:3"
    )
    assert result.exit_code == 2
    assert result.stderr == "error: full bound overflows at x = -1e+100\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (("bounds", "--p", "0.0078"), "full bound overflows at x = -5.0"),
        (("bounds", "--p", "0.0077"), "the modulus power M^8 overflows float64 at p = 0.0077"),
        (("bounds", "--p", "0.005"), "the modulus power M^8 overflows float64 at p = 0.005"),
        (("bounds", "--p", "1e-300"), "the modulus M = 2^(1/p - 1) overflows float64 at p = 1e-300"),
        (("experiment", "--p", "0.0078"), "full bound overflows at x = -5.0"),
        (("experiment", "--p", "0.0077", "--grid=-1:1:5"), "the modulus power M^8 overflows float64 at p = 0.0077"),
        (("experiment", "--p", "0.005", "--grid=-1:1:5"), "the modulus power M^8 overflows float64 at p = 0.005"),
        (("experiment", "--p", "1e-300", "--grid=-1:1:5"), "the modulus M = 2^(1/p - 1) overflows float64 at p = 1e-300"),
        (
            ("bounds", "--p", "0.0078", "--phi", "sum:4:4", "--grid=0:1e-300:2"),
            "the closed constant of series psi_a overflows float64 at p = 0.0078",
        ),
    ],
)
def test_a_small_p_exits_2_in_one_line(runner, args, message):
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_overflowing_grid_exits_2_naming_the_pair_without_warnings(runner):
    result = invoke(runner, "experiment", "--grid=-1e300:1e300:7", "--format", "json")
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "(-1e+300, -1e+300)" in lines[0] and "RuntimeWarning" not in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("--grid=-1e80:1e80:7", "--phi", "sum:4:4"),
        ("--grid=-1e100:1e100:5", "--phi", "product:2:2", "--noise", "bounded_smooth:0.01:1"),
    ],
)
def test_overflowing_control_exits_2_naming_it_without_warnings(runner, args):
    """A control that overflows on the grid would calibrate theta = 0."""
    result = invoke(runner, "experiment", *args, "--format", "json")
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: control ")
    assert "RuntimeWarning" not in result.stderr


def test_check_on_an_overflowing_grid_fails_without_warnings(runner):
    result = invoke(runner, "check", "--grid=-1e300:1e300:7")
    assert result.exit_code == 1
    assert result.stderr == ""
    assert json.loads(result.stdout)["pass"] is False


def test_experiment_unboundable_perturbation_exits_1(runner):
    result = invoke(
        runner,
        "experiment",
        "--noise",
        "power_scaled:0.01:9",
        "--phi",
        "product:2:2",
    )
    assert result.exit_code == 1
    assert "error:" in result.stderr


# --- flag validation ------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--poly", "1,2"),
        ("check", "--noise", "bounded_smooth:0.01"),
        ("check", "--noise", "pink:0.1:0"),
        ("check", "--phi", "sum:4"),
        ("check", "--grid", "0:5"),
        ("experiment", "--grid", "5:0:11"),
        ("experiment", "--noise", "bounded_smooth:nan:1"),
        ("experiment", "--tol", "nan"),
        ("check", "--phi", "sum:nan:1"),
        ("check", "--grid", "-5:inf:11"),
        ("check", "--format", "csv"),
        ("bounds", "--tol", "5"),
        ("bounds", "--dim", "3"),
        ("check", "--max-n", "1"),
        ("check", "--poly", "inf,0,0", "--grid", "-1:1:3"),
        ("decompose", "--poly", "inf,0,0", "--grid", "-1:1:3"),
        ("check", "--poly", "nan,1,1"),
        ("experiment", "--noise", "bounded_smooth:0.01:-1", "--grid=-1:1:5"),
        ("check", "--noise", "bounded_smooth:0.01:-3"),
    ],
)
def test_malformed_flags_exit_2(runner, args):
    result = invoke(runner, *args)
    assert result.exit_code == 2

"""Command line front end.

Exit codes: 0 on pass, 1 when a bound is violated, a perturbation is
uncoverable, an iteration fails to converge, or output cannot be written;
2 on invalid input (bad flags, bad config, degenerate parameters, critical
exponents).
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .approximants import DEFAULT_MAX_N, DEFAULT_TOL
from .bounds import BoundContext, bound_table
from .equations import EquationParams, to_json, verify_solution
from .errors import CriticalExponentError, InvalidInputError, UnboundablePerturbationError
from .harness import (
    ExperimentConfig,
    GridSpec,
    NoiseSpec,
    PhiForm,
    decompose as decompose_stage,
    emit_report,
    make_test_function,
    run_experiment,
)
from .quasinorm import PNormSpace


def _triple(usage: str, build, sep: str = ":"):
    """click callback: build(*parts) from a value of exactly three sep-joined parts."""

    def callback(ctx, param, text):
        parts = text.split(sep)
        if len(parts) != 3:
            raise click.BadParameter(f"expects {usage}")
        try:
            return build(*parts)
        except ValueError as exc:  # InvalidInputError included
            raise click.BadParameter(str(exc)) from None

    return callback


# Every flag, named by the ExperimentConfig field it sets (--out and
# --config excepted); the triple flags parse into their config objects.
_FLAGS = {
    "k": click.option("--k", type=int, default=2, show_default=True, help="Equation parameter k (|k| >= 2)."),
    "p": click.option("--p", type=float, default=1.0, show_default=True, help="Codomain norm exponent, 0 < p <= 1."),
    "dim": click.option("--dim", "codomain_dim", type=int, default=1, show_default=True, help="Codomain dimension."),
    "poly": click.option("--poly", default="1,1,1", show_default=True, help="Coefficients a3,a2,a1.",
                         callback=_triple("a3,a2,a1", lambda *c: tuple(map(float, c)), sep=",")),
    "noise": click.option("--noise", default="none:0:0", show_default=True, help="Perturbation kind:eps:seed.",
                          callback=_triple("kind:eps:seed", lambda kind, eps, seed: NoiseSpec(kind, float(eps), int(seed)))),
    "phi": click.option("--phi", "phi_form", default="constant:0:0", show_default=True, help="Control form:r:s.",
                        callback=_triple("form:r:s", lambda form, r, s: PhiForm(form, float(r), float(s)))),
    "grid": click.option("--grid", default="-5:5:101", show_default=True, help="Grid min:max:count.",
                         callback=_triple("min:max:count", lambda lo, hi, n: GridSpec(float(lo), float(hi), int(n)))),
    "tol": click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True, help="Tolerance (iteration stop / residual check)."),
    "max_n": click.option("--max-n", type=int, default=DEFAULT_MAX_N, show_default=True, help="Iteration cap of every component."),
    "out": click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output here instead of stdout."),
    "config": click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config overriding the flags; unknown keys are rejected."),
}
_CONFIG_FLAGS = ("k", "p", "dim", "poly", "noise", "phi", "grid", "tol", "max_n")


def options(*names):
    """The named flags plus --out and --config: each subcommand takes only the flags it reads."""

    def decorate(fn):
        for name in reversed(names + ("out", "config")):
            fn = _FLAGS[name](fn)
        return fn

    return decorate


def _build_config(config_path, **fields) -> ExperimentConfig:
    cfg = ExperimentConfig(**fields)
    if config_path is not None:
        with open(config_path) as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:
                raise InvalidInputError(f"--config {config_path}: {exc}") from None
        cfg = ExperimentConfig.from_json(overrides, base=cfg)
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InvalidInputError, CriticalExponentError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (UnboundablePerturbationError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main() -> None:
    """Stability certificates for the mixed cubic-quadratic-additive equation."""


@main.command()
@options("k", "p", "dim", "poly", "noise", "phi", "grid", "tol")
@handles_errors
def check(out, **flags):
    """Verify a candidate map against the equation residual on a grid."""
    cfg = _build_config(**flags)
    f = make_test_function(cfg)
    report = verify_solution(f, EquationParams(cfg.k), cfg.grid, cfg.tol)
    _emit(json.dumps(to_json(report), indent=2), out)
    sys.exit(0 if report.passed else 1)


@main.command()
@options(*_CONFIG_FLAGS)
@handles_errors
def decompose(out, **flags):
    """Recover additive, quadratic and cubic components on the grid."""
    cfg = _build_config(**flags)
    dec = decompose_stage(cfg, make_test_function(cfg))
    xs = cfg.grid.points()
    A, Q, C = dec.components_at(xs)
    payload = {
        "x": xs,
        "A": A,
        "Q": Q,
        "C": C,
        "offsets": dec.offsets,
        "directions": dec.directions,
        "diagnostics": dec.diagnostics,
    }
    _emit(json.dumps(to_json(payload), indent=2), out)
    converged = all(d.converged for d in dec.diagnostics.values())
    sys.exit(0 if converged else 1)


@main.command()
@options("k", "p", "phi", "grid")
@handles_errors
def bounds(out, **flags):
    """Tabulate closed-form constants and per-point full bounds (theta = 1)."""
    cfg = _build_config(**flags)
    ctx = BoundContext(
        EquationParams(cfg.k), PNormSpace(cfg.codomain_dim, cfg.p), cfg.phi_form.instantiate(1.0)
    )
    table = bound_table(ctx, cfg.grid.points())
    _emit(json.dumps(table, indent=2), out)
    sys.exit(0)


@main.command()
@options(*_CONFIG_FLAGS)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True, help="Report format.")
@handles_errors
def experiment(fmt, out, **flags):
    """Run the calibrate-decompose-audit pipeline and emit the report."""
    cfg = _build_config(**flags)
    report = run_experiment(cfg)
    _emit(emit_report(report, fmt), out)
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()

"""Command line front end.

Exit codes: 0 on pass, 1 when a bound is violated, a series diverges, a
perturbation is uncoverable, an iteration fails to converge, or output
cannot be written; 2 on invalid input (bad flags, bad config, degenerate
parameters, critical exponents).
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from .approximants import DEFAULT_MAX_N, DEFAULT_TOL, IterationControl, decompose_full
from .bounds import BoundContext, bound_table, select_directions
from .equations import EquationParams, verify_solution
from .errors import (
    CriticalExponentError,
    DivergentSeriesError,
    InvalidInputError,
    UnboundablePerturbationError,
)
from .harness import (
    ExperimentConfig,
    GridSpec,
    NoiseSpec,
    PhiForm,
    emit_report,
    make_test_function,
    run_experiment,
)
from .quasinorm import PNormSpace


def _parse_triple(text: str, flag: str, usage: str, build, sep: str = ":"):
    """build(*parts) for a flag value of exactly three sep-joined parts."""
    parts = text.split(sep)
    if len(parts) != 3:
        raise click.BadParameter(f"{flag} expects {usage}")
    try:
        return build(*parts)
    except ValueError as exc:  # InvalidInputError included
        raise click.BadParameter(f"{flag}: {exc}") from None


def common_options(fn):
    opts = [
        click.option("--k", type=int, default=2, show_default=True, help="Equation parameter k (|k| >= 2)."),
        click.option("--p", type=float, default=1.0, show_default=True, help="Codomain norm exponent, 0 < p <= 1."),
        click.option("--dim", type=int, default=1, show_default=True, help="Codomain dimension."),
        click.option("--poly", default="1,1,1", show_default=True, help="Coefficients a3,a2,a1."),
        click.option("--noise", default="none:0:0", show_default=True, help="Perturbation kind:eps:seed."),
        click.option("--phi", default="constant:0:0", show_default=True, help="Control form:r:s."),
        click.option("--grid", default="-5:5:101", show_default=True, help="Grid min:max:count."),
        click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True, help="Tolerance (iteration stop / residual check)."),
        click.option("--max-n", type=int, default=DEFAULT_MAX_N, show_default=True, help="Iteration cap."),
        click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output here instead of stdout."),
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config overriding the flags; unknown keys are rejected."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _build_config(k, p, dim, poly, noise, phi, grid, tol, max_n, config_path) -> ExperimentConfig:
    cfg = ExperimentConfig(
        k=k,
        p=p,
        codomain_dim=dim,
        poly=_parse_triple(poly, "--poly", "a3,a2,a1", lambda *c: tuple(map(float, c)), sep=","),
        noise=_parse_triple(
            noise, "--noise", "kind:eps:seed", lambda kind, eps, seed: NoiseSpec(kind, float(eps), int(seed))
        ),
        phi_form=_parse_triple(phi, "--phi", "form:r:s", lambda form, r, s: PhiForm(form, float(r), float(s))),
        grid=_parse_triple(grid, "--grid", "min:max:count", lambda lo, hi, n: GridSpec(float(lo), float(hi), int(n))),
        tol=tol,
        max_n=max_n,
    )
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
        except (DivergentSeriesError, UnboundablePerturbationError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main() -> None:
    """Stability certificates for the mixed cubic-quadratic-additive equation."""


@main.command()
@common_options
@handles_errors
def check(out, **flags):
    """Verify a candidate map against the equation residual on a grid."""
    cfg = _build_config(**flags)
    f = make_test_function(cfg)
    report = verify_solution(f, EquationParams(cfg.k), cfg.grid.pairs(), cfg.tol)
    _emit(report.dumps(), out)
    sys.exit(0 if report.passed else 1)


@main.command()
@common_options
@handles_errors
def decompose(out, **flags):
    """Recover additive, quadratic and cubic components on the grid."""
    cfg = _build_config(**flags)
    f = make_test_function(cfg)
    directions = select_directions(cfg.phi_form.instantiate(1.0))
    ctrl = IterationControl(tol=cfg.tol, max_n=cfg.max_n)
    dec = decompose_full(f, EquationParams(cfg.k), directions, ctrl)
    xs = cfg.grid.points()
    payload = {
        "x": [float(v) for v in xs],
        "A": np.asarray(dec.A(xs)).tolist(),
        "Q": np.asarray(dec.Q(xs)).tolist(),
        "C": np.asarray(dec.C(xs)).tolist(),
        "offsets": dec.offsets.tolist(),
        "directions": [int(d) for d in dec.directions],
        "diagnostics": {name: d.to_json() for name, d in dec.diagnostics.items()},
    }
    _emit(json.dumps(payload, indent=2), out)
    converged = all(d.converged for d in dec.diagnostics.values())
    sys.exit(0 if converged else 1)


@main.command()
@common_options
@handles_errors
def bounds(out, **flags):
    """Tabulate closed-form constants and per-point full bounds (theta = 1)."""
    cfg = _build_config(**flags)
    ctx = BoundContext.create(
        EquationParams(cfg.k),
        PNormSpace(cfg.codomain_dim, cfg.p),
        cfg.phi_form.instantiate(1.0),
    )
    table = bound_table(ctx, cfg.grid.points())
    _emit(json.dumps(table, indent=2), out)
    sys.exit(0)


@main.command()
@common_options
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

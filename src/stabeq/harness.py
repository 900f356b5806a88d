"""Experiment harness: perturbed test functions, calibration, reports.

The pipeline builds a cubic+quadratic+additive polynomial with a seeded
perturbation, calibrates the smallest power control dominating the measured
residual on a grid, decomposes the function, and checks the recovered
components against the full stability bound pointwise.  Reports serialize to
CSV (fixed column set, 17 significant digits) and JSON; identical configs
produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from .approximants import (
    DEFAULT_MAX_N,
    DEFAULT_TOL,
    ConvergenceDiagnostics,
    Direction,
    IterationControl,
    decompose_full,
)
from .bounds import BoundContext, BoundKind, PowerBound, select_directions, stability_bound
from .equations import EquationParams, FunctionHandle, _operator_terms
from .errors import InvalidInputError, UnboundablePerturbationError
from .quasinorm import PNormSpace

_NOISE_KINDS = ("none", "bounded_smooth", "power_scaled")

# Residuals below this fraction of the local evaluation scale are treated as
# rounding dust during calibration, not as perturbation signal.
_ZERO_RESIDUAL_REL = 1e-12

# Calibration safety factor on the measured residual/control ratio.
_THETA_SAFETY = 1.01

_OMEGA_RANGE = (0.5, 2.5)


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation recipe added to each polynomial component.

    bounded_smooth: eps * sin(omega x), omega ~ U[0.5, 2.5) from seed (odd,
    bounded).  power_scaled: eps * |x|^lambda cos(omega x) with lambda taken
    from the control exponents (max(r, s) for sum, r+s for product); at
    lambda = 0 this degrades to eps (cos(omega x) - 1), which has an even
    component on purpose.
    """

    kind: str = "none"
    amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _NOISE_KINDS:
            raise InvalidInputError(f"unknown noise kind {self.kind!r}")
        if not (0.0 <= self.amplitude < np.inf):
            raise InvalidInputError(
                f"noise amplitude must be finite and >= 0, got {self.amplitude!r}"
            )


@dataclass(frozen=True)
class PhiForm:
    """Control family with the amplitude left open for calibration."""

    form: str = "constant"
    r: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        self.instantiate(0.0)  # reuse PowerBound validation

    def instantiate(self, theta: float) -> PowerBound:
        return PowerBound(form=self.form, theta=theta, r=self.r, s=self.s)

    def power_scale(self) -> float:
        """The lambda used by power_scaled noise."""
        if self.form == "product":
            return self.r + self.s
        if self.form == "sum":
            return max(self.r, self.s)
        return 0.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-D grid; calibration uses its Cartesian square."""

    lo: float = field(default=-5.0, metadata={"json": "min"})
    hi: float = field(default=5.0, metadata={"json": "max"})
    count: int = 101

    def __post_init__(self) -> None:
        if not (self.count >= 2 and -np.inf < self.lo < self.hi < np.inf):
            raise InvalidInputError("grid needs finite lo < hi and count >= 2")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)

    def pairs(self) -> np.ndarray:
        pts = self.points()
        X, Y = np.meshgrid(pts, pts, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


@dataclass(frozen=True)
class ExperimentConfig:
    k: int = 2
    p: float = 1.0
    codomain_dim: int = 1
    poly: tuple = (1.0, 1.0, 1.0)  # (a3, a2, a1), scalars or per-component tuples
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    phi_form: PhiForm = field(default_factory=PhiForm)
    grid: GridSpec = field(default_factory=GridSpec)
    tol: float = DEFAULT_TOL
    max_n: int = DEFAULT_MAX_N

    def __post_init__(self) -> None:
        if len(self.poly) != 3:
            raise InvalidInputError("poly must be (a3, a2, a1)")
        if not (0.0 <= self.tol < np.inf):
            raise InvalidInputError(f"tol must be finite and >= 0, got {self.tol!r}")
        if self.max_n < 1:
            raise InvalidInputError("max_n must be >= 1")

    def to_json(self) -> dict:
        return _config_to_json(self)

    @classmethod
    def from_json(
        cls, data: dict, base: ExperimentConfig | None = None
    ) -> ExperimentConfig:
        """Merge a JSON config onto base (default ExperimentConfig()).

        Nested objects merge field by field; unknown keys at any level raise
        InvalidInputError.
        """
        return _config_from_json(cls() if base is None else base, data, "config")


# The JSON schema is the dataclass fields: a field's key is its name unless
# its metadata names another, nested dataclasses are nested objects, scalars
# convert by their declared type, and poly is a list of per-component
# coefficient lists.
_SCALAR_TYPES = {"int": int, "float": float, "str": str}


def _json_key(f) -> str:
    return f.metadata.get("json", f.name)


def _config_to_json(obj) -> dict:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _config_to_json(value)
        elif f.name == "poly":
            value = [np.atleast_1d(np.asarray(c, dtype=float)).tolist() for c in value]
        out[_json_key(f)] = value
    return out


def _config_from_json(base, data, where: str):
    if not isinstance(data, dict):
        raise InvalidInputError(f"{where} must be a JSON object")
    schema = {_json_key(f): f for f in fields(base)}
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise InvalidInputError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    changes = {}
    for key, raw in data.items():
        f = schema[key]
        current = getattr(base, f.name)
        if is_dataclass(current):
            changes[f.name] = _config_from_json(current, raw, f"{where}.{key}")
            continue
        try:
            if f.name == "poly":
                changes[f.name] = tuple(
                    tuple(c) if isinstance(c, (list, tuple)) else float(c) for c in raw
                )
            else:
                changes[f.name] = _SCALAR_TYPES[f.type](raw)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{where}.{key}: {exc}") from None
    return replace(base, **changes)


def make_test_function(cfg: ExperimentConfig) -> FunctionHandle:
    """Polynomial-plus-perturbation test map for one experiment config.

    Every piece vanishes at 0, and the perturbation frequencies are drawn
    once from default_rng(seed), so the map is a pure function of the config.
    """
    space = PNormSpace(cfg.codomain_dim, cfg.p)
    a3, a2, a1 = (
        np.broadcast_to(np.asarray(c, dtype=float), (space.dim,)).copy()
        for c in cfg.poly
    )
    noise = cfg.noise
    eps = noise.amplitude
    if noise.kind != "none" and eps > 0:
        rng = np.random.default_rng(noise.seed)
        omega = rng.uniform(*_OMEGA_RANGE, space.dim)
    else:
        omega = np.zeros(space.dim)
    lam = cfg.phi_form.power_scale()
    kind = noise.kind if eps > 0 else "none"

    def fn(xs: np.ndarray) -> np.ndarray:
        x = xs[:, None]
        out = ((a3 * x + a2) * x + a1) * x
        if kind == "bounded_smooth":
            out = out + eps * np.sin(omega * x)
        elif kind == "power_scaled":
            if lam == 0.0:
                out = out + eps * (np.cos(omega * x) - 1.0)
            else:
                out = out + eps * np.abs(x) ** lam * np.cos(omega * x)
        return out

    return FunctionHandle(fn, space)


def calibrate_theta(
    f: FunctionHandle,
    params: EquationParams,
    phi_form: PhiForm,
    grid: GridSpec | Sequence = GridSpec(),
) -> float:
    """Smallest theta (times a 1.01 safety factor) covering the grid residual.

    theta = 1.01 * max pnorm(D_f(x,y)) / phi_unit(x,y) over grid points where
    the unit control is positive.  Points where phi_unit = 0 must have a
    residual at rounding-dust level (<= 1e-12 of the local evaluation scale);
    a genuine residual there raises UnboundablePerturbationError, since no
    amplitude makes the control cover it.  The result certifies domination on
    the grid only, not off it.
    """
    pts = grid.pairs() if isinstance(grid, GridSpec) else np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise InvalidInputError("calibration grid must be a nonempty array of pairs")
    X, Y = pts[:, 0], pts[:, 1]
    vals, coeffs = _operator_terms(f, params, X, Y)
    resid = sum(c * v for c, v in zip(coeffs, vals))
    rnorm = f.space.pnorm(resid)
    local_scale = 1.0 + sum(abs(c) * f.space.pnorm(v) for c, v in zip(coeffs, vals))
    phi_unit = phi_form.instantiate(1.0).value(X, Y)

    dust = rnorm <= _ZERO_RESIDUAL_REL * local_scale
    uncovered = (phi_unit == 0.0) & ~dust
    if np.any(uncovered):
        i = int(np.argmax(uncovered))
        raise UnboundablePerturbationError(
            f"control vanishes at (x, y) = ({X[i]:.6g}, {Y[i]:.6g}) where the "
            f"residual is {rnorm[i]:.6g}; no finite theta covers it"
        )
    covered = phi_unit > 0.0
    if not np.any(covered):
        return 0.0
    return _THETA_SAFETY * float(np.max(rnorm[covered] / phi_unit[covered]))


@dataclass(frozen=True)
class ReportRow:
    x: float
    f: tuple[float, ...]
    A: tuple[float, ...]
    Q: tuple[float, ...]
    C: tuple[float, ...]
    residual: float
    bound: float
    margin: float


@dataclass
class StabilityReport:
    """Pointwise decomposition-and-bound audit of one experiment."""

    rows: list[ReportRow]
    theta_used: float
    directions: tuple[Direction, Direction, Direction]
    diagnostics: dict
    passed: bool

    def to_json(self) -> dict:
        diag = {
            name: d.to_json() if isinstance(d, ConvergenceDiagnostics) else d
            for name, d in self.diagnostics.items()
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
                for row in self.rows
            ],
            "theta_used": self.theta_used,
            "directions": [int(d) for d in self.directions],
            "diagnostics": diag,
            "pass": self.passed,
        }


# Margin slack: a row fails only when margin < -1e-12 * (1 + bound).
_MARGIN_SLACK = 1e-12


def run_experiment(cfg: ExperimentConfig) -> StabilityReport:
    """Calibrate, decompose, and audit one config; deterministic end to end."""
    space = PNormSpace(cfg.codomain_dim, cfg.p)
    params = EquationParams(cfg.k)
    f = make_test_function(cfg)
    theta = calibrate_theta(f, params, cfg.phi_form, cfg.grid)
    phi = cfg.phi_form.instantiate(theta)
    directions = select_directions(phi)
    ctrl = IterationControl(tol=cfg.tol, max_n=cfg.max_n)
    dec = decompose_full(f, params, directions, ctrl)
    ctx = BoundContext.create(params, space, phi, directions)

    xs = cfg.grid.points()
    fx, Ax, Qx, Cx = f(xs), dec.A(xs), dec.Q(xs), dec.C(xs)
    resid = np.atleast_1d(space.pnorm(fx - (Ax + Qx + Cx)))
    bound = np.atleast_1d(stability_bound(BoundKind.FULL, ctx, xs))
    margin = bound - resid

    diagnostics = dec.diagnostics  # includes the grid evaluations just made
    all_converged = all(d.converged for d in diagnostics.values())
    ok = bool(np.all(margin >= -_MARGIN_SLACK * (1.0 + bound)) and all_converged)

    diag_summary = dict(diagnostics)
    diag_summary["quadratic_bound_zero"] = ctx.quad_zero

    rows = [
        ReportRow(
            x=float(x),
            f=tuple(float(v) for v in fv),
            A=tuple(float(v) for v in av),
            Q=tuple(float(v) for v in qv),
            C=tuple(float(v) for v in cv),
            residual=float(rn),
            bound=float(bn),
            margin=float(mg),
        )
        for x, fv, av, qv, cv, rn, bn, mg in zip(
            xs, fx, Ax, Qx, Cx, resid, bound, margin
        )
    ]
    return StabilityReport(
        rows=rows,
        theta_used=float(theta),
        directions=directions,
        diagnostics=diag_summary,
        passed=ok,
    )


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _cell(vec: tuple[float, ...]) -> str:
    return ";".join(_fmt(v) for v in vec)


CSV_HEADER = "x,f,A,Q,C,residual,bound,margin"


def report_to_csv(report: StabilityReport) -> str:
    """Fixed column set, 17 significant digits, one row per grid point.

    Vector-valued cells (codomain_dim > 1) are semicolon-joined.
    """
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(
            ",".join(
                [
                    _fmt(row.x),
                    _cell(row.f),
                    _cell(row.A),
                    _cell(row.Q),
                    _cell(row.C),
                    _fmt(row.residual),
                    _fmt(row.bound),
                    _fmt(row.margin),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: StabilityReport) -> str:
    return json.dumps(report.to_json(), indent=2) + "\n"


def emit_report(report: StabilityReport, format: str, path: str | None = None) -> str:
    """Render the report as csv or json; write it to path when given."""
    if format == "csv":
        text = report_to_csv(report)
    elif format == "json":
        text = report_to_json(report)
    else:
        raise InvalidInputError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text

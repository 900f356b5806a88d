"""Experiment harness: perturbed test functions, calibration, reports.

The pipeline builds a cubic+quadratic+additive polynomial with a seeded
perturbation, calibrates the smallest power control dominating the measured
residual on a grid, decomposes the function, and checks the recovered
components against the full stability bound pointwise.  Reports serialize to
CSV (ReportRow's fields as columns, 17 significant digits) and JSON (the bytes
of json.dumps(to_json(report), indent=2)), each row through one %-template per
format and dimension; identical configs produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from typing import Sequence

import numpy as np

from .approximants import (
    DEFAULT_MAX_N,
    DEFAULT_TOL,
    DecompositionResult,
    Direction,
    decompose_full,
    worst_cases,
)
from .bounds import BoundContext, BoundKind, PowerBound, select_directions, stability_bound
from .equations import (
    EquationKind,
    EquationParams,
    FunctionHandle,
    horner_cubic,
    json_key,
    operator_residual,
    pair_blocks,
    to_json,
)
from .errors import InvalidInputError, UnboundablePerturbationError
from .errors import check_integer, check_nonnegative, is_finite_number, shown
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
        check_nonnegative("noise amplitude", self.amplitude)
        check_integer("noise seed", self.seed, 0)


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
        """The lambda used by power_scaled noise: phi's largest growth degree."""
        return max(self.instantiate(1.0).exponents())


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-D grid; calibration uses its Cartesian square."""

    lo: float = field(default=-5.0, metadata={"json": "min"})
    hi: float = field(default=5.0, metadata={"json": "max"})
    count: int = 101

    def __post_init__(self) -> None:
        check_integer("grid count", self.count, 2)
        if not (is_finite_number(self.lo) and is_finite_number(self.hi) and self.lo < self.hi):
            raise InvalidInputError("grid needs finite lo < hi")

    def points(self) -> np.ndarray:
        try:
            return np.linspace(self.lo, self.hi, self.count)
        except (MemoryError, ValueError):  # numpy's allocation or size check
            raise InvalidInputError(f"grid count {self.count} does not fit in memory") from None

    def pairs(self) -> np.ndarray:
        pts = self.points()
        X, Y = np.meshgrid(pts, pts, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


@dataclass(frozen=True)
class ExperimentConfig:
    k: int = 2
    p: float = 1.0
    codomain_dim: int = 1
    poly: tuple = (1.0, 1.0, 1.0)  # (a3, a2, a1), floats or per-component tuples of floats
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    phi_form: PhiForm = field(default_factory=PhiForm)
    grid: GridSpec = field(default_factory=GridSpec)
    tol: float = DEFAULT_TOL
    max_n: int = DEFAULT_MAX_N

    def __post_init__(self) -> None:
        EquationParams(self.k)  # k, p and codomain_dim are checked by the types that own them
        PNormSpace(self.codomain_dim, self.p)
        check_nonnegative("tol", self.tol)
        check_integer("max_n", self.max_n, 1)
        if not isinstance(self.poly, (tuple, list, np.ndarray)) or len(self.poly) != 3:
            raise InvalidInputError("poly must be (a3, a2, a1)")
        # Stored as from_json builds it: a float, or a tuple of codomain_dim floats.
        object.__setattr__(self, "poly", tuple(map(self._coefficient, self.poly)))

    def _coefficient(self, c) -> float | tuple[float, ...]:
        c = c[()] if isinstance(c, np.ndarray) and c.ndim == 0 else c
        if is_finite_number(c):
            return float(c)
        vector = isinstance(c, (tuple, list, np.ndarray)) and len(c) == self.codomain_dim
        if vector and all(map(is_finite_number, c)):
            return tuple(map(float, c))
        raise InvalidInputError(
            f"poly entries must be finite numbers or {self.codomain_dim}-vectors "
            f"of finite numbers, got {shown(c)}"
        )

    @classmethod
    def from_json(
        cls, data: dict, base: ExperimentConfig | None = None
    ) -> ExperimentConfig:
        """Merge a JSON config onto base (default ExperimentConfig()).

        Nested objects merge field by field; unknown keys at any level raise
        InvalidInputError.
        """
        return _config_from_json(cls() if base is None else base, data, "config")


def _json_int(raw) -> int:
    """An int field's value: an integral JSON number, never a boolean."""
    if not (type(raw) is int or (type(raw) is float and raw.is_integer())):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _json_float(raw) -> float:
    """A float field's value: a JSON number, never a boolean or a string."""
    if type(raw) not in (int, float):
        raise ValueError(f"expected a number, got {raw!r}")
    return float(raw)


# The JSON schema is the dataclass fields, as to_json writes them: keys by
# json_key, nested dataclasses as nested objects, scalars converted by their
# declared type, and poly as read, for ExperimentConfig to check and store.
_FIELD_TYPES = {"int": _json_int, "float": _json_float, "str": str, "tuple": lambda raw: raw}


def _config_from_json(base, data, where: str):
    if not isinstance(data, dict):
        raise InvalidInputError(f"{where} must be a JSON object")
    schema = {json_key(f): f for f in fields(base)}
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
            changes[f.name] = _FIELD_TYPES[f.type](raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{where}.{key}: {exc}") from None
    return replace(base, **changes)


def make_test_function(cfg: ExperimentConfig) -> FunctionHandle:
    """Polynomial-plus-perturbation test map for one experiment config.

    Every piece vanishes at 0, and the perturbation frequencies are drawn
    once from default_rng(seed), so the map is a pure function of the config.
    """
    space = PNormSpace(cfg.codomain_dim, cfg.p)
    noise = cfg.noise
    eps = noise.amplitude
    if noise.kind != "none" and eps > 0:
        rng = np.random.default_rng(noise.seed)
        omega = rng.uniform(*_OMEGA_RANGE, space.dim)
    else:
        omega = np.zeros(space.dim)
    lam = cfg.phi_form.power_scale()
    kind = noise.kind if eps > 0 else "none"

    def fn(x, a3, a2, a1, omega):
        out = horner_cubic(x, a3, a2, a1)
        if kind == "bounded_smooth":
            out = out + eps * np.sin(omega * x)
        elif kind == "power_scaled":
            if lam == 0.0:
                out = out + eps * (np.cos(omega * x) - 1.0)
            else:
                out = out + eps * np.abs(x) ** lam * np.cos(omega * x)
        return out

    return FunctionHandle.componentwise(space, fn, *cfg.poly, omega)


def calibrate_theta(
    f: FunctionHandle,
    params: EquationParams,
    phi_form: PhiForm,
    grid: GridSpec | Sequence = GridSpec(),
) -> float:
    """Smallest theta (times a 1.01 safety factor) covering the grid residual.

    theta = 1.01 * max pnorm(D_f(x,y)) / phi_unit(x,y) over grid points where
    the unit control is positive, reduced tile by tile: pair_blocks gives
    tiles of at most 2^14 // dim pairs, whole rows of x or pieces of one
    row, so memory is the same at every grid count apart from the count
    points themselves.  Points where phi_unit = 0 must have a residual at
    rounding-dust level (<= 1e-12 of the local evaluation scale); a genuine
    residual there raises UnboundablePerturbationError, since no amplitude
    makes the control cover it.  The unit control is evaluated first, and
    the rounding scale is built only at those points, the only ones it is
    read at.  The result certifies domination on the grid only, not off
    it.  A residual or unit control that is not finite in float64 (the
    test map or the control overflows on a huge grid) raises
    InvalidInputError naming the first such pair.
    """
    kind = EquationKind.general_mixed(params)
    unit = phi_form.instantiate(1.0)
    control = f"control {phi_form.form}:{phi_form.r:g}:{phi_form.s:g}"
    ratio = 0.0
    for X, Y in pair_blocks(grid, f.space.dim):
        with np.errstate(over="ignore", invalid="ignore"):
            phi_unit = unit.value(X, Y)
            zero = phi_unit == 0.0
            resid, zero_scale = operator_residual(f, kind, X, Y, zero)
            rnorm = f.space.pnorm(resid)
        for what, vals in (("residual", rnorm), (control, phi_unit)):
            if not np.all(np.isfinite(vals)):
                i = int(np.argmin(np.isfinite(vals)))
                where = (
                    f"grid {grid.lo:g}:{grid.hi:g}:{grid.count}"
                    if isinstance(grid, GridSpec)
                    else "the given pairs"
                )
                raise InvalidInputError(
                    f"{what} is {vals[i]} at (x, y) = ({X[i]:.6g}, {Y[i]:.6g}) on "
                    f"{where}; no finite theta covers it"
                )
        dust = rnorm[zero] <= _ZERO_RESIDUAL_REL * zero_scale
        if not dust.all():
            i = np.flatnonzero(zero)[np.argmin(dust)]
            raise UnboundablePerturbationError(
                f"control vanishes at (x, y) = ({X[i]:.6g}, {Y[i]:.6g}) where the "
                f"residual is {rnorm[i]:.6g}; no finite theta covers it"
            )
        covered = phi_unit > 0.0
        if np.any(covered):
            ratio = np.maximum(ratio, np.max(rnorm[covered] / phi_unit[covered]))
    return _THETA_SAFETY * float(ratio)


@dataclass(frozen=True)
class ReportRow:
    """One grid point of a report; its fields are the CSV columns and JSON row keys."""

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
    passed: bool = field(metadata={"json": "pass"})


# Margin slack: a row fails only when margin < -1e-12 * (1 + bound).
_MARGIN_SLACK = 1e-12


def decompose(cfg: ExperimentConfig, f: FunctionHandle) -> DecompositionResult:
    """The decomposition stage: directions from cfg.phi_form, caps from cfg.

    Directions depend on the control's exponents only, not on its amplitude,
    so the stage needs no calibrated theta.
    """
    directions = select_directions(cfg.phi_form.instantiate(1.0))
    return decompose_full(
        f, EquationParams(cfg.k), directions, tol=cfg.tol, max_n=cfg.max_n
    )


def run_experiment(cfg: ExperimentConfig) -> StabilityReport:
    """Calibrate, decompose, and audit one config; deterministic end to end."""
    space = PNormSpace(cfg.codomain_dim, cfg.p)
    params = EquationParams(cfg.k)
    f = make_test_function(cfg)
    theta = calibrate_theta(f, params, cfg.phi_form, cfg.grid)
    phi = cfg.phi_form.instantiate(theta)
    dec = decompose(cfg, f)
    ctx = BoundContext(params, space, phi)

    xs = cfg.grid.points()
    fx = f(xs)
    (Ax, Qx, Cx), records = dec.components_at(xs)
    resid = np.atleast_1d(space.pnorm(fx - (Ax + Qx + Cx)))
    bound = np.atleast_1d(stability_bound(BoundKind.FULL, ctx, xs))
    margin = bound - resid

    diagnostics = worst_cases(records)
    all_converged = all(d.converged for d in diagnostics.values())
    ok = bool(np.all(margin >= -_MARGIN_SLACK * (1.0 + bound)) and all_converged)
    diagnostics["quadratic_bound_zero"] = ctx.quad_zero

    vectors = (map(tuple, v.tolist()) for v in (fx, Ax, Qx, Cx))
    rows = [
        ReportRow(*cells)
        for cells in zip(xs.tolist(), *vectors, resid.tolist(), bound.tolist(), margin.tolist())
    ]
    return StabilityReport(
        rows=rows,
        theta_used=float(theta),
        directions=dec.directions,
        diagnostics=diagnostics,
        passed=ok,
    )


_COLUMNS = [f.name for f in fields(ReportRow)]
_row_cells = attrgetter(*_COLUMNS)
_vector_cells = attrgetter(*[f.name for f in fields(ReportRow) if f.type.startswith("tuple")])
CSV_HEADER = ",".join(_COLUMNS)


def _leaves(row: ReportRow) -> tuple:
    """The row's numbers in field order, each tuple field's items in place."""
    return sum((c if isinstance(c, tuple) else (c,) for c in _row_cells(row)), ())


@functools.cache
def _row_template(format: str, dim: int) -> str:
    """One row as a %-template over its leaves: one slot per scalar field, dim per tuple.

    CSV slots are %.17g, the bytes of format(float(v), ".17g").  JSON slots
    are %s over the leaf as json.dumps writes it, at json.dumps(indent=2)'s
    layout of a report row.
    """
    cells = [(json.dumps(json_key(f)), f.type.startswith("tuple")) for f in fields(ReportRow)]
    if format == "csv":
        return ",".join(";".join(["%.17g"] * dim) if vec else "%.17g" for _, vec in cells) + "\n"
    listed = "[%s\n      ]" % ",".join(["\n        %s"] * dim) if dim else "[]"
    items = (f"      {key}: {listed if vec else '%s'}" for key, vec in cells)
    return "    {\n%s\n    }" % ",\n".join(items)


def _rows_dim(rows: list[ReportRow]) -> int:
    """The dimension of row 0's f, 0 without rows; raises at a row whose vectors differ from it."""
    dim = len(rows[0].f) if rows else 0
    for i, row in enumerate(rows):
        for cell in _vector_cells(row):
            if len(cell) != dim:
                raise InvalidInputError(
                    f"report row {i} has a vector of dimension {len(cell)}, "
                    f"row 0 has dimension {dim}"
                )
    return dim


def report_to_csv(report: StabilityReport) -> str:
    """ReportRow's fields as columns, 17 significant digits, one row per point.

    Vector-valued cells (codomain_dim > 1) are semicolon-joined.
    """
    template = _row_template("csv", _rows_dim(report.rows))
    return "".join([CSV_HEADER + "\n", *[template % _leaves(row) for row in report.rows]])


def report_to_json(report: StabilityReport) -> str:
    """json.dumps(to_json(report), indent=2)'s bytes and a newline; rows (key 1) by template."""
    text = json.dumps(to_json(replace(report, rows=[])), indent=2) + "\n"
    if not report.rows:
        return text
    template = _row_template("json", _rows_dim(report.rows))
    # Every row's leaves in one encoder call: a flat list of numbers is
    # written as its items joined by ", ", which no number's text contains.
    cells = json.dumps([v for row in report.rows for v in _leaves(row)])[1:-1].split(", ")
    n = len(cells) // len(report.rows)
    rows = ",\n".join([template % tuple(cells[i : i + n]) for i in range(0, len(cells), n)])
    return text.replace('"rows": []', f'"rows": [\n{rows}\n  ]', 1)


def emit_report(report: StabilityReport, format: str) -> str:
    """Render the report as csv or json text."""
    if format == "csv":
        return report_to_csv(report)
    if format == "json":
        return report_to_json(report)
    raise InvalidInputError(f"unknown report format {format!r}")

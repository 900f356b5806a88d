"""Numerical stability certificates for a mixed cubic-quadratic-additive
functional equation on p-normed codomains.

The library evaluates the defining difference operator, recovers additive,
quadratic and cubic approximants by scaled limit iterations, computes the
explicit error bounds the stability theory provides (from comparison series,
with the paper's closed constants), and ships an experiment harness plus CLI
that audit the bounds on perturbed test functions.
"""

from .approximants import (
    ConvergenceDiagnostics,
    DecompositionResult,
    Direction,
    IterationSpec,
    IterKind,
    LimitFunction,
    decompose_full,
    take_limit,
)
from .bounds import (
    BoundContext,
    BoundKind,
    PowerBound,
    bound_table,
    corollary_constant,
    psi_tilde_bound,
    select_directions,
    stability_bound,
)
from .equations import (
    EquationKind,
    EquationParams,
    FunctionHandle,
    SolutionReport,
    parity_split,
    residual,
    to_json,
    verify_solution,
)
from .errors import (
    CriticalExponentError,
    InvalidInputError,
    UnboundablePerturbationError,
)
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    GridSpec,
    NoiseSpec,
    PhiForm,
    ReportRow,
    StabilityReport,
    calibrate_theta,
    emit_report,
    make_test_function,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .quasinorm import PNormSpace, modulus_of_concavity, power_sum_residual

__version__ = "0.1.0"

__all__ = [
    "BoundContext",
    "BoundKind",
    "CSV_HEADER",
    "ConvergenceDiagnostics",
    "CriticalExponentError",
    "DecompositionResult",
    "Direction",
    "EquationKind",
    "EquationParams",
    "ExperimentConfig",
    "FunctionHandle",
    "GridSpec",
    "InvalidInputError",
    "IterKind",
    "IterationSpec",
    "LimitFunction",
    "NoiseSpec",
    "PNormSpace",
    "PhiForm",
    "PowerBound",
    "ReportRow",
    "SolutionReport",
    "StabilityReport",
    "UnboundablePerturbationError",
    "bound_table",
    "calibrate_theta",
    "corollary_constant",
    "decompose_full",
    "emit_report",
    "make_test_function",
    "modulus_of_concavity",
    "parity_split",
    "power_sum_residual",
    "psi_tilde_bound",
    "report_to_csv",
    "report_to_json",
    "residual",
    "run_experiment",
    "select_directions",
    "stability_bound",
    "take_limit",
    "to_json",
    "verify_solution",
]

"""Hadamard (log-kernel) fractional calculus with verified quadrature.

The package computes Hadamard fractional integrals and derivatives on
[1, t] through Gauss-Jacobi quadrature in the logarithmic variable,
cross-checks them against closed forms and a graded-mesh scheme, and
fuzzes a family of fractional integral inequalities whose hypotheses
are generated correct by construction.
"""

from .errors import (
    DomainError,
    EnvelopeError,
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    HadafracError,
    QuadratureError,
    RoughnessWarning,
)
from .expressions import as_function, eval_expr, parse_expr, serialize
from .fuzzing import (
    CSV_HEADER,
    FuzzConfig,
    RunSummary,
    TrialResult,
    format_csv_row,
    run_fuzz,
    run_trial,
    trial_seed,
)
from .gammafn import GAMMA_MAX_ARG, gamma
from .inequalities import (
    BoundingQuadruple,
    ConstantBounds,
    HolderPair,
    InequalityReport,
    TheoremId,
    constant_polya_szego,
    constant_polya_szego_two_order,
    minkowsky_related,
    polya_szego_double,
    polya_szego_single,
    power_mean_check,
    product_bound,
    ratio_bound_constant,
    young_pointwise_check,
)
from .jacobi import MIN_RULE_ALPHA, build_jacobi_rule, jacobi_rule_01
from .operators import (
    OperatorResult,
    hadamard_derivative,
    hadamard_integral,
    hadamard_integral_graded,
    power_rule_derivative,
    power_rule_integral,
    semigroup_residual,
)
from .randfuncs import (
    ConstantFunction,
    PiecewiseLogPoly,
    random_bounded_function,
    random_smooth_function,
)

__version__ = "0.1.0"

__all__ = [
    "BoundingQuadruple",
    "ConstantBounds",
    "ConstantFunction",
    "CSV_HEADER",
    "DomainError",
    "EnvelopeError",
    "ExprError",
    "ExprEvalError",
    "ExprSyntaxError",
    "FuzzConfig",
    "GAMMA_MAX_ARG",
    "HadafracError",
    "HolderPair",
    "InequalityReport",
    "MIN_RULE_ALPHA",
    "OperatorResult",
    "PiecewiseLogPoly",
    "QuadratureError",
    "RoughnessWarning",
    "RunSummary",
    "TheoremId",
    "TrialResult",
    "as_function",
    "build_jacobi_rule",
    "constant_polya_szego",
    "constant_polya_szego_two_order",
    "eval_expr",
    "format_csv_row",
    "gamma",
    "hadamard_derivative",
    "hadamard_integral",
    "hadamard_integral_graded",
    "jacobi_rule_01",
    "minkowsky_related",
    "parse_expr",
    "polya_szego_double",
    "polya_szego_single",
    "power_mean_check",
    "power_rule_derivative",
    "power_rule_integral",
    "product_bound",
    "random_bounded_function",
    "random_smooth_function",
    "ratio_bound_constant",
    "run_fuzz",
    "run_trial",
    "semigroup_residual",
    "serialize",
    "trial_seed",
    "young_pointwise_check",
]

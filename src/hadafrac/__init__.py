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
    ExprEvalError,
    ExprSyntaxError,
    HadafracError,
    QuadratureError,
)
from .expressions import as_function, eval_expr, parse_expr
from .fuzzing import FuzzConfig, run_fuzz, run_trial
from .inequalities import (
    BoundingQuadruple,
    ConstantBounds,
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
from .operators import (
    hadamard_derivative,
    hadamard_integral,
    hadamard_integral_graded,
    power_rule_derivative,
    power_rule_integral,
    semigroup_residual,
)
from .randfuncs import ConstantFunction, random_bounded_function, random_smooth_function

__version__ = "0.1.0"

# The names README.md documents under "Package-level names"; every other
# name is imported from its own module.
__all__ = [
    "BoundingQuadruple",
    "ConstantBounds",
    "ConstantFunction",
    "DomainError",
    "EnvelopeError",
    "ExprEvalError",
    "ExprSyntaxError",
    "FuzzConfig",
    "HadafracError",
    "QuadratureError",
    "as_function",
    "constant_polya_szego",
    "constant_polya_szego_two_order",
    "eval_expr",
    "hadamard_derivative",
    "hadamard_integral",
    "hadamard_integral_graded",
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
    "young_pointwise_check",
]

"""Exception hierarchy, and the integer test, shared across the package."""

import numpy as np


def is_int(value):
    """Whether value is a Python or NumPy integer; bool does not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class HadafracError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HadafracError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class QuadratureError(HadafracError, ArithmeticError):
    """Quadrature construction or evaluation failed (non-convergence,
    nonfinite result)."""


class EnvelopeError(HadafracError, ValueError):
    """A hypothesised envelope condition fails at some sample point.

    Carries the smallest offending sample point in `tau` when known.
    """

    def __init__(self, message: str, tau: float | None = None):
        super().__init__(message)
        self.tau = tau


class ExprError(HadafracError, ValueError):
    """Base class for expression parsing/evaluation errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text.

    Carries the byte offset of the offending token and the set of token
    kinds that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class ExprEvalError(ExprError):
    """Domain fault while evaluating an expression (log of a nonpositive
    number, division by zero, 0 raised to a negative power, ...)."""

    def __init__(self, message: str, subexpr: str, tau: float):
        super().__init__(f"{message} in '{subexpr}' at tau={tau!r}")
        self.subexpr = subexpr
        self.tau = tau


class RoughnessWarning(UserWarning):
    """The two one-sided difference quotients of a fractional derivative
    disagree beyond tolerance; the integrand is likely not smooth at t."""

"""Exception hierarchy, and the argument checks, shared across the package."""

import math

import numpy as np


def check_real(name, value):
    """`value` as a finite float, or DomainError naming the argument; strings
    and bools are refused, even where float() would take them."""
    out = math.nan
    if isinstance(value, float) or not isinstance(value, (str, bytes, bytearray, bool)):
        try:
            out = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if not math.isfinite(out):
        raise DomainError(f"{name} must be a finite real number, got {value!r}")
    return out


def check_int(name, value, lo, hi):
    """`value` as an int in [lo, hi] (bools refused), or DomainError naming it."""
    if not ((type(value) is int or isinstance(value, np.integer)) and lo <= value <= hi):
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def all_finite(values):
    """Whether every entry of a float array is finite.  The sum of squares is
    finite when every entry is, unless it overflows; only then does the
    exact (and slower) test run."""
    return math.isfinite(np.vdot(values, values)) or bool(np.isfinite(values).all())


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


class ExprSyntaxError(HadafracError, ValueError):
    """Malformed expression text.

    Carries the byte offset of the offending token and the set of token
    kinds that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class ExprEvalError(HadafracError, ValueError):
    """Domain fault while evaluating an expression (log of a nonpositive
    number, division by zero, 0 raised to a negative power, ...)."""

    def __init__(self, message: str, subexpr: str, tau: float):
        super().__init__(f"{message} in '{subexpr}' at tau={tau!r}")
        self.subexpr = subexpr
        self.tau = tau

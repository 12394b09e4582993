"""Gauss-Jacobi quadrature on [0, 1] for weights with algebraic endpoint
factors.

The rules produced here absorb the weakly singular kernel of the log-kernel
fractional integral into the quadrature weight, so the integrand handed to
the rule is smooth and the rule converges spectrally.  Nodes are computed by
Newton iteration on the Jacobi three-term recurrence (Chebyshev-angle initial
guesses, Maehly deflation against already-found roots); no external
eigensolver is involved.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError, QuadratureError

_MAX_NEWTON_ITER = 100
_NEWTON_TOL = 1e-15

# Smallest integral order for which rule construction is certifiable: the
# deflated Newton search was swept over n up to 256 and is reliable down to
# 0.04, with scattered endpoint-cluster failures appearing at 0.03.
MIN_RULE_ALPHA = 0.05


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the weight s**(alpha-1) on [0, 1].

    Invariants (checked at construction): nodes strictly increasing inside
    (0, 1), weights all positive, and the weights sum to 1/alpha, the total
    mass of the weight function.
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    count: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _jacobi_eval(n: int, a: float, b: float, x: float) -> tuple[float, float]:
    """Evaluate (P_n, P_{n-1}) for Jacobi parameters (a, b) at scalar x."""
    p_prev = 1.0
    p = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    if n == 0:
        return 1.0, 0.0
    for j in range(2, n + 1):
        two_j = 2.0 * j + a + b
        c1 = 2.0 * j * (j + a + b) * (two_j - 2.0)
        c2 = (two_j - 1.0) * (a * a - b * b)
        c3 = (two_j - 1.0) * two_j * (two_j - 2.0)
        c4 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * two_j
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    return p, p_prev


def _jacobi_deriv(n: int, a: float, b: float, x: float, p: float, p_prev: float) -> float:
    """Derivative of P_n at x from the value pair, valid for x in (-1, 1)."""
    two_n = 2.0 * n + a + b
    return (n * (a - b - two_n * x) * p + 2.0 * (n + a) * (n + b) * p_prev) / (
        two_n * (1.0 - x) * (1.0 + x)
    )


def _jacobi_eval_vec(
    n: int, a: float, b: float, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (P_n, P_{n-1}, P'_n) in the dtype of x (longdouble-safe)."""
    one = x.dtype.type(1.0)
    p_prev = np.ones_like(x)
    p = x.dtype.type(0.5 * (a - b)) + x.dtype.type(0.5 * (a + b + 2.0)) * x
    for j in range(2, n + 1):
        two_j = 2.0 * j + a + b
        c1 = 2.0 * j * (j + a + b) * (two_j - 2.0)
        c2 = (two_j - 1.0) * (a * a - b * b)
        c3 = (two_j - 1.0) * two_j * (two_j - 2.0)
        c4 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * two_j
        p, p_prev = ((x.dtype.type(c2) + x.dtype.type(c3) * x) * p - x.dtype.type(c4) * p_prev) / x.dtype.type(c1), p
    two_n = 2.0 * n + a + b
    dp = (n * (a - b - two_n * x) * p + 2.0 * (n + a) * (n + b) * p_prev) / (
        x.dtype.type(two_n) * (one - x) * (one + x)
    )
    return p, p_prev, dp


def _jacobi_roots(n: int, a: float, b: float) -> np.ndarray:
    """All n roots of P_n^(a,b), ascending, via deflated Newton iteration."""
    roots: list[float] = []
    for k in range(n):
        # Chebyshev-angle guess for the k-th root counted from +1; once two
        # roots are known, linear extrapolation tracks the drift of the root
        # distribution under asymmetric (a, b).
        if k < 2:
            x = math.cos(math.pi * (k + 0.75) / (n + 0.5))
        else:
            x = min(1.0 - 1e-14, max(-1.0 + 1e-14, 2.0 * roots[-1] - roots[-2]))
        converged = False
        for _ in range(_MAX_NEWTON_ITER):
            p, p_prev = _jacobi_eval(n, a, b, x)
            dp = _jacobi_deriv(n, a, b, x, p, p_prev)
            # Maehly deflation keeps the iteration away from found roots.
            defl = sum(1.0 / (x - r) for r in roots)
            denom = dp - p * defl
            if denom == 0.0:
                x *= 1.0 - 1e-12
                continue
            step = p / denom
            # keep iterates inside the open interval
            while not (-1.0 < x - step < 1.0):
                if not math.isfinite(step):
                    raise QuadratureError(
                        f"Jacobi recurrence of degree {n} (params {a:g},{b:g}) overflowed"
                    )
                step *= 0.5
            x -= step
            if abs(step) <= _NEWTON_TOL:
                converged = True
                break
        if not converged:
            raise QuadratureError(
                f"Jacobi root {k} of degree {n} (params {a:g},{b:g}) did not "
                f"converge within {_MAX_NEWTON_ITER} Newton iterations"
            )
        roots.append(x)
    # Two undeflated polish steps remove any bias the deflation term left.
    for i, x in enumerate(roots):
        for _ in range(2):
            p, p_prev = _jacobi_eval(n, a, b, x)
            dp = _jacobi_deriv(n, a, b, x, p, p_prev)
            if dp != 0.0:
                x -= p / dp
        roots[i] = x
    out = np.sort(np.asarray(roots))
    if len(np.unique(out)) != n or out[0] <= -1.0 or out[-1] >= 1.0:
        raise QuadratureError(
            f"Jacobi root search for degree {n} (params {a:g},{b:g}) produced "
            "duplicate or out-of-range roots"
        )
    return out


@lru_cache(maxsize=1024)
def jacobi_rule_01(n: int, zero_exponent: float, one_exponent: float = 0.0):
    """Gauss rule for the weight s**zero_exponent * (1-s)**one_exponent on [0, 1].

    Returns (nodes, weights) with nodes ascending in (0, 1).  Exact for
    polynomial integrands of degree <= 2n-1 against that weight.  Results are
    cached; both arrays are read-only.
    """
    if n < 1:
        raise DomainError(f"need at least one node, got n={n}")
    if not (math.isfinite(zero_exponent) and math.isfinite(one_exponent)):
        raise DomainError("endpoint exponents must be finite")
    if zero_exponent <= -1.0 or one_exponent <= -1.0:
        raise DomainError("endpoint exponents must exceed -1 for integrability")
    a = float(one_exponent)  # (1-x)^a side maps to the s=1 endpoint
    b = float(zero_exponent)
    x = _jacobi_roots(n, a, b)
    # Double-precision roots near x = -1 carry a relative placement error of
    # order eps/(1+x) in the local coordinate, and the weights inherit it.
    # For strongly singular weights (small alpha) that alone busts the 1e-12
    # weight-sum budget, so polish the whole root vector with a few Newton
    # steps in extended precision and evaluate the weights there.
    xl = x.astype(np.longdouble)
    for _ in range(3):
        p, p_prev, dp = _jacobi_eval_vec(n, a, b, xl)
        xl = xl - p / dp
    p, p_prev, dp = _jacobi_eval_vec(n, a, b, xl)
    # Classical Gauss-Jacobi weights on [-1,1]:
    #   W_i = 2^(a+b) (2n+a+b) G / (P'_n(x_i) P_{n-1}(x_i)),
    #   G = Gamma(n+a)Gamma(n+b) / (Gamma(n+1)Gamma(n+a+b+1)),
    # then the map s=(1+x)/2 contributes 2^-(a+b+1).
    if a == 0.0:
        # G collapses to 1/(n(n+b)); avoids lgamma cancellation noise on
        # the hot path used by the fractional-integral rules.
        g = 1.0 / (n * (n + b))
    else:
        g = math.exp(
            math.lgamma(n + a)
            + math.lgamma(n + b)
            - math.lgamma(n + 1.0)
            - math.lgamma(n + a + b + 1.0)
        )
    w = ((2.0 * n + a + b) * np.longdouble(g) / (2.0 * dp * p_prev)).astype(np.float64)
    s = (np.longdouble(0.5) * (np.longdouble(1.0) + xl)).astype(np.float64)
    if not (np.all(w > 0.0) and np.all(np.diff(s) > 0.0) and 0.0 < s[0] and s[-1] < 1.0):
        raise QuadratureError(
            f"Gauss-Jacobi rule n={n} (exponents {zero_exponent:g},{one_exponent:g}) "
            "violated positivity/ordering checks"
        )
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


@lru_cache(maxsize=512)
def build_jacobi_rule(alpha: float, n: int) -> QuadratureRule:
    """Rule for the weight s**(alpha-1) on [0, 1] with n nodes.

    Exact for polynomial integrands of degree <= 2n-1.  The rule depends only
    on (alpha, n), so it is cached and shared; instances are immutable.
    """
    if not alpha >= MIN_RULE_ALPHA:
        # Below this the endpoint clustering defeats the root finder even in
        # extended precision; rule quality is not certifiable.
        raise DomainError(
            f"order alpha must be >= {MIN_RULE_ALPHA:g}, got {alpha!r}"
        )
    if n < 2:
        raise DomainError(f"need at least two nodes, got n={n}")
    s, w = jacobi_rule_01(n, alpha - 1.0)
    total = w.sum()
    # Construction sanity check: the exact weight sum is 1/alpha.  The 1e-12
    # budget is met outright for alpha >= 0.25 at any practical n; below that
    # the deep endpoint nodes are ill-conditioned even in extended precision,
    # so allow a conditioning term.  Genuine construction bugs miss by many
    # orders of magnitude, not by n*eps.
    eps_ld = float(np.finfo(np.longdouble).eps)
    tol = (1e-12 + 5e4 * n * eps_ld / min(alpha, 1.0)) / alpha
    if abs(total - 1.0 / alpha) > tol:
        raise QuadratureError(
            f"weight sum {total!r} deviates from 1/alpha={1.0 / alpha!r} "
            f"by more than {tol:g} for alpha={alpha:g}, n={n}"
        )
    return QuadratureRule(alpha=float(alpha), nodes=s, weights=w, count=n)

"""Gauss-Jacobi quadrature on [0, 1] for weights with algebraic endpoint
factors.

The rules produced here absorb the weakly singular kernel of the log-kernel
fractional integral into the quadrature weight, so the integrand handed to
the rule is smooth and the rule converges spectrally.  Nodes are the
eigenvalues of the symmetric tridiagonal Jacobi matrix (Golub-Welsch, solved
with numpy.linalg.eigvalsh), sharpened by Newton steps on the Jacobi
three-term recurrence in double and then extended precision; the weights
come from the classical closed form evaluated at the polished nodes.

Each rule builds its recurrence coefficient table once and reuses it for all
six recurrence evaluations (two Newton steps in double, three in extended
precision, one final pass for the weights).  Each evaluation forms the
x-only half of the recurrence, c2 + c3 x, for one block of 64 degrees at a
time, then runs the degree loop over that block.
"""

from functools import lru_cache
import math

import numpy as np

from .errors import DomainError, QuadratureError, check_int, check_real
from .gammafn import GAMMA_MAX_ARG

# Smallest integral order for which rule construction is certifiable.  The
# value was swept for an earlier root finder (reliable down to 0.04 for n up
# to 256) and not yet re-swept for the eigenvalue construction, which gives
# the same rules to a few ulps.  At this floor the weight-sum check in
# build_jacobi_rule passes up to 1024 nodes and fails at 2048.
MIN_RULE_ALPHA = 0.05

# Largest node count of a rule.  Construction holds the dense float64
# Jacobi matrix, O(n^2) memory (128 MiB at this size), plus one block of
# _BLOCK x n extended-precision recurrence values (4 MiB at this size), so
# larger requests are refused up front instead of exhausting memory.
MAX_RULE_NODES = 4096

# Degrees of the three-term recurrence whose x-only half is formed at once.
# Hoisted over all n degrees the temporaries outgrow the cache and the
# evaluation gets slower at a few hundred nodes; blocks keep it cache-sized.
_BLOCK = 64


def _recurrence_table(n: int, a: float, b: float) -> np.ndarray:
    """Rows c1..c4 of the three-term recurrence of P_j^(a,b) for j = 2..n,
    in double precision (elementwise, so bit-identical to scalar evaluation):
    c1 P_j = (c2 + c3 x) P_{j-1} - c4 P_{j-2}."""
    j = np.arange(2, n + 1, dtype=np.float64)
    two_j = 2.0 * j + a + b
    return np.stack((
        2.0 * j * (j + a + b) * (two_j - 2.0),
        (two_j - 1.0) * (a * a - b * b),
        (two_j - 1.0) * two_j * (two_j - 2.0),
        2.0 * (j + a - 1.0) * (j + b - 1.0) * two_j,
    ))


def _jacobi_eval_vec(
    n: int, a: float, b: float, x: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (P_n, P_{n-1}, P'_n) in the dtype of x (longdouble-safe).

    `table` is the rule's `_recurrence_table(n, a, b)` in the dtype of x.
    The x-only half of each step, c2 + c3 x, is formed for a block of
    _BLOCK degrees at a time; the step itself keeps the one-degree-at-a-time
    roundings, so the result has the same bits either way.
    """
    one = x.dtype.type(1.0)
    p_prev = np.ones_like(x)
    p = x.dtype.type(0.5 * (a - b)) + x.dtype.type(0.5 * (a + b + 2.0)) * x
    for start in range(0, n - 1, _BLOCK):
        c1, c2, c3, c4 = table[:, start:start + _BLOCK]
        lin = c2[:, None] + c3[:, None] * x
        for lin_j, c1_j, c4_j in zip(lin, c1, c4):
            p, p_prev = (lin_j * p - c4_j * p_prev) / c1_j, p
    two_n = 2.0 * n + a + b
    dp = (n * (a - b - two_n * x) * p + 2.0 * (n + a) * (n + b) * p_prev) / (
        x.dtype.type(two_n) * (one - x) * (one + x)
    )
    return p, p_prev, dp


def _jacobi_roots(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """All n roots of P_n^(a,b), ascending: the eigenvalues of the symmetric
    tridiagonal Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969),
    sharpened by two Newton steps on the three-term recurrence.  Returned
    with the float64 `_recurrence_table(n, a, b)` those steps used."""
    ab = a + b
    k = np.arange(n, dtype=np.float64)
    two_k = 2.0 * k + ab
    with np.errstate(all="ignore"):
        diag = (b * b - a * a) / (two_k * (two_k + 2.0))
        diag[0] = (b - a) / (ab + 2.0)
        k, two_k = k[1:], two_k[1:]
        sub = np.sqrt(
            4.0 * k * (k + a) * (k + b) * (k + ab)
            / (two_k * two_k * (two_k + 1.0) * (two_k - 1.0))
        )
        if n > 1:
            # The general entry is 0/0 at k = 1 when a + b = -1.
            sub[0] = np.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + ab) * (2.0 + ab) * (3.0 + ab)))
        table = _recurrence_table(n, a, b)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(sub))):
        raise QuadratureError(
            f"Jacobi matrix of degree {n} (params {a:g},{b:g}) is not finite"
        )
    jac = np.zeros((n, n))
    i = np.arange(n)
    jac[i, i] = diag
    jac[i[1:], i[:-1]] = sub  # eigvalsh reads only the lower triangle
    try:
        x = np.linalg.eigvalsh(jac)
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(
            f"Jacobi eigenvalues of degree {n} (params {a:g},{b:g}) failed: {exc}"
        ) from None
    with np.errstate(all="ignore"):
        for _ in range(2):
            p, _, dp = _jacobi_eval_vec(n, a, b, x, table)
            x = x - p / dp
    out = np.sort(x)
    if len(np.unique(out)) != n or not (-1.0 < out[0] and out[-1] < 1.0):
        raise QuadratureError(
            f"Jacobi root search for degree {n} (params {a:g},{b:g}) produced "
            "duplicate or out-of-range roots"
        )
    return out, table


# typed: 4 and 4.0 are equal keys, and only the first is a valid size.
@lru_cache(maxsize=1024, typed=True)
def jacobi_rule_01(n: int, zero_exponent: float, one_exponent: float = 0.0):
    """Gauss rule for the weight s**zero_exponent * (1-s)**one_exponent on [0, 1].

    Returns (nodes, weights) with nodes ascending in (0, 1).  Exact for
    polynomial integrands of degree <= 2n-1 against that weight.  Results are
    cached; both arrays are read-only.
    """
    n = check_int("nodes", n, 1, MAX_RULE_NODES)
    b = check_real("zero_exponent", zero_exponent)
    a = check_real("one_exponent", one_exponent)  # (1-x)^a side maps to the s=1 endpoint
    if a <= -1.0 or b <= -1.0:
        raise DomainError("endpoint exponents must exceed -1 for integrability")
    x, table = _jacobi_roots(n, a, b)
    # Double-precision roots near x = -1 carry a relative placement error of
    # order eps/(1+x) in the local coordinate, and the weights inherit it.
    # For strongly singular weights (small alpha) that alone busts the 1e-12
    # weight-sum budget, so polish the whole root vector with a few Newton
    # steps in extended precision and evaluate the weights there.
    xl = x.astype(np.longdouble)
    table = table.astype(np.longdouble)
    for _ in range(3):
        p, p_prev, dp = _jacobi_eval_vec(n, a, b, xl, table)
        xl = xl - p / dp
    p, p_prev, dp = _jacobi_eval_vec(n, a, b, xl, table)
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


def check_rule_order(alpha, n, name="alpha"):
    """(alpha, n) as (float, int), or DomainError, naming the order `name`,
    unless the operators may use that rule."""
    alpha = check_real(name, alpha)
    if not MIN_RULE_ALPHA <= alpha <= GAMMA_MAX_ARG:
        # Below the floor the endpoint clustering makes rule quality not
        # certifiable; above the ceiling Gamma(alpha), which every operator
        # needs alongside the rule, overflows.
        raise DomainError(
            f"order {name} must lie in [{MIN_RULE_ALPHA:g}, {GAMMA_MAX_ARG:g}], got {alpha!r}"
        )
    return alpha, check_int("nodes", n, 2, MAX_RULE_NODES)


@lru_cache(maxsize=512, typed=True)
def build_jacobi_rule(alpha: float, n: int):
    """Rule (nodes, weights) for the weight s**(alpha-1) on [0, 1] with n nodes.

    Exact for polynomial integrands of degree <= 2n-1; the weights sum to
    1/alpha.  Cached and shared per (alpha, n); both arrays are read-only.
    """
    alpha, n = check_rule_order(alpha, n)
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
            f"weight sum {float(total)!r} deviates from 1/alpha={1.0 / alpha!r} "
            f"by more than {tol:g} for alpha={alpha:g}, n={n}"
        )
    return s, w

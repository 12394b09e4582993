"""Reference values the tests check the operators against, and the platform
record the pinned digests depend on.

Test modules import it by name (`from oracles import exact_integral`), as
pytest puts this directory on the path.  Neither oracle shares code with the
Gauss-Jacobi route under test:

- `oracle_integral` integrates u^(alpha-1) f(t e^-u) over [0, ln t] with
  scipy's adaptive quadrature and its algebraic-weight handling, split at
  any kinks of f it is told of;
- `exact_integral` sums the closed form of an unclipped piecewise
  polynomial in ln tau in 50-digit decimal arithmetic.
"""

from decimal import Decimal, localcontext
import math

import numpy as np
from scipy.integrate import quad

from hadafrac.randfuncs import LOG_SPAN, PiecewiseLogPoly


def oracle_integral(f, alpha, t, log_kinks=()):
    """The integral of order alpha at t by adaptive quadrature.

    quad loses digits at a kink of f inside an interval (up to 2e-9 at the
    breakpoints of a piecewise draw), so the integral is split at the
    points ln tau in `log_kinks`.  The interval at u = 0 carries the
    singular weight; the others are smooth.
    """
    log_t = math.log(t)
    g = lambda u: f(t * math.exp(-u))
    edges = [0.0, *sorted(log_t - b for b in log_kinks if 0.0 < b < log_t), log_t]
    tol = dict(epsabs=1e-13, epsrel=1e-13)
    value, _ = quad(g, 0.0, edges[1], weight="alg", wvar=(alpha - 1.0, 0.0), **tol)
    for lo, hi in zip(edges[1:], edges[2:]):
        value += quad(lambda u: u ** (alpha - 1.0) * g(u), lo, hi, **tol)[0]
    return value / math.gamma(alpha)


def log_poly(p):
    """The numpy Polynomial p in ln tau as a one-piece PiecewiseLogPoly, on a
    band (1e-300, 1e300) that leaves a p positive on the design span unclipped."""
    return PiecewiseLogPoly((0.0,), (tuple(p.coef.tolist()),), 1e-300, 1e300)


def exact_integral(fn, alpha, t):
    """The integral of order alpha at t of an unclipped PiecewiseLogPoly fn.

    With L = ln t and v = L - u, piece sum_k c_k u^k on [u0, u1] contributes

        sum_k c_k sum_j C(k, j) L^(k-j) (-1)^j [v^(a+j) / (a+j)]

    between v = L - u1 and v = L - u0.  The sum is taken in 50-digit decimal
    arithmetic from the exact values of the floats; only its rounding to a
    double and the division by math.gamma(alpha) round at double precision.
    Clipping is decided on the design span, so ln t must not pass LOG_SPAN.
    """
    if fn.clipped:
        raise ValueError("exact_integral needs an unclipped function")
    if not 1.0 <= t <= math.exp(LOG_SPAN):
        raise ValueError(f"need 1 <= t <= e^{LOG_SPAN:g}, got {t!r}")
    with localcontext() as ctx:
        ctx.prec = 50
        a, log_t = Decimal(alpha), Decimal(t).ln()
        edges = [Decimal(b) for b in fn.breakpoints] + [log_t]
        total = Decimal(0)
        for u0, u1, row in zip(edges, edges[1:], fn.coefficients):
            if u0 >= log_t:
                break
            ends = (log_t - min(u1, log_t), log_t - u0)
            powers = [[v ** (a + j) for j in range(len(row))] for v in ends]
            for k, c in enumerate(row):
                for j in range(k + 1):
                    span = (powers[1][j] - powers[0][j]) / (a + j)
                    total += Decimal(c) * math.comb(k, j) * log_t ** (k - j) * (-1) ** j * span
    return float(total) / math.gamma(alpha)


def platform_record():
    """NumPy's version, its CPU features and its long double.  The pinned
    digests hold where NumPy dispatches its AVX-512 kernels for log, exp and
    power and the long double is 80-bit; elsewhere they can move in the last
    bits with no fault in the code."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    targets = " ".join(name for name, on in features.items() if on)
    return f"numpy {np.__version__}\nCPU features: {targets}\n{np.finfo(np.longdouble)}"

"""Log-kernel fractional integral and derivative operators on [1, t].

The integral of order alpha > 0 is

    I^alpha f(t) = (1/Gamma(alpha)) * integral_1^t ln(t/tau)^(alpha-1) f(tau) dtau/tau,

and the derivative of order 0 < alpha < 1 is t * d/dt applied to I^(1-alpha) f.
Substituting tau = t^(1-s) turns the integral into

    (ln t)^alpha / Gamma(alpha) * integral_0^1 s^(alpha-1) f(t^(1-s)) ds,

so a single Gauss rule per order serves every evaluation point t.  A graded
product-trapezoid scheme over u = ln(t/tau) provides an independent low-order
route used to cross-check the spectral one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HadafracError, QuadratureError
from .errors import check_int, check_real
from .gammafn import gamma
from .jacobi import MAX_RULE_NODES, MIN_RULE_ALPHA, build_jacobi_rule, check_rule_order
from .jacobi import jacobi_rule_01

import math

# Largest admissible mesh grading exponent; beyond this the first cell width
# underflows for practical mesh sizes.
_MAX_GRADING = 40.0

# Largest graded mesh, in cells; larger requests are refused up front.
_MAX_MESH_CELLS = 2**16

# Relative step for the central difference inside the derivative operator.
_FD_REL_STEP = 1e-5


@dataclass(frozen=True)
class OperatorResult:
    """Value of an operator application plus an internal error estimate.

    estimated_error is an absolute, heuristic estimate, not a bound, and the
    only quality signal a result carries: rule doubling for the spectral
    route, Richardson difference for the graded route, one-sided slope
    spread for the derivative, which omits quadrature truncation.  It can
    fall below the true error: on ln(tau)^(b-1) integrands the graded
    estimate at n = 512 did in about two cases of three, and rule doubling
    at 4 nodes in all.  nodes_used counts quadrature nodes in the primary
    evaluation only.
    """

    value: float
    estimated_error: float
    nodes_used: int


def _check_t(t):
    t = check_real("t", t)
    if t < 1.0:
        raise DomainError(f"evaluation point t must satisfy t >= 1, got {t:g}")
    return t


def _eval_on(f, args):
    """Evaluate f on an argument vector, accepting scalar-only callables."""
    try:
        arr = np.asarray(f(args), dtype=float)
        vectorized = arr.shape == args.shape
    except HadafracError:  # f's own fault, not a sign that f wants scalars
        raise
    except (TypeError, ValueError):
        vectorized = False
    if not vectorized:
        arr = np.fromiter((float(f(float(a))) for a in args.ravel()), dtype=float, count=args.size)
        arr = arr.reshape(args.shape)
    if not np.isfinite(arr).all():
        bad = args[~np.isfinite(arr)][:3]
        raise QuadratureError(
            f"integrand returned a non-finite value near tau={bad.tolist()}"
        )
    return arr


class Measure:
    """The positive discrete measure that Gauss-Jacobi quadrature puts on [1, t].

    With s_i, w_i the nodes and weights of the n-node rule for the weight
    s^(alpha-1) on [0, 1], the integral of order alpha at t becomes

        I^alpha f(t) = prefactor * sum_i w_i f(tau_i),
        tau_i = t^(1 - s_i),  prefactor = (ln t)^alpha / Gamma(alpha).

    An endpoint exponent g != 0 takes s_i, w_i from the rule for the weight
    s^(alpha-1) (1-s)^g and divides each w_i by (1-s_i)^g.  That is again a
    rule for s^(alpha-1), now exact when f behaves like (ln tau)^g times a
    polynomial in ln tau, since ln tau_i = (1-s_i) ln t.  Only the plain
    rule (g = 0) has its weight sum checked against 1/alpha.

    Every weight is positive, so an inequality between integrands that holds
    at the points tau_i also holds between their integrals.
    """

    __slots__ = ("alpha", "t", "endpoint_exponent", "nodes", "tau", "weights", "prefactor")

    def __init__(self, alpha, t, n, endpoint_exponent=0.0):
        t = _check_t(t)
        alpha, n = check_rule_order(alpha, n)
        g = check_real("endpoint_exponent", endpoint_exponent)
        if g == 0.0:
            self.nodes, self.weights = build_jacobi_rule(alpha, n)
        else:
            s, w = jacobi_rule_01(n, alpha - 1.0, g)
            self.nodes, self.weights = s, w / (1.0 - s) ** g
        self.alpha, self.t, self.endpoint_exponent = alpha, t, g
        try:
            self.prefactor = math.log(t) ** alpha / gamma(alpha)
        except OverflowError as exc:
            raise QuadratureError(f"(ln t)^alpha overflows for alpha={alpha:g}, t={t:g}") from exc
        self.tau = np.minimum(t, np.maximum(1.0, t ** (1.0 - self.nodes)))

    def integral(self, values):
        """prefactor * sum_i w_i values_i, for the values of f at `tau`."""
        value = self.prefactor * float(np.dot(self.weights, values))
        if not math.isfinite(value):
            raise QuadratureError(f"integral overflows at t={self.t:g}")
        return value


def hadamard_integral(f, alpha, t, nodes=64, estimate_error=True, endpoint_exponent=0.0):
    """Fractional integral of order alpha at t, by Gauss-Jacobi quadrature.

    f must accept a numpy array of points in [1, t] (scalars also work, at a
    per-point call cost).  Returns an OperatorResult.  With estimate_error
    the rule is doubled once and the difference reported: an estimate, not
    a bound, which tracks the error for smooth f once the rule resolves it.

    When f is known to behave like (ln tau)^g times a smooth function as
    tau -> 1, passing endpoint_exponent=g absorbs that algebraic factor into
    the quadrature weight, restoring spectral accuracy that a plain rule
    loses for non-integer g.
    """
    if estimate_error:
        # The estimate doubles the rule, which must stay within MAX_RULE_NODES.
        check_int("nodes", nodes, 2, MAX_RULE_NODES // 2)
    measure = Measure(alpha, t, nodes, endpoint_exponent)
    g, count = measure.endpoint_exponent, measure.weights.size
    if g != 0.0:
        # The endpoint rule has no weight-sum check of its own; the plain
        # rule of the same order and size stands in for it.
        build_jacobi_rule(measure.alpha, count)
    if measure.t == 1.0:
        return OperatorResult(value=0.0, estimated_error=0.0, nodes_used=count)

    def apply(m):
        return m.integral(_eval_on(f, m.tau))

    value = apply(measure)
    err = abs(apply(Measure(alpha, t, 2 * count, g)) - value) if estimate_error else 0.0
    return OperatorResult(value=value, estimated_error=err, nodes_used=count)


def _graded_mesh(alpha, length, n):
    grading = min(_MAX_GRADING, max(1.0, 2.0 / alpha))
    return length * (np.arange(n + 1) / n) ** grading


def _product_trapezoid(fvals, u, alpha):
    """Integral of u^(alpha-1) * (linear interpolant of fvals) over the mesh.

    Cell moments of the singular factor are evaluated in closed form, so only
    the interpolation of the smooth factor limits accuracy.  All cell weights
    are nonnegative, which the inequality checks rely on.
    """
    p, q = u[:-1], u[1:]
    d = q - p
    live = d > 0.0
    p, q, d = p[live], q[live], d[live]
    moment0 = (q**alpha - p**alpha) / alpha
    moment1 = (q ** (alpha + 1.0) - p ** (alpha + 1.0)) / (alpha + 1.0)
    left = (q * moment0 - moment1) / d
    right = (moment1 - p * moment0) / d
    lo = fvals[:-1][live]
    hi = fvals[1:][live]
    return float(np.dot(left, lo) + np.dot(right, hi))


def hadamard_integral_graded(f, alpha, t, n=512):
    """Fractional integral of order alpha at t on a graded product-trapezoid mesh.

    Independent of the Gauss route: integrates u^(alpha-1) f(t e^-u) over
    u in [0, ln t] with exact cell moments for the singular factor and a mesh
    graded toward u = 0.  Second-order accurate in 1/n for smooth f; the
    estimated error is the Richardson difference against the half mesh.
    """
    alpha = check_real("alpha", alpha)
    if alpha <= 0.0:
        raise DomainError(f"order alpha must be positive, got {alpha:g}")
    t = _check_t(t)
    n = check_int("mesh size n", n, 8, _MAX_MESH_CELLS)
    if t == 1.0:
        return OperatorResult(value=0.0, estimated_error=0.0, nodes_used=n + 1)
    length = math.log(t)

    def apply(m):
        u = _graded_mesh(alpha, length, m)
        tau = np.minimum(t, np.maximum(1.0, t * np.exp(-u)))
        return _product_trapezoid(_eval_on(f, tau), u, alpha) / gamma(alpha)

    with np.errstate(over="ignore", invalid="ignore"):  # high-order cell moments overflow
        value = apply(n)
        err = abs(value - apply(n // 2)) / 3.0
    if not math.isfinite(value + err):
        raise QuadratureError(f"graded integral overflows for alpha={alpha:g}, t={t:g}")
    return OperatorResult(value=value, estimated_error=err, nodes_used=n + 1)


def power_rule_integral(beta, alpha, t):
    """Closed form of the integral of order alpha applied to ln(tau)^(beta-1).

    Equals Gamma(beta)/Gamma(beta+alpha) * ln(t)^(beta+alpha-1), or else
    QuadratureError where that overflows.
    """
    beta = check_real("beta", beta)
    alpha = check_real("alpha", alpha)
    if beta <= 0.0:
        raise DomainError(f"exponent parameter beta must be positive, got {beta:g}")
    t = _check_t(t)
    exponent = beta + alpha - 1.0
    if t == 1.0 and exponent < 0.0:
        raise DomainError(f"closed form diverges at t = 1 for the exponent {exponent:g} < 0")
    try:
        value = gamma(beta) / gamma(beta + alpha) * math.log(t) ** exponent
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise QuadratureError(f"closed form overflows for beta={beta:g}, alpha={alpha:g}, t={t:g}")
    return value


def power_rule_derivative(beta, alpha, t):
    """Closed form of the derivative of order alpha applied to ln(tau)^(beta-1).

    Equals Gamma(beta)/Gamma(beta-alpha) * ln(t)^(beta-alpha-1), the integral's
    at order -alpha; requires beta > alpha so the image stays in the family.
    """
    beta = check_real("beta", beta)
    alpha = check_real("alpha", alpha)
    if alpha <= 0.0:
        raise DomainError(f"order alpha must be positive, got {alpha:g}")
    if beta <= alpha:
        raise DomainError(
            f"need beta > alpha for the closed form, got beta={beta:g}, alpha={alpha:g}"
        )
    # beta + (-alpha) rounds exactly as beta - alpha does.
    return power_rule_integral(beta, -alpha, t)


def hadamard_derivative(f, alpha, t, nodes=64):
    """Fractional derivative of order 0 < alpha < 1 at t > 1.

    Computed as t * d/dt of the complementary integral of order 1 - alpha,
    with a central difference in t.  estimated_error is t times half the
    spread between the one-sided slopes: large when f is not smooth enough
    near t for the step size in use.  It does not see the quadrature
    truncation of the complementary integral, so too few nodes can leave a
    wrong value with a small estimate.
    """
    alpha = check_real("alpha", alpha)
    if not 0.0 < alpha <= 1.0 - MIN_RULE_ALPHA:
        raise DomainError(
            f"derivative order must lie in (0, {1.0 - MIN_RULE_ALPHA:g}], got {alpha:g}: above, "
            f"the complementary rule of order below {MIN_RULE_ALPHA:g} is not certifiable"
        )
    t = _check_t(t)
    if t == 1.0:
        raise DomainError("derivative needs t > 1")
    h = min(_FD_REL_STEP * t, 0.25 * (t - 1.0))

    def anti(point):
        measure = Measure(1.0 - alpha, point, nodes)
        return measure.integral(_eval_on(f, measure.tau))

    upper = anti(t + h)
    lower = anti(t - h)
    center = anti(t)
    central_slope = (upper - lower) / (2.0 * h)
    forward = (upper - center) / h
    backward = (center - lower) / h
    value = t * central_slope
    err = t * abs(forward - backward) / 2.0
    return OperatorResult(value=value, estimated_error=err, nodes_used=nodes)


def semigroup_residual(f, alpha, beta, t, n=64):
    """Relative defect of composing orders alpha and beta against alpha + beta.

    Evaluates I^alpha applied to tau -> I^beta f(tau) and compares with
    I^(alpha+beta) f(t) computed directly at doubled resolution.  The outer
    quadrature absorbs the (1-s)^beta vanishing of the inner integral at the
    upper endpoint into its weight, keeping the composed route spectrally
    accurate.  Returns |nested - direct| / max(1, |direct|).
    """
    alpha = check_real("alpha", alpha)
    beta = check_real("beta", beta)
    if beta <= 0.0:
        raise DomainError(f"inner order beta must be positive, got {beta:g}")
    t = _check_t(t)
    n = check_int("nodes", n, 16, MAX_RULE_NODES // 2)
    direct = hadamard_integral(f, alpha + beta, t, nodes=2 * n, estimate_error=False).value
    outer = Measure(alpha, t, n, beta)
    if t == 1.0:
        return 0.0
    inner_nodes, inner_weights = build_jacobi_rule(beta, n)
    log_t = math.log(t)
    # tau_i = t^(1-s_i); inner arguments tau_i^(1-sigma_j) in one matrix.
    outer_exp = 1.0 - outer.nodes
    inner_args = t ** np.outer(outer_exp, 1.0 - inner_nodes)
    inner_args = np.minimum(t, np.maximum(1.0, inner_args))
    fvals = _eval_on(f, inner_args)
    inner_pref = (outer_exp * log_t) ** beta / gamma(beta)
    # An overflow here reaches the integral as inf or nan, which
    # Measure.integral reports as QuadratureError.
    with np.errstate(over="ignore", invalid="ignore"):
        nested = outer.integral(inner_pref * (fvals @ inner_weights))
    return abs(nested - direct) / max(1.0, abs(direct))

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

from .errors import DomainError, QuadratureError, RoughnessWarning
from .gammafn import gamma
from .jacobi import MIN_RULE_ALPHA, build_jacobi_rule, jacobi_rule_01

import math
import warnings

# Largest admissible mesh grading exponent; beyond this the first cell width
# underflows for practical mesh sizes.
_MAX_GRADING = 40.0

# Relative step for the central difference inside the derivative operator.
_FD_REL_STEP = 1e-5

# One-sided vs central slope disagreement that triggers RoughnessWarning.
_ROUGHNESS_TOL = 1e-3


@dataclass(frozen=True)
class OperatorResult:
    """Value of an operator application plus an internal error estimate.

    estimated_error is an absolute, heuristic bound: rule doubling for the
    spectral route, Richardson difference for the graded route, one-sided
    slope spread for the derivative.  nodes_used counts quadrature nodes in
    the primary evaluation, not in the error estimate.
    """

    value: float
    estimated_error: float
    nodes_used: int


def _as_float(name, value):
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise DomainError(f"{name} must be finite, got {out!r}")
    return out


def _check_t(t):
    t = _as_float("t", t)
    if t < 1.0:
        raise DomainError(f"evaluation point t must satisfy t >= 1, got {t:g}")
    return t


def _eval_on(f, args):
    """Evaluate f on an argument vector, accepting scalar-only callables."""
    try:
        arr = np.asarray(f(args), dtype=float)
        vectorized = arr.shape == args.shape
    except (TypeError, ValueError):
        vectorized = False
    if not vectorized:
        arr = np.fromiter((float(f(float(a))) for a in args.ravel()), dtype=float, count=args.size)
        arr = arr.reshape(args.shape)
    if not np.all(np.isfinite(arr)):
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

    Every weight is positive, so an inequality between integrands that holds
    at the points tau_i also holds between their integrals.  A prebuilt
    `rule` of order alpha replaces the cached n-node rule.
    """

    __slots__ = ("t", "tau", "weights", "prefactor")

    def __init__(self, alpha, t, n, rule=None):
        t = _check_t(t)
        alpha = _as_float("alpha", alpha)
        if rule is None:
            rule = build_jacobi_rule(alpha, int(n))
        self.t = t
        try:
            self.prefactor = math.log(t) ** alpha / gamma(alpha)
        except OverflowError as exc:
            raise QuadratureError(f"(ln t)^alpha overflows for alpha={alpha:g}, t={t:g}") from exc
        self._place(rule.nodes, rule.weights)

    def _place(self, nodes, weights):
        self.tau = np.minimum(self.t, np.maximum(1.0, self.t ** (1.0 - nodes)))
        self.weights = weights

    def with_rule(self, nodes, weights):
        """The same prefactor on another rule for the weight s^(alpha-1)."""
        other = object.__new__(Measure)
        other.t, other.prefactor = self.t, self.prefactor
        other._place(nodes, weights)
        return other

    def integral(self, values):
        """prefactor * sum_i w_i values_i, for the values of f at `tau`."""
        value = self.prefactor * float(np.dot(self.weights, values))
        if not math.isfinite(value):
            raise QuadratureError(f"integral overflows at t={self.t:g}")
        return value


def hadamard_integral(f, alpha, t, rule=None, nodes=64, estimate_error=True,
                      endpoint_exponent=0.0):
    """Fractional integral of order alpha at t, by Gauss-Jacobi quadrature.

    f must accept a numpy array of points in [1, t] (scalars also work, at a
    per-point call cost).  A prebuilt rule may be supplied; it must match
    alpha.  Returns an OperatorResult.  With estimate_error the rule is
    doubled once and the difference reported; spectral convergence makes that
    a reliable bound for smooth f.

    When f is known to behave like (ln tau)^g times a smooth function as
    tau -> 1, passing endpoint_exponent=g absorbs that algebraic factor into
    the quadrature weight, restoring spectral accuracy that a plain rule
    loses for non-integer g.
    """
    t = _check_t(t)
    alpha = _as_float("alpha", alpha)
    gam = _as_float("endpoint_exponent", endpoint_exponent)
    if gam <= -1.0:
        raise DomainError(
            f"endpoint exponent must exceed -1 for integrability, got {gam:g}"
        )
    if rule is not None:
        if gam != 0.0:
            raise DomainError("pass either a prebuilt rule or an endpoint exponent")
        if rule.alpha != alpha:
            raise DomainError(
                f"rule was built for order {rule.alpha:g}, not {alpha:g}"
            )
        count = rule.count
    else:
        count = int(nodes)
        rule = build_jacobi_rule(alpha, count)  # validates (alpha, n) up front
    if t == 1.0:
        return OperatorResult(value=0.0, estimated_error=0.0, nodes_used=count)
    measure = Measure(alpha, t, count, rule)

    def apply(n):
        if gam != 0.0:
            s, w = jacobi_rule_01(n, alpha - 1.0, gam)
            # Dividing out the absorbed factor turns the rule back into one
            # for the plain weight s^(alpha-1), applied to f directly.
            m = measure.with_rule(s, w / (1.0 - s) ** gam)
        elif n != count:
            r = build_jacobi_rule(alpha, n)
            m = measure.with_rule(r.nodes, r.weights)
        else:
            m = measure
        return m.integral(_eval_on(f, m.tau))

    value = apply(count)
    err = abs(apply(2 * count) - value) if estimate_error else 0.0
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
    alpha = _as_float("alpha", alpha)
    if alpha <= 0.0:
        raise DomainError(f"order alpha must be positive, got {alpha:g}")
    t = _check_t(t)
    n = int(n)
    if n < 8:
        raise DomainError(f"mesh size must be an integer >= 8, got {n}")
    if t == 1.0:
        return OperatorResult(value=0.0, estimated_error=0.0, nodes_used=n + 1)
    length = math.log(t)

    def apply(m):
        u = _graded_mesh(alpha, length, m)
        tau = np.minimum(t, np.maximum(1.0, t * np.exp(-u)))
        return _product_trapezoid(_eval_on(f, tau), u, alpha) / gamma(alpha)

    value = apply(n)
    err = abs(value - apply(n // 2)) / 3.0
    return OperatorResult(value=value, estimated_error=err, nodes_used=n + 1)


def power_rule_integral(beta, alpha, t):
    """Closed form of the integral of order alpha applied to ln(tau)^(beta-1).

    Equals Gamma(beta)/Gamma(beta+alpha) * ln(t)^(beta+alpha-1).
    """
    beta = _as_float("beta", beta)
    alpha = _as_float("alpha", alpha)
    if beta <= 0.0:
        raise DomainError(f"exponent parameter beta must be positive, got {beta:g}")
    t = _check_t(t)
    exponent = beta + alpha - 1.0
    if t == 1.0 and exponent < 0.0:
        raise DomainError("closed form diverges at t = 1 for beta + alpha < 1")
    return gamma(beta) / gamma(beta + alpha) * math.log(t) ** exponent


def power_rule_derivative(beta, alpha, t):
    """Closed form of the derivative of order alpha applied to ln(tau)^(beta-1).

    Equals Gamma(beta)/Gamma(beta-alpha) * ln(t)^(beta-alpha-1); requires
    beta > alpha so the image stays in the same family.
    """
    beta = _as_float("beta", beta)
    alpha = _as_float("alpha", alpha)
    if alpha <= 0.0:
        raise DomainError(f"order alpha must be positive, got {alpha:g}")
    if beta <= alpha:
        raise DomainError(
            f"need beta > alpha for the closed form, got beta={beta:g}, alpha={alpha:g}"
        )
    t = _check_t(t)
    exponent = beta - alpha - 1.0
    if t == 1.0 and exponent < 0.0:
        raise DomainError("closed form diverges at t = 1 for beta - alpha < 1")
    return gamma(beta) / gamma(beta - alpha) * math.log(t) ** exponent


def hadamard_derivative(f, alpha, t, rule=None, nodes=64):
    """Fractional derivative of order 0 < alpha < 1 at t > 1.

    Computed as t * d/dt of the complementary integral of order 1 - alpha,
    with a central difference in t.  A prebuilt rule, if supplied, must be
    for the complementary order.  A spread between the one-sided slopes
    beyond 0.1% raises RoughnessWarning, signalling that f is not smooth
    enough near t for the step size in use.
    """
    alpha = _as_float("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(
            f"derivative order must lie in (0, 1), got {alpha:g}"
        )
    if 1.0 - alpha < MIN_RULE_ALPHA:
        raise DomainError(
            f"derivative orders above {1.0 - MIN_RULE_ALPHA:g} need a "
            f"complementary rule of order below {MIN_RULE_ALPHA:g}, which is "
            "not certifiable"
        )
    t = _check_t(t)
    if t == 1.0:
        raise DomainError("derivative needs t > 1")
    if rule is None:
        rule = build_jacobi_rule(1.0 - alpha, int(nodes))
    elif rule.alpha != 1.0 - alpha:
        raise DomainError(
            f"rule was built for order {rule.alpha:g}; the derivative of "
            f"order {alpha:g} needs the complementary order {1.0 - alpha:g}"
        )
    h = min(_FD_REL_STEP * t, 0.25 * (t - 1.0))

    def anti(point):
        return hadamard_integral(f, 1.0 - alpha, point, rule=rule, estimate_error=False).value

    upper = anti(t + h)
    lower = anti(t - h)
    center = anti(t)
    central_slope = (upper - lower) / (2.0 * h)
    forward = (upper - center) / h
    backward = (center - lower) / h
    scale = max(abs(central_slope), abs(forward), abs(backward), 1e-300)
    spread = abs(forward - backward) / scale
    # For smooth f the one-sided slopes differ by O(h f''); a large spread
    # at this step size means the difference quotient is unreliable.
    if spread > _ROUGHNESS_TOL and abs(forward - backward) > 1e-12:
        warnings.warn(
            f"one-sided slopes disagree by {spread:.2e} at t={t:g}; "
            "result may be inaccurate for non-smooth input",
            RoughnessWarning,
            stacklevel=2,
        )
    value = t * central_slope
    err = t * abs(forward - backward) / 2.0
    return OperatorResult(value=value, estimated_error=err, nodes_used=rule.count)


def semigroup_residual(f, alpha, beta, t, n=64):
    """Relative defect of composing orders alpha and beta against alpha + beta.

    Evaluates I^alpha applied to tau -> I^beta f(tau) and compares with
    I^(alpha+beta) f(t) computed directly at doubled resolution.  The outer
    quadrature absorbs the (1-s)^beta vanishing of the inner integral at the
    upper endpoint into its weight, keeping the composed route spectrally
    accurate.  Returns |nested - direct| / max(1, |direct|).
    """
    alpha = _as_float("alpha", alpha)
    beta = _as_float("beta", beta)
    if alpha < MIN_RULE_ALPHA:
        raise DomainError(
            f"outer order alpha must be >= {MIN_RULE_ALPHA:g}, got {alpha:g}"
        )
    if beta <= 0.0:
        raise DomainError(f"inner order beta must be positive, got {beta:g}")
    t = _check_t(t)
    n = int(n)
    if n < 16:
        raise DomainError(f"semigroup check needs n >= 16, got {n}")
    direct = hadamard_integral(f, alpha + beta, t, nodes=2 * n, estimate_error=False).value
    if t == 1.0:
        return 0.0
    # Outer rule for weight s^(alpha-1) (1-s)^beta; dividing the weights by
    # (1-s)^beta then applies the plain s^(alpha-1) rule to an integrand whose
    # endpoint zero has been made explicit.
    s, w = jacobi_rule_01(n, alpha - 1.0, beta)
    v = w / (1.0 - s) ** beta
    inner_rule = build_jacobi_rule(beta, n)
    log_t = math.log(t)
    # tau_i = t^(1-s_i); inner arguments tau_i^(1-sigma_j) in one matrix.
    outer_exp = 1.0 - s
    inner_args = t ** np.outer(outer_exp, 1.0 - inner_rule.nodes)
    inner_args = np.minimum(t, np.maximum(1.0, inner_args))
    fvals = _eval_on(f, inner_args)
    inner_pref = (outer_exp * log_t) ** beta / gamma(beta)
    g_outer = inner_pref * (fvals @ inner_rule.weights)
    nested = log_t**alpha / gamma(alpha) * float(np.dot(v, g_outer))
    return abs(nested - direct) / max(1.0, abs(direct))

"""Numerical verification of log-kernel fractional integral inequalities.

Each check evaluates both sides of one proven inequality for the Hadamard
fractional integral and returns a structured report.  The short identifiers
below name the nine checks shared by the fuzzing harness, the CSV schema,
and the command line:

  T31      Polya-Szego type bound, one order, four envelope functions
  T32      Polya-Szego type bound, two orders
  T33      product bound built from pointwise envelope ratios
  P31      constant-envelope Polya-Szego ratio, one order
  P32      constant-envelope ratio with an explicit two-order prefactor
  P33      constant-envelope product comparison across two orders
  T34      Minkowski-type bound obtained through a Young splitting
  YOUNG    Young product bound
  POWMEAN  power-mean bound for (x + y)^r

T34 and YOUNG take an exponent p > 1 and use its conjugate q = p / (p - 1),
so 1/p + 1/q = 1 holds by construction; POWMEAN takes its exponent r > 1.

Every inequality here is a proven theorem, so a failed check indicates a
numerical or transcription bug, never new mathematics.  The pass rule
(lhs <= bound * (1 + REL_TOL) + ABS_TOL) absorbs only round-off, so both
tolerances are constants, not options: a report carries lhs and bound,
from which a caller can judge it at any other threshold.

Every check runs on the positive discrete measure that the Gauss-Jacobi
rule of each order induces at t (`operators.Measure`).  A check is its
argument checks, its hypothesis and its formula, a function of the
measures' integrals, the sampled values and the check's constants; one
driver, `_verify`, does the rest for all nine.  It evaluates each function
once, at a geometric grid on [1, t] plus every node of every measure,
checks the hypothesis on those values and applies the formula to the same
values.  So the hypotheses hold at exactly the points the integrals use,
where each inequality holds for the measure itself.  A violation raises
EnvelopeError naming the smallest offending point.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EnvelopeError, QuadratureError, check_real
from .operators import Measure, _eval_on, power_rule_integral

REL_TOL = 1e-9
ABS_TOL = 1e-12

# Points of the geometric grid on [1, t] at which each check samples its
# functions, besides the nodes of its measures.
ENVELOPE_SAMPLES = 256

# Exponents of the geometric grid: t ** _UNIT spans [1, t].
_UNIT = np.linspace(0.0, 1.0, ENVELOPE_SAMPLES)

# The names of a check's orders, in the order it takes them.
_ORDERS = ("alpha", "beta")


class TheoremId(str, enum.Enum):
    """Identifiers for the nine inequality checks."""

    T31 = "T31"
    T32 = "T32"
    T33 = "T33"
    P31 = "P31"
    P32 = "P32"
    P33 = "P33"
    T34 = "T34"
    YOUNG = "YOUNG"
    POWMEAN = "POWMEAN"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown theorem id {value!r}, not one of {[m.value for m in cls]}")


@dataclass(frozen=True)
class BoundingQuadruple:
    """Four positive functions with u1 <= x <= u2 and v1 <= y <= v2."""

    u1: object
    u2: object
    v1: object
    v2: object


@dataclass(frozen=True)
class ConstantBounds:
    """Constant bands 0 < m <= x <= M and 0 < n_lo <= y <= N_hi."""

    m: float
    M: float
    n_lo: float
    N_hi: float

    def __post_init__(self):
        _check_fields(self)
        if not (0.0 < self.m <= self.M):
            raise DomainError(f"need 0 < m <= M, got m={self.m:g}, M={self.M:g}")
        if not (0.0 < self.n_lo <= self.N_hi):
            raise DomainError(
                f"need 0 < n_lo <= N_hi, got n_lo={self.n_lo:g}, N_hi={self.N_hi:g}"
            )


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check.

    `passed` is the fixed rule lhs <= bound * (1 + REL_TOL) + ABS_TOL;
    `ratio` is lhs / bound (infinite only when bound = 0 < lhs) and
    `margin` is bound - lhs.  `params` records alpha, beta, t, p, q as
    applicable, plus check-specific extras; `seed` is set for fuzzed
    trials.
    """

    theorem_id: TheoremId
    lhs: float
    bound: float
    ratio: float
    margin: float
    passed: bool
    params: dict = field(default_factory=dict)
    seed: int | None = None


def _check_fields(record):
    """Store each field of a frozen dataclass as a finite float, or DomainError."""
    for name in record.__dataclass_fields__:
        object.__setattr__(record, name, check_real(name, getattr(record, name)))


def _exponent(name, value):
    """An exponent as a float, or DomainError unless it exceeds 1."""
    value = check_real(name, value)
    if not value > 1.0:
        raise DomainError(f"need {name} > 1, got {value:g}")
    return value


def conjugate_exponent(p):
    """The exponent q with 1/p + 1/q = 1, for an exponent p > 1."""
    return p / (p - 1.0)


def _report(theorem_id, lhs, bound, params):
    lhs = float(lhs)
    bound = float(bound)
    if not (math.isfinite(lhs) and math.isfinite(bound)):
        raise QuadratureError(
            f"{theorem_id.value}: non-finite result, lhs={lhs!r}, bound={bound!r}"
        )
    if bound != 0.0:
        ratio = lhs / bound
    else:
        ratio = math.inf if lhs > 0.0 else 1.0
    return InequalityReport(
        theorem_id=theorem_id,
        lhs=lhs,
        bound=bound,
        ratio=ratio,
        margin=bound - lhs,
        passed=bool(lhs <= bound * (1.0 + REL_TOL) + ABS_TOL),
        params=params,
    )


def _require(tau, name, *conditions):
    """Raise EnvelopeError at the smallest sample point where a hypothesis fails.

    Each condition is (holds, reason), with `holds` an elementwise
    comparison of sampled values.  A point fails unless its comparison is
    True, so a NaN never passes.  `holds` may also be one bool for every
    point, as when an envelope is a number.
    """
    for holds, reason in conditions:
        if holds is True or (isinstance(holds, np.ndarray) and holds.all()):
            continue
        bad = np.flatnonzero(np.logical_not(holds))
        if bad.size:
            where = float(tau[bad].min())
            raise EnvelopeError(f"{name}: {reason} at tau={where!r}", tau=where)


def _quotient(num, den):
    """num / den for a ratio check; den is 0 where every integral vanishes (t = 1)."""
    if den == 0.0:
        raise DomainError("the ratio of integrals is 0/0 where they vanish, at t = 1")
    return num / den


def _verify(theorem_id, orders, t, nodes, functions, hypothesis, formula, constants=()):
    """Sample, check and report one inequality: the work shared by the nine checks.

    Evaluates each of `functions` once, at tau: a geometric grid of
    ENVELOPE_SAMPLES points on [1, t], then the nodes of the measure of each
    order in turn (unsorted, duplicates kept).  hypothesis(tau, *values,
    *constants) must pass; formula(*integrals, *values, *constants) gives
    (lhs, bound) or (lhs, bound, extra params), where integrals[k] maps
    values at tau to their integral under the measure of orders[k].

    A Python float overflow (x ** p) or division by an underflowed product
    (m * n_lo of tiny bands) becomes QuadratureError.  NumPy runs with its
    overflow warnings off: an overflowing array reaches Measure.integral or
    _report as inf or NaN, and they raise.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            measures = [Measure(o, t, nodes, name=name) for name, o in zip(_ORDERS, orders)]
            grid = measures[0].t ** _UNIT
            tau = np.concatenate([grid, *(m.tau for m in measures)])
            ends = np.cumsum([grid.size, *(m.tau.size for m in measures)]).tolist()
            integrals = [
                lambda v, m=m, a=a, b=b: m.integral(v[a:b])
                for m, a, b in zip(measures, ends, ends[1:])
            ]
            values = [_eval_on(f, tau) for f in functions]
            hypothesis(tau, *values, *constants)
            lhs, bound, *extra = formula(*integrals, *values, *constants)
    except (OverflowError, ZeroDivisionError) as exc:
        raise QuadratureError(f"{theorem_id.value}: {exc}") from exc
    params = dict(zip(_ORDERS, map(float, orders)), t=measures[0].t)
    params.update(*extra)
    return _report(theorem_id, lhs, bound, params)


# The hypotheses.  Each takes the sample points, the sampled values and the
# check's constants, which lead with its envelopes; it ignores the rest.
def _bands(tau, x, y, u1, u2, v1, v2, *_):
    """Hypothesis of T31-T33 and P31-P33: 0 < u1 <= x <= u2, 0 < v1 <= y <= v2."""
    for name, v, lo, hi in (("x", x, u1, u2), ("y", y, v1, v2)):
        _require(tau, name, (lo > 0.0, "lower envelope is not strictly positive"),
                 (lo <= v, "function drops below its lower envelope"),
                 (v <= hi, "function exceeds its upper envelope"))


def _signs(tau, x, y, *_):
    """Hypothesis of YOUNG and POWMEAN: x, y >= 0."""
    _require(tau, "x", (x >= 0.0, "function is negative"))
    _require(tau, "y", (y >= 0.0, "function is negative"))


def _open_ratio(tau, x, y, m, M, *_):
    """Hypothesis of T34: y > 0 and m < x/y < M."""
    _require(tau, "y", (y > 0.0, "function is not strictly positive"))
    ratio = x / y
    _require(tau, "x/y", ((m < ratio) & (ratio < M), f"leaves the open interval ({m:g}, {M:g})"))


# The formulas.  Each maps the integrals, the sampled values and the
# check's constants to (lhs, bound) or (lhs, bound, extra params).
def _t31(ia, x, y, u1, u2, v1, v2):
    lhs = ia(v1 * v2 * x**2) * ia(u1 * u2 * y**2)
    bound = 0.25 * ia((v1 * u1 + v2 * u2) * x * y) ** 2
    return lhs, bound


def _t32(ia, ib, x, y, u1, u2, v1, v2):
    lhs = ia(u1 * u2) * ib(v1 * v2) * ia(x**2) * ib(y**2)
    cross = ia(u1 * x) * ib(v1 * y) + ia(u2 * x) * ib(v2 * y)
    return lhs, 0.25 * cross**2


def _t33(ia, ib, x, y, u1, u2, v1, v2):
    lhs = ia(x**2) * ib(y**2)
    bound = ia(u2 * x * y / v1) * ib(v2 * x * y / u1)
    return lhs, bound


def _constant_ps_bound(m, M, n_lo, N_hi):
    low = m * n_lo
    high = M * N_hi
    root = math.sqrt(low / high) + math.sqrt(high / low)
    return 0.25 * root**2


def _p31(ia, x, y, m, M, n_lo, N_hi):
    lhs = _quotient(ia(x**2) * ia(y**2), ia(x * y) ** 2)
    return lhs, _constant_ps_bound(m, M, n_lo, N_hi)


def _p32(ia, ib, x, y, m, M, n_lo, N_hi, alpha, beta, t):
    prefactor = power_rule_integral(1.0, alpha, t) * power_rule_integral(1.0, beta, t)
    lhs = _quotient(prefactor * ia(x**2) * ib(y**2), (ia(x) * ib(y)) ** 2)
    return lhs, _constant_ps_bound(m, M, n_lo, N_hi)


def _p33(ia, ib, x, y, m, M, n_lo, N_hi):
    lhs = ia(x**2) * ib(y**2)
    factor = (M * N_hi) / (m * n_lo)
    bound = factor * ia(x * y) * ib(x * y)
    return lhs, bound


def _t34(ia, x, y, m, M, p):
    q = conjugate_exponent(p)
    c_p = 2.0 ** (p - 1.0) * M**p / (p * (M + 1.0) ** p)
    c_q = 2.0 ** (q - 1.0) / (q * (m + 1.0) ** q)
    bound = c_p * ia(x**p + y**p) + c_q * ia(x**q + y**q)
    mid = (1.0 / p) * (M / (M + 1.0)) ** p * ia((x + y) ** p) + (
        (1.0 / q) * (1.0 / (m + 1.0)) ** q * ia((x + y) ** q))
    return ia(x * y), bound, dict(p=p, q=q, m=m, M=M, young_mid=mid)


def _young(ia, x, y, p):
    q = conjugate_exponent(p)
    bound = (1.0 / p) * ia(x**p) + (1.0 / q) * ia(y**q)
    return ia(x * y), bound, dict(p=p, q=q)


def _powmean(ia, x, y, r):
    bound = 2.0 ** (r - 1.0) * ia(x**r + y**r)
    return ia((x + y) ** r), bound, dict(r=r)


def polya_szego_single(x, y, env, alpha, t, *, nodes=64):
    """One-order Polya-Szego type check (T31).

    lhs   = I^a{v1 v2 x^2}(t) * I^a{u1 u2 y^2}(t)
    bound = (1/4) * (I^a{(v1 u1 + v2 u2) x y}(t))^2
    """
    functions = (x, y, env.u1, env.u2, env.v1, env.v2)
    return _verify(TheoremId.T31, (alpha,), t, nodes, functions, _bands, _t31)


def polya_szego_double(x, y, env, alpha, beta, t, *, nodes=64):
    """Two-order Polya-Szego type check (T32).

    lhs   = I^a{u1 u2}(t) I^b{v1 v2}(t) I^a{x^2}(t) I^b{y^2}(t)
    bound = (1/4) * (I^a{u1 x}(t) I^b{v1 y}(t) + I^a{u2 x}(t) I^b{v2 y}(t))^2
    """
    functions = (x, y, env.u1, env.u2, env.v1, env.v2)
    return _verify(TheoremId.T32, (alpha, beta), t, nodes, functions, _bands, _t32)


def product_bound(x, y, env, alpha, beta, t, *, nodes=64):
    """Envelope-ratio product check (T33).

    lhs   = I^a{x^2}(t) * I^b{y^2}(t)
    bound = I^a{u2 x y / v1}(t) * I^b{v2 x y / u1}(t)

    Positivity of u1 and v1 is part of the envelope hypothesis, so the
    divisions are safe once the precondition check passes.
    """
    functions = (x, y, env.u1, env.u2, env.v1, env.v2)
    return _verify(TheoremId.T33, (alpha, beta), t, nodes, functions, _bands, _t33)


def constant_polya_szego(x, y, cb, alpha, t, *, nodes=64):
    """Constant-envelope Polya-Szego ratio check (P31).

    lhs   = I^a{x^2}(t) I^a{y^2}(t) / (I^a{x y}(t))^2
    bound = (1/4) * (sqrt(m n / (M N)) + sqrt(M N / (m n)))^2
    """
    bands = (cb.m, cb.M, cb.n_lo, cb.N_hi)
    return _verify(TheoremId.P31, (alpha,), t, nodes, (x, y), _bands, _p31, bands)


def constant_polya_szego_two_order(x, y, cb, alpha, beta, t, *, nodes=64):
    """Two-order constant-envelope ratio check (P32).

    lhs   = prefactor * I^a{x^2}(t) I^b{y^2}(t) / (I^a{x}(t) I^b{y}(t))^2
    bound = as in the one-order constant check

    The prefactor (ln t)^(a+b) / (Gamma(a+1) Gamma(b+1)) is evaluated as
    I^a{1}(t) * I^b{1}(t) through the power rule; the two agree to
    round-off, which a unit test pins down.
    """
    constants = (cb.m, cb.M, cb.n_lo, cb.N_hi, alpha, beta, t)
    return _verify(TheoremId.P32, (alpha, beta), t, nodes, (x, y), _bands, _p32, constants)


def ratio_bound_constant(x, y, cb, alpha, beta, t, *, nodes=64):
    """Constant-envelope product comparison across two orders (P33).

    lhs   = I^a{x^2}(t) * I^b{y^2}(t)
    bound = (M N / (m n)) * I^a{x y}(t) * I^b{x y}(t)
    """
    bands = (cb.m, cb.M, cb.n_lo, cb.N_hi)
    return _verify(TheoremId.P33, (alpha, beta), t, nodes, (x, y), _bands, _p33, bands)


def minkowsky_related(x, y, p, m, M, alpha, t, *, nodes=64):
    """Minkowski-type check via a Young splitting (T34).

    Takes an exponent p > 1 and uses its conjugate q = p / (p - 1).  Requires
    0 < m < x/y < M pointwise, with M finite.  Then

      lhs   = I^a{x y}(t)
      bound = (2^(p-1) M^p / (p (M+1)^p)) * I^a{x^p + y^p}(t)
            + (2^(q-1) / (q (m+1)^q))     * I^a{x^q + y^q}(t)

    The intermediate Young bound

      mid = (1/p) (M/(M+1))^p I^a{(x+y)^p}(t)
          + (1/q) (1/(m+1))^q I^a{(x+y)^q}(t)

    satisfies lhs <= mid <= bound pointwise in exact arithmetic; it is
    recorded in params["young_mid"] so the chain can be audited.
    """
    p = _exponent("p", p)
    m, M = check_real("m", m), check_real("M", M)
    if not (0.0 < m < M):
        raise DomainError(f"need 0 < m < M, got m={m:g}, M={M:g}")
    return _verify(TheoremId.T34, (alpha,), t, nodes, (x, y), _open_ratio, _t34, (m, M, p))


def young_pointwise_check(x, y, p, alpha, t, *, nodes=64):
    """Young product check (YOUNG): I^a{x y} <= I^a{x^p}/p + I^a{y^q}/q.

    Takes an exponent p > 1; q = p / (p - 1) is its conjugate.
    """
    p = _exponent("p", p)
    return _verify(TheoremId.YOUNG, (alpha,), t, nodes, (x, y), _signs, _young, (p,))


def power_mean_check(x, y, r, alpha, t, *, nodes=64):
    """Power-mean check (POWMEAN): I^a{(x+y)^r} <= 2^(r-1) I^a{x^r + y^r}."""
    r = _exponent("r", r)
    return _verify(TheoremId.POWMEAN, (alpha,), t, nodes, (x, y), _signs, _powmean, (r,))

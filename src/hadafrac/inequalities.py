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

Every inequality here is a proven theorem, so a failed check indicates a
numerical or transcription bug, never new mathematics.  The tolerance
policy (pass iff lhs <= bound * (1 + rel_tol) + ABS_TOL) absorbs only
round-off.

Every check runs on the positive discrete measure that the Gauss-Jacobi
rule of each order induces at t (`operators.Measure`).  Each function is
evaluated once, at a geometric grid on [1, t] plus every node of every
measure; the hypotheses are checked on those values, and the integrals
are the measures applied to the same values.  So the hypotheses hold at
exactly the points the integrals use, where each inequality holds for
the measure itself.  A violation raises EnvelopeError naming the smallest
offending point.
"""

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EnvelopeError, QuadratureError, check_int, check_real
from .operators import Measure, _eval_on, power_rule_integral

REL_TOL = 1e-9
ABS_TOL = 1e-12

# Points of the geometric grid on [1, t] at which each check samples its
# functions, besides the nodes of its measures.
ENVELOPE_SAMPLES = 256

# Exponents of the geometric grid: t ** _UNIT spans [1, t].
_UNIT = np.linspace(0.0, 1.0, ENVELOPE_SAMPLES)

HOLDER_TOL = 1e-12


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
class HolderPair:
    """Conjugate exponents p, q > 1 with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self):
        _check_fields(self)
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainError(f"need p, q > 1, got p={self.p:g}, q={self.q:g}")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > HOLDER_TOL:
            raise DomainError(
                f"exponents are not conjugate: 1/{self.p:g} + 1/{self.q:g} != 1"
            )

    @classmethod
    def conjugate(cls, p):
        """Build the pair (p, p / (p - 1)) from a single exponent p > 1."""
        p = check_real("p", p)
        if p <= 1.0:
            raise DomainError(f"need p > 1, got {p:g}")
        return cls(p, p / (p - 1.0))


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check.

    `passed` is lhs <= bound * (1 + rel_tol) + ABS_TOL; `ratio` is
    lhs / bound (infinite only when bound = 0 < lhs) and `margin` is
    bound - lhs.  `params` records alpha, beta, t, p, q as applicable,
    plus check-specific extras; `seed` is set for fuzzed trials.
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


def _check_rel_tol(rel_tol):
    rel_tol = check_real("rel_tol", rel_tol)
    if rel_tol < 0.0:
        raise DomainError(f"rel_tol must be >= 0, got {rel_tol!r}")
    return rel_tol


def _report(theorem_id, lhs, bound, params, seed, rel_tol):
    rel_tol = _check_rel_tol(rel_tol)
    if seed is not None:
        seed = check_int("seed", seed, -math.inf, math.inf)
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
        passed=bool(lhs <= bound * (1.0 + rel_tol) + ABS_TOL),
        params=params,
        seed=seed,
    )


def _finite(check):
    """Report a check's float overflow as QuadratureError.

    Python float arithmetic raises on overflow (x ** p) and on a division by
    a product that underflowed to zero (m * n_lo of tiny bands).
    """

    @functools.wraps(check)
    def checked(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise QuadratureError(f"{check.__name__}: {exc}") from exc

    return checked


def _sample(orders, t, nodes, *fns):
    """Measures of the given orders at t, and each of `fns` evaluated once.

    The sample points are a geometric grid of ENVELOPE_SAMPLES points on [1, t]
    followed by the nodes of each measure in turn, unsorted and with any
    duplicates kept.  Returns (tau, integrals, values, params): values[j]
    is fns[j] at tau, integrals[k] maps an array of values at tau to its
    integral under the measure of orders[k] (a contiguous slice of the
    array holds its nodes), and params records the orders as alpha (and
    beta) and t.
    """
    measures = [Measure(order, t, nodes) for order in orders]
    t = measures[0].t
    grid = t ** _UNIT
    tau = np.concatenate([grid, *(m.tau for m in measures)])
    ends = np.cumsum([grid.size, *(m.tau.size for m in measures)]).tolist()
    integrals = [
        lambda v, m=m, a=a, b=b: m.integral(v[a:b])
        for m, a, b in zip(measures, ends, ends[1:])
    ]
    values = [_eval_on(f, tau) for f in fns]
    params = dict(zip(("alpha", "beta"), map(float, orders)), t=t)
    return tau, integrals, values, params


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


def _between(v, lo, hi):
    """Conditions for 0 < lo <= v <= hi."""
    return (
        (lo > 0.0, "lower envelope is not strictly positive"),
        (lo <= v, "function drops below its lower envelope"),
        (v <= hi, "function exceeds its upper envelope"),
    )


def _require_bands(tau, xv, yv, u1, u2, v1, v2):
    """Hypothesis of T31-T33 and P31-P33: u1 <= x <= u2, v1 <= y <= v2."""
    _require(tau, "x", *_between(xv, u1, u2))
    _require(tau, "y", *_between(yv, v1, v2))


def _require_signs(tau, xv, yv):
    """Hypothesis of YOUNG and POWMEAN: x, y >= 0."""
    _require(tau, "x", (xv >= 0.0, "function is negative"))
    _require(tau, "y", (yv >= 0.0, "function is negative"))


def _quotient(num, den):
    """num / den for a ratio check; den is 0 where every integral vanishes (t = 1)."""
    if den == 0.0:
        raise DomainError("the ratio of integrals is 0/0 where they vanish, at t = 1")
    return num / den


@_finite
def polya_szego_single(x, y, env, alpha, t, *, nodes=64, rel_tol=REL_TOL, seed=None):
    """One-order Polya-Szego type check (T31).

    lhs   = I^a{v1 v2 x^2}(t) * I^a{u1 u2 y^2}(t)
    bound = (1/4) * (I^a{(v1 u1 + v2 u2) x y}(t))^2
    """
    tau, (ia,), (xv, yv, u1, u2, v1, v2), params = _sample(
        (alpha,), t, nodes, x, y, env.u1, env.u2, env.v1, env.v2
    )
    _require_bands(tau, xv, yv, u1, u2, v1, v2)
    lhs = ia(v1 * v2 * xv**2) * ia(u1 * u2 * yv**2)
    bound = 0.25 * ia((v1 * u1 + v2 * u2) * xv * yv) ** 2
    return _report(TheoremId.T31, lhs, bound, params, seed, rel_tol)


@_finite
def polya_szego_double(x, y, env, alpha, beta, t, *, nodes=64, rel_tol=REL_TOL, seed=None):
    """Two-order Polya-Szego type check (T32).

    lhs   = I^a{u1 u2}(t) I^b{v1 v2}(t) I^a{x^2}(t) I^b{y^2}(t)
    bound = (1/4) * (I^a{u1 x}(t) I^b{v1 y}(t) + I^a{u2 x}(t) I^b{v2 y}(t))^2
    """
    tau, (ia, ib), (xv, yv, u1, u2, v1, v2), params = _sample(
        (alpha, beta), t, nodes, x, y, env.u1, env.u2, env.v1, env.v2
    )
    _require_bands(tau, xv, yv, u1, u2, v1, v2)
    lhs = ia(u1 * u2) * ib(v1 * v2) * ia(xv**2) * ib(yv**2)
    cross = ia(u1 * xv) * ib(v1 * yv) + ia(u2 * xv) * ib(v2 * yv)
    return _report(TheoremId.T32, lhs, 0.25 * cross**2, params, seed, rel_tol)


@_finite
def product_bound(x, y, env, alpha, beta, t, *, nodes=64, rel_tol=REL_TOL, seed=None):
    """Envelope-ratio product check (T33).

    lhs   = I^a{x^2}(t) * I^b{y^2}(t)
    bound = I^a{u2 x y / v1}(t) * I^b{v2 x y / u1}(t)

    Positivity of u1 and v1 is part of the envelope hypothesis, so the
    divisions are safe once the precondition check passes.
    """
    tau, (ia, ib), (xv, yv, u1, u2, v1, v2), params = _sample(
        (alpha, beta), t, nodes, x, y, env.u1, env.u2, env.v1, env.v2
    )
    _require_bands(tau, xv, yv, u1, u2, v1, v2)
    lhs = ia(xv**2) * ib(yv**2)
    bound = ia(u2 * xv * yv / v1) * ib(v2 * xv * yv / u1)
    return _report(TheoremId.T33, lhs, bound, params, seed, rel_tol)


def _constant_ps_bound(cb):
    low = cb.m * cb.n_lo
    high = cb.M * cb.N_hi
    root = math.sqrt(low / high) + math.sqrt(high / low)
    return 0.25 * root**2


@_finite
def constant_polya_szego(x, y, cb, alpha, t, *, nodes=64, rel_tol=REL_TOL, seed=None):
    """Constant-envelope Polya-Szego ratio check (P31).

    lhs   = I^a{x^2}(t) I^a{y^2}(t) / (I^a{x y}(t))^2
    bound = (1/4) * (sqrt(m n / (M N)) + sqrt(M N / (m n)))^2
    """
    tau, (ia,), (xv, yv), params = _sample((alpha,), t, nodes, x, y)
    _require_bands(tau, xv, yv, cb.m, cb.M, cb.n_lo, cb.N_hi)
    lhs = _quotient(ia(xv**2) * ia(yv**2), ia(xv * yv) ** 2)
    return _report(TheoremId.P31, lhs, _constant_ps_bound(cb), params, seed, rel_tol)


@_finite
def constant_polya_szego_two_order(x, y, cb, alpha, beta, t, *,
                                   nodes=64, rel_tol=REL_TOL, seed=None):
    """Two-order constant-envelope ratio check (P32).

    lhs   = prefactor * I^a{x^2}(t) I^b{y^2}(t) / (I^a{x}(t) I^b{y}(t))^2
    bound = as in the one-order constant check

    The prefactor (ln t)^(a+b) / (Gamma(a+1) Gamma(b+1)) is evaluated as
    I^a{1}(t) * I^b{1}(t) through the power rule; the two agree to
    round-off, which a unit test pins down.
    """
    tau, (ia, ib), (xv, yv), params = _sample((alpha, beta), t, nodes, x, y)
    _require_bands(tau, xv, yv, cb.m, cb.M, cb.n_lo, cb.N_hi)
    prefactor = power_rule_integral(1.0, alpha, t) * power_rule_integral(1.0, beta, t)
    lhs = _quotient(prefactor * ia(xv**2) * ib(yv**2), (ia(xv) * ib(yv)) ** 2)
    return _report(TheoremId.P32, lhs, _constant_ps_bound(cb), params, seed, rel_tol)


@_finite
def ratio_bound_constant(x, y, cb, alpha, beta, t, *, nodes=64, rel_tol=REL_TOL, seed=None):
    """Constant-envelope product comparison across two orders (P33).

    lhs   = I^a{x^2}(t) * I^b{y^2}(t)
    bound = (M N / (m n)) * I^a{x y}(t) * I^b{x y}(t)
    """
    tau, (ia, ib), (xv, yv), params = _sample((alpha, beta), t, nodes, x, y)
    _require_bands(tau, xv, yv, cb.m, cb.M, cb.n_lo, cb.N_hi)
    lhs = ia(xv**2) * ib(yv**2)
    factor = (cb.M * cb.N_hi) / (cb.m * cb.n_lo)
    bound = factor * ia(xv * yv) * ib(xv * yv)
    return _report(TheoremId.P33, lhs, bound, params, seed, rel_tol)


@_finite
def minkowsky_related(x, y, hp, m, M, alpha, t, *, nodes=64, rel_tol=REL_TOL, seed=None):
    """Minkowski-type check via a Young splitting (T34).

    Requires 0 < m < x/y < M pointwise, with M finite.  Then

      lhs   = I^a{x y}(t)
      bound = (2^(p-1) M^p / (p (M+1)^p)) * I^a{x^p + y^p}(t)
            + (2^(q-1) / (q (m+1)^q))     * I^a{x^q + y^q}(t)

    The intermediate Young bound

      mid = (1/p) (M/(M+1))^p I^a{(x+y)^p}(t)
          + (1/q) (1/(m+1))^q I^a{(x+y)^q}(t)

    satisfies lhs <= mid <= bound pointwise in exact arithmetic; it is
    recorded in params["young_mid"] so the chain can be audited.
    """
    m, M = check_real("m", m), check_real("M", M)
    if not (0.0 < m < M):
        raise DomainError(f"need 0 < m < M, got m={m:g}, M={M:g}")
    tau, (ia,), (xv, yv), params = _sample((alpha,), t, nodes, x, y)
    _require(tau, "y", (yv > 0.0, "function is not strictly positive"))
    ratio = xv / yv
    _require(tau, "x/y", ((m < ratio) & (ratio < M), f"leaves the open interval ({m:g}, {M:g})"))
    p, q = hp.p, hp.q
    c_p = 2.0 ** (p - 1.0) * M**p / (p * (M + 1.0) ** p)
    c_q = 2.0 ** (q - 1.0) / (q * (m + 1.0) ** q)
    bound = c_p * ia(xv**p + yv**p) + c_q * ia(xv**q + yv**q)
    mid = (1.0 / p) * (M / (M + 1.0)) ** p * ia((xv + yv) ** p) + (1.0 / q) * (
        1.0 / (m + 1.0)
    ) ** q * ia((xv + yv) ** q)
    params.update(p=p, q=q, m=m, M=M, young_mid=mid)
    return _report(TheoremId.T34, ia(xv * yv), bound, params, seed, rel_tol)


@_finite
def young_pointwise_check(x, y, hp, alpha, t, *, nodes=64, rel_tol=REL_TOL, seed=None):
    """Young product check (YOUNG): I^a{x y} <= I^a{x^p}/p + I^a{y^q}/q."""
    tau, (ia,), (xv, yv), params = _sample((alpha,), t, nodes, x, y)
    _require_signs(tau, xv, yv)
    p, q = hp.p, hp.q
    bound = (1.0 / p) * ia(xv**p) + (1.0 / q) * ia(yv**q)
    params.update(p=p, q=q)
    return _report(TheoremId.YOUNG, ia(xv * yv), bound, params, seed, rel_tol)


@_finite
def power_mean_check(x, y, r, alpha, t, *, nodes=64, rel_tol=REL_TOL, seed=None):
    """Power-mean check (POWMEAN): I^a{(x+y)^r} <= 2^(r-1) I^a{x^r + y^r}."""
    r = check_real("r", r)
    if not r > 1.0:
        raise DomainError(f"need r > 1, got {r:g}")
    tau, (ia,), (xv, yv), params = _sample((alpha,), t, nodes, x, y)
    _require_signs(tau, xv, yv)
    bound = 2.0 ** (r - 1.0) * ia(xv**r + yv**r)
    params["r"] = r
    return _report(TheoremId.POWMEAN, ia((xv + yv) ** r), bound, params, seed, rel_tol)

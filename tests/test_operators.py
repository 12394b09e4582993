"""Operator checks against closed forms and the oracles of `oracles`.

The adaptive oracle integrates u^(alpha-1) f(t e^-u) over [0, ln t] with
scipy's algebraic-weight handling, and the exact oracle sums the closed form
of a polynomial in ln tau; neither shares code with the Gauss-Jacobi route
under test.
"""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import hyp1f1

from hadafrac.errors import DomainError, ExprEvalError, QuadratureError
from hadafrac.expressions import as_function, parse_expr
from hadafrac.fuzzing import FuzzConfig, run_fuzz
from hadafrac.gammafn import gamma
from hadafrac.inequalities import TheoremId
from hadafrac.operators import (
    OperatorResult,
    hadamard_derivative,
    hadamard_integral,
    power_rule_derivative,
    power_rule_integral,
    semigroup_residual,
)
from hadafrac.randfuncs import random_smooth_function
from oracles import exact_integral, oracle_integral, platform_record


def constant_one(x):
    return np.ones_like(np.asarray(x, dtype=float))


SMOOTH_CASES = [
    np.exp,
    np.sqrt,
    lambda x: np.cos(np.log(x)),
    lambda x: 1.0 / (1.0 + x),
]


@pytest.mark.parametrize("f", SMOOTH_CASES)
@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.5])
@pytest.mark.parametrize("t", [1.5, math.e, 8.0])
def test_spectral_route_matches_adaptive_oracle(f, alpha, t):
    expect = oracle_integral(f, alpha, t)
    got = hadamard_integral(f, alpha, t, estimate_error=False).value
    assert abs(got - expect) <= 5e-13 * abs(expect)


def test_gauss_jacobi_is_exact_on_single_piece_draws():
    # A polynomial of degree at most 4 in ln tau = (1 - s) ln t is one in s,
    # which a rule of 3 or more nodes integrates exactly; what is left is
    # round-off, in the rule, the prefactor and the summation.  Near the
    # order floor the rule's own weight sum sets it (2.0e-12 relative at
    # alpha = 0.0501 and 64 nodes), within the conditioning allowance
    # 5e4 n eps / min(alpha, 1) that build_jacobi_rule grants that sum.
    eps = float(np.finfo(np.longdouble).eps)
    rng = np.random.Generator(np.random.Philox(key=20261021))
    for _ in range(200):
        degree = int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.05, 3.0))
        t = math.exp(float(rng.uniform(0.05, 2.95)))
        f = random_smooth_function(int(rng.integers(2**63)), 0.5, 3.0, degree)
        expect = exact_integral(f, alpha, t)
        for nodes in (3, 4, 16, 64):
            got = hadamard_integral(f, alpha, t, nodes=nodes, estimate_error=False).value
            rel = max(1e-12, 5e4 * nodes * eps / min(alpha, 1.0))
            assert got == pytest.approx(expect, rel=rel, abs=0.0), (degree, alpha, t, nodes)


def test_worked_integral_values():
    assert hadamard_integral(constant_one, 1.0, math.e).value == pytest.approx(1.0, rel=1e-13)
    assert hadamard_integral(np.log, 1.0, math.e).value == pytest.approx(0.5, rel=1e-13)
    assert hadamard_integral(constant_one, 0.5, math.e).value == pytest.approx(
        1.1283791670955126, rel=1e-13
    )


def test_worked_power_rule_values():
    assert power_rule_integral(1.0, 1.0, math.e) == pytest.approx(1.0, rel=1e-14)
    assert power_rule_integral(2.0, 1.0, math.e) == pytest.approx(0.5, rel=1e-14)
    assert power_rule_integral(1.0, 0.5, math.e) == pytest.approx(
        1.1283791670955126, rel=1e-14
    )
    assert power_rule_derivative(2.0, 0.5, math.e) == pytest.approx(
        1.1283791670955126, rel=1e-14
    )
    # Exponent beta - alpha - 1 = 0 makes the value t-independent.
    for t in (math.e, 10.0):
        assert power_rule_derivative(1.5, 0.5, t) == pytest.approx(
            0.8862269254527580, rel=1e-14
        )


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5])
@pytest.mark.parametrize("t", [1.5, math.e, 10.0])
def test_power_rule_against_quadrature(beta, alpha, t):
    # The known (ln tau)^(beta-1) endpoint behaviour goes into the weight;
    # the closed form is never consulted on the quadrature side.
    if beta == 1.0:
        f = constant_one
    else:
        f = lambda x: np.log(x) ** (beta - 1.0)
    expect = power_rule_integral(beta, alpha, t)
    got = hadamard_integral(
        f, alpha, t, estimate_error=False, endpoint_exponent=beta - 1.0
    ).value
    assert abs(got - expect) <= 1e-10 * abs(expect)


def powers_oracle(mu, alpha, t):
    """I^a[tau^mu](t) = t^mu (ln t)^a / Gamma(a+1) 1F1(a; a+1; -mu ln t), from u = ln(t/tau)."""
    log_t = math.log(t)
    z = -mu * log_t
    # The series 1 + a z / (a + 1) is exact in double below |z| = 1e-8, where
    # scipy's hyp1f1 can return nan (at |z| near 1e-180 for a = 0.0625).
    kummer = 1.0 + alpha * z / (alpha + 1.0) if abs(z) < 1e-8 else hyp1f1(alpha, alpha + 1.0, z)
    return t**mu * log_t**alpha / math.gamma(alpha + 1.0) * kummer


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.05, 5.0), mu=st.floats(-3.0, 6.0), t=st.floats(1.1, 15.0))
@example(alpha=0.0625, mu=9.85673669163616e-192, t=2.0)  # hyp1f1 gives nan here
def test_powers_match_their_confluent_closed_form(alpha, mu, t):
    got = hadamard_integral(lambda tau: tau**mu, alpha, t, nodes=32).value
    assert got == pytest.approx(powers_oracle(mu, alpha, t), rel=1e-11, abs=0.0)


def derivative_of_powers_oracle(mu, alpha, t):
    """D^a[tau^mu](t) = (ln t)^-a 1F1(1; 1-a; mu ln t) / Gamma(1-a): t d/dt of
    the I^(1-a) form above, after Kummer's transformation; mu = 0 gives D^a[1]."""
    log_t = math.log(t)
    return log_t**-alpha * hyp1f1(1.0, 1.0 - alpha, mu * log_t) / math.gamma(1.0 - alpha)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(
    alpha=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
    mu=st.floats(-3.0, 6.0),
    t=st.floats(1.1, 15.0),
)
@example(alpha=0.5, mu=0.0, t=math.e)  # the derivative of 1
@example(alpha=0.9, mu=-1.125, t=1.1015625)  # near a zero of D^a: value 0.0121
def test_derivative_of_powers_matches_its_closed_form(alpha, mu, t):
    # For mu < 0 the derivative changes sign, so the error is measured on the
    # derive command's scale max(1, |value|).  On a 5 x 37 x 71 grid of this
    # domain the central difference at 64 nodes missed by at most 5.2e-9.
    got = hadamard_derivative(lambda tau: tau**mu, alpha, t, nodes=64).value
    expect = derivative_of_powers_oracle(mu, alpha, t)
    assert abs(got - expect) <= 1e-7 * max(1.0, abs(expect))


def test_power_rule_plain_rule_converges_slowly_but_surely():
    # Without the endpoint hint the non-integer case still lands around 1e-7
    # at 64 nodes; this pins the plain route's behaviour so a regression in
    # either path is visible.
    expect = power_rule_integral(1.5, 0.5, math.e)
    got = hadamard_integral(
        lambda x: np.sqrt(np.log(x)), 0.5, math.e, estimate_error=False
    ).value
    assert abs(got - expect) <= 1e-6 * abs(expect)
    assert abs(got - expect) > 1e-12 * abs(expect)


def test_worked_derivative_values():
    assert hadamard_derivative(np.log, 0.5, math.e).value == pytest.approx(
        1.1283791670955126, abs=1e-6
    )
    assert hadamard_derivative(
        lambda x: np.sqrt(np.log(x)), 0.5, math.e
    ).value == pytest.approx(0.8862269254527580, abs=1e-6)
    # The derivative of a constant does not vanish for fractional orders.
    assert hadamard_derivative(constant_one, 0.5, math.e).value == pytest.approx(
        0.5641895835477563, abs=1e-6
    )


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_derivative_integral_consistency(beta, alpha):
    f = lambda x: np.log(x) ** (beta - 1.0)
    for t in (1.5, math.e, 10.0):
        expect = power_rule_derivative(beta, alpha, t)
        got = hadamard_derivative(f, alpha, t).value
        assert abs(got - expect) <= 1e-5 * abs(expect)


def test_linearity():
    a, b = 2.5, -0.75
    combo = lambda x: a * np.exp(x) + b / x
    lhs = hadamard_integral(combo, 0.7, 3.0, estimate_error=False).value
    rhs = (
        a * hadamard_integral(np.exp, 0.7, 3.0, estimate_error=False).value
        + b * hadamard_integral(lambda x: 1.0 / x, 0.7, 3.0, estimate_error=False).value
    )
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_monotonicity_under_pointwise_domination():
    # f >= g >= 0 on [1, t]: positive weights preserve the ordering exactly.
    f = lambda x: 2.0 + np.sin(np.log(x))
    g = lambda x: 1.0 + 0.5 * np.sin(np.log(x))
    for alpha in (0.25, 1.0, 2.0):
        big = hadamard_integral(f, alpha, 5.0, estimate_error=False).value
        small = hadamard_integral(g, alpha, 5.0, estimate_error=False).value
        assert big >= small - 1e-12


def test_error_estimate_covers_truth_for_smooth_f():
    expect = oracle_integral(np.exp, 0.4, 6.0)
    res = hadamard_integral(np.exp, 0.4, 6.0, nodes=16)
    assert res.estimated_error >= 0.0
    assert abs(res.value - expect) <= 10.0 * res.estimated_error + 1e-14


def test_scalar_only_callables_are_accepted():
    res = hadamard_integral(math.exp, 1.0, 2.0, estimate_error=False)
    expect = oracle_integral(math.exp, 1.0, 2.0)
    assert res.value == pytest.approx(expect, rel=1e-12)


def test_domain_fault_is_raised_without_scalar_retries():
    # A fault of the function itself is not a sign that it wants scalars.
    f = as_function(parse_expr("ln(x - 3)"))
    calls = []

    def counted(tau):
        calls.append(tau)
        return f(tau)

    with pytest.raises(ExprEvalError):
        hadamard_integral(counted, 0.5, 5.0)
    assert len(calls) == 1


def test_prebuilt_rule_paths():
    # nodes=32 names the cached rule of (order, 32); both operators use it.
    via_rule = hadamard_integral(constant_one, 0.5, math.e, nodes=32, estimate_error=False)
    assert via_rule.nodes_used == 32
    assert via_rule.value == pytest.approx(1.1283791670955126, rel=1e-13)
    ok = hadamard_derivative(constant_one, 0.5, math.e, nodes=32)
    assert ok.nodes_used == 32
    assert ok.value == pytest.approx(0.5641895835477563, abs=1e-6)


def test_at_left_endpoint_integral_vanishes():
    res = hadamard_integral(np.exp, 0.8, 1.0)
    assert res.value == 0.0 and res.estimated_error == 0.0


@pytest.mark.parametrize("beta, alpha, t", [
    (100.0, 50.0, 1e300),  # ln(t)^149 overflows
    (2.2250738585072014e-308, 0.5, 1.0000001),  # the product overflows
])
def test_power_rule_integral_overflow_is_a_quadrature_error(beta, alpha, t):
    with pytest.raises(QuadratureError):
        power_rule_integral(beta, alpha, t)


def test_power_rule_derivative_overflow_is_a_quadrature_error():
    with pytest.raises(QuadratureError):
        power_rule_derivative(150.0, 0.5, 1e300)


def test_power_rule_derivative_keeps_its_bits():
    # The separate formula the derivative had before it took the integral's
    # closed form at order -alpha.
    for beta in (1.0, 1.5, 2.0, 3.0, 7.25):
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.95):
            for t in (1.5, math.e, 10.0, 1e6):
                old = gamma(beta) / gamma(beta - alpha) * math.log(t) ** (beta - alpha - 1.0)
                assert power_rule_derivative(beta, alpha, t) == old


@pytest.mark.parametrize("bad_t", [0.5, 0.0, -2.0])
def test_rejects_points_left_of_one(bad_t):
    with pytest.raises(DomainError):
        hadamard_integral(np.exp, 0.5, bad_t)
    with pytest.raises(DomainError):
        power_rule_integral(1.0, 0.5, bad_t)


def test_rejects_bad_orders_and_parameters():
    with pytest.raises(DomainError):
        hadamard_derivative(np.exp, 1.0, 2.0)
    with pytest.raises(DomainError):
        hadamard_derivative(np.exp, 0.0, 2.0)
    with pytest.raises(DomainError):
        hadamard_derivative(np.exp, 0.999, 2.0)  # complementary order too small
    with pytest.raises(DomainError):
        power_rule_derivative(0.5, 0.5, 2.0)  # beta = alpha
    with pytest.raises(DomainError):
        power_rule_integral(0.0, 0.5, 2.0)
    with pytest.raises(DomainError):
        semigroup_residual(np.exp, 0.5, 0.5, 2.0, n=8)
    with pytest.raises(DomainError):
        power_rule_integral(0.5, 0.25, 1.0)  # closed form diverges at t = 1
    with pytest.raises(DomainError):
        hadamard_integral(np.exp, math.inf, 2.0)
    with pytest.raises(DomainError):
        hadamard_integral(np.exp, 0.5, math.inf)
    for nodes in ("a", 2.5, None):
        with pytest.raises(DomainError):
            hadamard_integral(np.exp, 0.5, 2.0, nodes=nodes)
        with pytest.raises(DomainError):
            hadamard_derivative(np.exp, 0.5, 2.0, nodes=nodes)
    for n in ("a", 16.9, 64.0, None, True):
        with pytest.raises(DomainError):
            semigroup_residual(np.exp, 0.5, 0.5, 2.0, n=n)


@pytest.mark.parametrize("alpha, beta, named", [
    (0.5, 0.01, "order beta must lie in [0.05, 170], got 0.01"),
    (0.01, 0.5, "order alpha must lie in [0.05, 170], got 0.01"),
    (100.0, 100.0, "order alpha + beta must lie in [0.05, 170], got 200.0"),
])
def test_semigroup_names_the_order_out_of_range(alpha, beta, named):
    with pytest.raises(DomainError) as info:
        semigroup_residual(np.sqrt, alpha, beta, 2.0)
    assert str(info.value) == named


def test_integral_prefactor_overflow_is_a_quadrature_error():
    with pytest.raises(QuadratureError, match=r"\(ln t\)\^alpha overflows"):
        hadamard_integral(lambda x: 1.0 + 0 * x, 150.0, 1e300, estimate_error=False)


def test_numpy_integer_sizes_are_accepted():
    assert semigroup_residual(np.exp, 0.5, 0.5, 2.0, n=np.int64(16)) == semigroup_residual(
        np.exp, 0.5, 0.5, 2.0, n=16
    )


def test_nonfinite_integrand_is_flagged():
    f = lambda x: np.where(x < 2.0, np.nan, x)
    with pytest.raises(QuadratureError):
        hadamard_integral(f, 0.5, 3.0)


def test_rough_integrand_has_a_large_error_estimate():
    # Oscillation far below the finite-difference step decorrelates the
    # stencil evaluations, so the one-sided slopes disagree wildly and the
    # estimate exceeds the derive command's gate.
    result = hadamard_derivative(lambda x: np.sin(1e9 * x), 0.5, math.exp(0.5))
    assert result.estimated_error > 1e-3 * max(1.0, abs(result.value))


@pytest.mark.parametrize(
    "f",
    [constant_one, np.log, lambda x: np.log(x) ** 2, np.sqrt],
)
@pytest.mark.parametrize("orders", [(0.3, 0.7), (0.5, 0.5), (1.2, 0.8)])
def test_semigroup_property(f, orders):
    alpha, beta = orders
    for t in (2.0, math.e, 5.0):
        assert semigroup_residual(f, alpha, beta, t) < 1e-6


def test_semigroup_overflow_raises():
    # The inner rule's weights sum to 1/0.05 = 20, so its weighted sum of
    # 1e307 overflows; the direct integral of order 1.05 stays finite.
    with pytest.raises(QuadratureError):
        semigroup_residual(lambda x: 1e307 + 0 * x, 1.0, 0.05, 2.0)


def test_semigroup_worked_examples():
    assert semigroup_residual(constant_one, 0.3, 0.7, math.e) < 1e-8
    assert semigroup_residual(np.log, 0.5, 0.5, math.e) < 1e-8
    assert semigroup_residual(lambda x: np.sqrt(x), 0.4, 0.6, 2.0) < 1e-6


def test_result_is_frozen_with_nonnegative_error():
    res = hadamard_integral(np.exp, 0.5, 2.0)
    assert isinstance(res, OperatorResult)
    assert res.estimated_error >= 0.0
    with pytest.raises(AttributeError):
        res.value = 0.0


# SHA-256 over the float.hex bits of the operators on a small fixed grid,
# recorded before Measure took the endpoint exponent.  A change to how the
# quadrature is assembled must leave every bit of every result in place.
OPERATOR_BITS_SHA256 = "00e2dc7530da3af8cc081cc4c9725fbd24d483e609090422ee30f1af697d26c1"


def _operator_bits():
    lines = []

    def record(*values):
        lines.append(" ".join(str(v) if isinstance(v, int) else float(v).hex() for v in values))

    for nodes in (16, 64):
        for alpha in (0.3, 1.0, 2.5):
            for t in (1.5, 8.0):
                r = hadamard_integral(np.exp, alpha, t, nodes=nodes)
                record(r.value, r.estimated_error, r.nodes_used)
                for g in (0.5, 2.0):
                    f = lambda x, g=g: np.log(x) ** g * np.exp(x)
                    r = hadamard_integral(f, alpha, t, nodes=nodes, endpoint_exponent=g)
                    record(r.value, r.estimated_error, r.nodes_used)
        for alpha in (0.25, 0.5, 0.75):
            for t in (2.0, 8.0):
                r = hadamard_derivative(np.exp, alpha, t, nodes=nodes)
                record(r.value, r.estimated_error, r.nodes_used)
        for alpha, beta in ((0.3, 0.7), (1.2, 0.8)):
            for t in (2.0, 5.0):
                record(semigroup_residual(np.sqrt, alpha, beta, t, n=nodes))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_operator_results_keep_their_bits():
    assert _operator_bits() == OPERATOR_BITS_SHA256, platform_record()


# SHA-256 of one buffer holding the run_fuzz CSVs of the nine checks in
# TheoremId order: 200 trials each from master seed 777, default FuzzConfig.
# A change that moves these bits updates the digest and lists the moved rows.
FUZZ_CSV_SHA256 = "3fbb4957d102d97d10bbbb20a405679780e78eab8cfe4614eea0d422a840ac8d"


def test_fuzz_csv_keeps_its_bits():
    out = io.StringIO()
    for theorem in TheoremId:
        run_fuzz(FuzzConfig(theorem, trials=200, master_seed=777), csv_file=out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FUZZ_CSV_SHA256, (
        platform_record()
    )

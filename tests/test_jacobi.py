"""Quadrature rule checks: scipy as cross-oracle plus analytic Beta moments."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from hadafrac.errors import DomainError, QuadratureError
from hadafrac.gammafn import GAMMA_MAX_ARG
from hadafrac.jacobi import (
    MAX_RULE_NODES,
    MIN_RULE_ALPHA,
    _jacobi_eval_vec,
    _recurrence_table,
    build_jacobi_rule,
    jacobi_rule_01,
)
from oracles import platform_record


def beta_moment(k, zero_exponent, one_exponent):
    """Exact value of the k-th monomial moment of the rule's weight."""
    return (
        math.gamma(k + zero_exponent + 1.0)
        * math.gamma(one_exponent + 1.0)
        / math.gamma(k + zero_exponent + one_exponent + 2.0)
    )


@pytest.mark.parametrize("n", [2, 5, 16, 32])
@pytest.mark.parametrize(
    "zero_exponent,one_exponent",
    [(-0.75, 0.0), (-0.5, 0.0), (-0.25, 0.7), (0.5, 1.3), (2.0, 0.0)],
)
def test_matches_scipy_rule(n, zero_exponent, one_exponent):
    s, w = jacobi_rule_01(n, zero_exponent, one_exponent)
    # scipy parametrizes by the (1-x) exponent first.
    x_ref, w_ref = roots_jacobi(n, one_exponent, zero_exponent)
    s_ref = 0.5 * (1.0 + x_ref)
    w_ref = w_ref * 0.5 ** (zero_exponent + one_exponent + 1.0)
    assert np.max(np.abs(s - s_ref)) < 1e-13
    assert np.max(np.abs(w - w_ref) / w_ref) < 1e-11


@pytest.mark.parametrize("n", [64, 128])
def test_matches_scipy_rule_large_n_nodes(n):
    # At large n scipy's own weights carry ~1e-11 noise, so compare nodes
    # tightly and weights loosely; moment tests below pin the weights.
    s, w = jacobi_rule_01(n, -0.75)
    x_ref, w_ref = roots_jacobi(n, 0.0, -0.75)
    assert np.max(np.abs(s - 0.5 * (1.0 + x_ref))) < 1e-13
    assert np.max(np.abs(w - 0.5**0.25 * w_ref) / w) < 1e-9


@pytest.mark.parametrize(
    "zero_exponent,one_exponent",
    [(-0.9, 0.0), (-0.75, 0.0), (-0.5, 0.5), (0.25, 2.0), (-0.25, 1.7)],
)
def test_monomial_moments(zero_exponent, one_exponent):
    s, w = jacobi_rule_01(24, zero_exponent, one_exponent)
    for k in range(12):
        expect = beta_moment(k, zero_exponent, one_exponent)
        got = float(np.sum(w * s**k))
        assert abs(got - expect) <= 5e-13 * expect


@pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
def test_chebyshev_closed_form(n):
    # a + b = -1 makes the general Jacobi-matrix entry at k = 1 a 0/0.
    s, w = jacobi_rule_01(n, -0.5, -0.5)
    k = np.arange(n, 0, -1)
    s_ref = 0.5 * (1.0 + np.cos((2 * k - 1) * math.pi / (2 * n)))
    assert np.max(np.abs(s - s_ref)) < 1e-15
    assert np.max(np.abs(w - math.pi / n)) < 1e-13 * math.pi / n


def test_exponents_summing_to_minus_one():
    n, zero_exponent, one_exponent = 8, -0.9, -0.1
    s, w = jacobi_rule_01(n, zero_exponent, one_exponent)
    assert np.all(w > 0.0)
    for k in range(2 * n):
        expect = beta_moment(k, zero_exponent, one_exponent)
        got = float(np.sum(w * s**k))
        assert abs(got - expect) <= 1e-13 * expect


@pytest.mark.parametrize("alpha", [MIN_RULE_ALPHA, 2.5])
def test_large_rule_moments(alpha):
    n = 1024
    nodes, weights = build_jacobi_rule(alpha, n)
    # k = 0, the mass, is the construction's own weight-sum check.
    for k in (1, 2, 5, 10, 50, 200, 1000, 2 * n - 1):
        got = float(np.sum(weights * nodes**k))
        assert abs(got - 1.0 / (alpha + k)) <= 1e-13 / (alpha + k)


def test_polynomial_exactness_at_degree_boundary():
    # n nodes must integrate degree 2n-1 exactly; random dense polynomial.
    n = 8
    s, w = jacobi_rule_01(n, -0.5)
    rng = np.random.default_rng(20240817)
    coeffs = rng.standard_normal(2 * n)
    expect = sum(c * beta_moment(k, -0.5, 0.0) for k, c in enumerate(coeffs))
    got = float(np.sum(w * np.polyval(coeffs[::-1], s)))
    assert abs(got - expect) <= 1e-13 * abs(expect)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5, 5.0, 20.0])
@pytest.mark.parametrize("n", [2, 16, 64, 128, 256])
def test_weight_sum_invariant(alpha, n):
    nodes, weights = build_jacobi_rule(alpha, n)
    assert abs(float(weights.sum()) - 1.0 / alpha) <= 1e-12 / alpha


@pytest.mark.parametrize("alpha", [0.05, 0.1])
@pytest.mark.parametrize("n", [2, 16, 64])
def test_weight_sum_invariant_small_alpha(alpha, n):
    # Below alpha = 0.25 the deep endpoint nodes are ill-conditioned; the
    # strict budget is certified only up to 64 nodes there.
    nodes, weights = build_jacobi_rule(alpha, n)
    assert abs(float(weights.sum()) - 1.0 / alpha) <= 1e-12 / alpha


@given(
    alpha=st.floats(min_value=MIN_RULE_ALPHA, max_value=20.0),
    n=st.integers(min_value=2, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_rule_shape_invariants(alpha, n):
    nodes, weights = build_jacobi_rule(alpha, n)
    assert n == len(nodes) == len(weights)
    assert np.all(weights > 0.0)
    assert np.all(np.diff(nodes) > 0.0)
    assert 0.0 < nodes[0] and nodes[-1] < 1.0


def test_rule_arrays_immutable():
    nodes, weights = build_jacobi_rule(0.5, 8)
    with pytest.raises(ValueError):
        nodes[0] = 0.1
    with pytest.raises(ValueError):
        weights[0] = 0.1


def test_rule_cache_returns_same_object():
    assert build_jacobi_rule(0.7, 32) is build_jacobi_rule(0.7, 32)


def test_spectral_convergence_on_smooth_integrand():
    # exp(s) against s^(alpha-1): 32 and 64 nodes must agree to machine level.
    alpha = 0.6
    vals = []
    for n in (32, 64):
        nodes, weights = build_jacobi_rule(alpha, n)
        vals.append(float(np.sum(weights * np.exp(nodes))))
    assert abs(vals[0] - vals[1]) <= 1e-14 * abs(vals[1])


@pytest.mark.parametrize(
    "alpha,n",
    [(MIN_RULE_ALPHA / 2.0, 16), (0.0, 16), (-1.0, 16), (0.5, 1), (0.5, 0),
     (math.inf, 16), (1e5, 64), (GAMMA_MAX_ARG + 1.0, 16),
     (0.5, MAX_RULE_NODES + 1), (0.5, 10**6)],
)
def test_rejects_out_of_domain(alpha, n):
    with pytest.raises(DomainError):
        build_jacobi_rule(alpha, n)


def test_rejects_too_many_nodes():
    with pytest.raises(DomainError):
        jacobi_rule_01(MAX_RULE_NODES + 1, -0.5)


def test_overflowing_exponent_is_a_quadrature_error():
    with pytest.raises(QuadratureError):
        jacobi_rule_01(8, 1e300)


def test_weight_sum_error_prints_a_plain_number():
    # At the order floor a 2048-node rule fails its weight-sum check.
    with pytest.raises(QuadratureError, match=r"weight sum \d+\.\d+ deviates") as info:
        build_jacobi_rule(MIN_RULE_ALPHA, 2048)
    assert "np.float64" not in str(info.value)


def test_rejects_nonintegrable_exponents():
    with pytest.raises(DomainError):
        jacobi_rule_01(8, -1.0)
    with pytest.raises(DomainError):
        jacobi_rule_01(8, -0.5, -1.5)
    with pytest.raises(DomainError):
        jacobi_rule_01(8, math.inf)
    with pytest.raises(DomainError):
        jacobi_rule_01(8, 0.5, math.nan)


def one_degree_at_a_time(n, a, b, x):
    """(P_n, P_{n-1}, P'_n) with the recurrence table rebuilt and c2 + c3 x
    formed inside the degree loop: the oracle for the blocked evaluation."""
    one = x.dtype.type(1.0)
    p_prev = np.ones_like(x)
    p = x.dtype.type(0.5 * (a - b)) + x.dtype.type(0.5 * (a + b + 2.0)) * x
    j = np.arange(2, n + 1, dtype=np.float64)
    two_j = 2.0 * j + a + b
    coeffs = np.stack((
        2.0 * j * (j + a + b) * (two_j - 2.0),
        (two_j - 1.0) * (a * a - b * b),
        (two_j - 1.0) * two_j * (two_j - 2.0),
        2.0 * (j + a - 1.0) * (j + b - 1.0) * two_j,
    )).astype(x.dtype)
    for c1, c2, c3, c4 in zip(*coeffs):
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    two_n = 2.0 * n + a + b
    dp = (n * (a - b - two_n * x) * p + 2.0 * (n + a) * (n + b) * p_prev) / (
        x.dtype.type(two_n) * (one - x) * (one + x)
    )
    return p, p_prev, dp


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
# n - 1 degrees run in blocks of 64: below, at and across one block.
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 66, 129, 300])
@pytest.mark.parametrize("a,b", [(0.0, -0.95), (0.0, 1.5), (-0.5, -0.5), (-0.1, -0.9), (2.0, 0.5)])
def test_blocked_recurrence_keeps_the_bits(dtype, n, a, b):
    x = np.linspace(-0.999, 0.999, 301).astype(dtype)
    table = _recurrence_table(n, a, b).astype(dtype)
    for got, expect in zip(_jacobi_eval_vec(n, a, b, x, table), one_degree_at_a_time(n, a, b, x)):
        assert got.dtype == expect.dtype == dtype
        assert np.all(np.isfinite(expect))
        # Equal values with equal signs: the same bits, zeros included.
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))


# SHA-256 over the float.hex bits of jacobi_rule_01's nodes and weights on a
# fixed grid of sizes and endpoint exponents, recorded before each rule built
# its recurrence table once.  Sizes 65 and up run the recurrence over more
# than one block of degrees.  A change that moves rule bits (for instance a
# construction without np.longdouble) updates the digest and says why.
RULE_BITS_SHA256 = "2689b9b346aa2e1d2ed94158141675dc286f8a6288d01674aad736125ac1236e"


def test_rules_keep_their_bits():
    lines = []
    for n in (2, 16, 64, 65, 66, 130, 257):
        for zero_exponent in (-0.95, -0.5, 0.0, 1.5):
            for one_exponent in (0.0, 0.5, 2.0):
                s, w = jacobi_rule_01(n, zero_exponent, one_exponent)
                lines.append(" ".join(float(v).hex() for v in (*s, *w)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RULE_BITS_SHA256, (
        platform_record()
    )

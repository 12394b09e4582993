"""Quadrature rule checks: scipy as cross-oracle plus analytic Beta moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from hadafrac.errors import DomainError, QuadratureError
from hadafrac.jacobi import (
    MIN_RULE_ALPHA,
    QuadratureRule,
    build_jacobi_rule,
    jacobi_rule_01,
)


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
    rule = build_jacobi_rule(alpha, n)
    assert abs(float(rule.weights.sum()) - 1.0 / alpha) <= 1e-12 / alpha


@pytest.mark.parametrize("alpha", [0.05, 0.1])
@pytest.mark.parametrize("n", [2, 16, 64])
def test_weight_sum_invariant_small_alpha(alpha, n):
    # Below alpha = 0.25 the deep endpoint nodes are ill-conditioned; the
    # strict budget is certified only up to 64 nodes there.
    rule = build_jacobi_rule(alpha, n)
    assert abs(float(rule.weights.sum()) - 1.0 / alpha) <= 1e-12 / alpha


@given(
    alpha=st.floats(min_value=MIN_RULE_ALPHA, max_value=20.0),
    n=st.integers(min_value=2, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_rule_shape_invariants(alpha, n):
    rule = build_jacobi_rule(alpha, n)
    assert rule.count == n == len(rule.nodes) == len(rule.weights)
    assert np.all(rule.weights > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 1.0


def test_rule_arrays_immutable():
    rule = build_jacobi_rule(0.5, 8)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.1
    with pytest.raises(ValueError):
        rule.weights[0] = 0.1


def test_rule_cache_returns_same_object():
    assert build_jacobi_rule(0.7, 32) is build_jacobi_rule(0.7, 32)


def test_spectral_convergence_on_smooth_integrand():
    # exp(s) against s^(alpha-1): 32 and 64 nodes must agree to machine level.
    alpha = 0.6
    vals = []
    for n in (32, 64):
        rule = build_jacobi_rule(alpha, n)
        vals.append(float(np.sum(rule.weights * np.exp(rule.nodes))))
    assert abs(vals[0] - vals[1]) <= 1e-14 * abs(vals[1])


@pytest.mark.parametrize(
    "alpha,n",
    [(MIN_RULE_ALPHA / 2.0, 16), (0.0, 16), (-1.0, 16), (0.5, 1), (0.5, 0),
     (math.inf, 16)],
)
def test_rejects_out_of_domain(alpha, n):
    with pytest.raises(DomainError):
        build_jacobi_rule(alpha, n)


def test_rejects_nonintegrable_exponents():
    with pytest.raises(DomainError):
        jacobi_rule_01(8, -1.0)
    with pytest.raises(DomainError):
        jacobi_rule_01(8, -0.5, -1.5)
    with pytest.raises(DomainError):
        jacobi_rule_01(8, math.inf)
    with pytest.raises(DomainError):
        jacobi_rule_01(8, 0.5, math.nan)


def test_quadrature_rule_is_frozen():
    rule = build_jacobi_rule(0.5, 4)
    with pytest.raises(AttributeError):
        rule.alpha = 2.0

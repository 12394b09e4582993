"""Tests for the inequality checks.

Two oracle routes back these tests: constant cases are pinned by hand
arithmetic, and the nontrivial cases are checked against the exact integral
of a polynomial in ln tau or, for other integrands, scipy's adaptive
quadrature.  Neither shares code with the Gauss-Jacobi path the checks
themselves use.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hadafrac.errors import DomainError, EnvelopeError, HadafracError, QuadratureError
from hadafrac.fuzzing import (
    ORDER_GRID_STEP,
    FuzzConfig,
    _ALPHA_SPAN,
    _draw_band,
    _draw_function,
    run_trial,
)
from hadafrac.gammafn import gamma
from hadafrac.inequalities import (
    ABS_TOL,
    BoundingQuadruple,
    ConstantBounds,
    InequalityReport,
    REL_TOL,
    TheoremId,
    _report,
    _require,
    constant_polya_szego,
    constant_polya_szego_two_order,
    conjugate_exponent,
    minkowsky_related,
    polya_szego_double,
    polya_szego_single,
    power_mean_check,
    product_bound,
    ratio_bound_constant,
    young_pointwise_check,
)
from hadafrac.operators import Measure, power_rule_integral
from hadafrac.randfuncs import ConstantFunction, random_bounded_function
from oracles import exact_integral, log_poly, oracle_integral

E = math.e
ONE = ConstantFunction(1.0)
TWO = ConstantFunction(2.0)
UNIT_ENV = BoundingQuadruple(ONE, ONE, ONE, ONE)
P = np.polynomial.Polynomial


def exact(p, alpha, t):
    """The exact integral of order alpha at t of the polynomial p in ln tau."""
    return exact_integral(log_poly(p), alpha, t)


class TestRequire:
    TAU = np.array([1.0, 3.0, 2.0, 1.5])

    def test_conditions_that_hold_everywhere_pass(self):
        _require(self.TAU, "x", (np.ones(4, dtype=bool), "never"), (True, "never"))

    def test_false_scalar_names_the_first_point(self):
        with pytest.raises(EnvelopeError) as info:
            _require(self.TAU, "x", (True, "never"), (False, "lower envelope is not positive"))
        assert info.value.tau == self.TAU[0]
        assert "x: lower envelope is not positive" in str(info.value)

    def test_mixed_array_names_the_smallest_failing_point(self):
        holds = np.array([True, False, False, True])
        with pytest.raises(EnvelopeError) as info:
            _require(self.TAU, "y", (holds, "function exceeds its upper envelope"))
        assert info.value.tau == 2.0

    def test_nan_comparison_fails(self):
        values = np.array([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(EnvelopeError) as info:
            _require(self.TAU, "x", (values >= 0.0, "function is negative"))
        assert info.value.tau == 3.0


class TestDomainTypes:
    def test_constant_bounds_validation(self):
        ConstantBounds(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            ConstantBounds(0.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            ConstantBounds(2.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            ConstantBounds(1.0, 2.0, -1.0, 2.0)
        with pytest.raises(DomainError):
            ConstantBounds(1.0, 2.0, 3.0, 2.0)

    def test_holder_conjugate(self):
        # T34 and YOUNG take p alone and use its conjugate q = p / (p - 1).
        assert conjugate_exponent(4.0) == 4.0 / 3.0
        assert young_pointwise_check(ONE, ONE, 4.0, 1.0, E).params["q"] == 4.0 / 3.0
        assert minkowsky_related(ONE, ONE, 4.0, 0.5, 2.0, 1.0, E).params["q"] == 4.0 / 3.0
        for p in (1.0, 0.5, -2.0):
            with pytest.raises(DomainError, match="need p > 1"):
                young_pointwise_check(ONE, ONE, p, 1.0, E)
            with pytest.raises(DomainError, match="need p > 1"):
                minkowsky_related(ONE, ONE, p, 0.5, 2.0, 1.0, E)

    def test_report_is_frozen(self):
        r = polya_szego_single(ONE, ONE, UNIT_ENV, 0.5, E)
        assert isinstance(r, InequalityReport)
        with pytest.raises(AttributeError):
            r.lhs = 0.0


class TestPolyaSzegoSingle:
    def test_all_constants_saturate(self):
        r = polya_szego_single(ONE, ONE, UNIT_ENV, 0.5, E)
        assert r.theorem_id == TheoremId.T31
        assert r.ratio == pytest.approx(1.0, abs=1e-12)
        assert r.passed

    def test_tight_envelopes_on_distinct_constants_saturate(self):
        env = BoundingQuadruple(TWO, TWO, ONE, ONE)
        r = polya_szego_single(TWO, ONE, env, 0.75, 4.0)
        assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_nonconstant_case_against_graded_oracle(self):
        x = lambda s: 1.0 + np.log(s)
        y = lambda s: 2.0 - 0.5 * np.log(s)
        env = BoundingQuadruple(ONE, TWO, ConstantFunction(1.5), TWO)
        r = polya_szego_single(x, y, env, 0.75, E)
        assert r.passed
        assert r.ratio < 1.0
        X, Y = P([1.0, 1.0]), P([2.0, -0.5])
        lhs_oracle = exact(1.5 * 2.0 * X**2, 0.75, E) * exact(1.0 * 2.0 * Y**2, 0.75, E)
        cross_oracle = exact((1.5 * 1.0 + 2.0 * 2.0) * X * Y, 0.75, E)
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-10)
        assert r.bound == pytest.approx(0.25 * cross_oracle**2, rel=1e-10)

    def test_scale_invariance_of_ratio(self):
        t = 3.0
        top = 1.0 + math.log(t)
        x = lambda s: 1.0 + np.log(s)
        y = lambda s: 2.0 - 0.5 * np.log(s)
        v1 = ConstantFunction(2.0 - 0.5 * math.log(t))
        base_env = BoundingQuadruple(ONE, ConstantFunction(top), v1, TWO)
        base = polya_szego_single(x, y, base_env, 0.6, t)
        for c in (0.125, 3.0, 250.0):
            env = BoundingQuadruple(
                ConstantFunction(c), ConstantFunction(c * top), v1, TWO
            )
            scaled = polya_szego_single(
                lambda s: c * (1.0 + np.log(s)), y, env, 0.6, t
            )
            assert scaled.ratio == pytest.approx(base.ratio, rel=1e-10)

    def test_envelope_violation_raises(self):
        env = BoundingQuadruple(ONE, ConstantFunction(1.5), ONE, TWO)
        with pytest.raises(EnvelopeError) as info:
            polya_szego_single(TWO, ONE, env, 0.5, E)
        assert info.value.tau is not None


class TestPolyaSzegoDouble:
    def test_unit_functions_unit_orders(self):
        r = polya_szego_double(ONE, ONE, UNIT_ENV, 1.0, 1.0, E)
        assert r.lhs == pytest.approx(1.0, rel=1e-13)
        assert r.bound == pytest.approx(1.0, rel=1e-13)
        assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_unit_functions_mixed_orders(self):
        r = polya_szego_double(ONE, ONE, UNIT_ENV, 0.5, 1.5, 10.0)
        assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_nonconstant_case_against_graded_oracle(self):
        t = 3.0
        x = lambda s: 1.0 + 0.5 * np.log(s)
        y = ConstantFunction(1.5)
        u2 = ConstantFunction(1.0 + 0.5 * math.log(t))
        env = BoundingQuadruple(ONE, u2, ConstantFunction(1.5), ConstantFunction(1.5))
        r = polya_szego_double(x, y, env, 0.4, 0.9, t)
        assert r.passed
        assert r.ratio <= 1.0 + 1e-12
        lhs_oracle = (
            exact(P([u2.value]), 0.4, t)
            * exact(P([1.5 * 1.5]), 0.9, t)
            * exact(P([1.0, 0.5]) ** 2, 0.4, t)
            * exact(P([1.5**2]), 0.9, t)
        )
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-10)

    def test_order_symmetry(self):
        x = lambda s: 1.0 + 0.25 * np.log(s)
        y = lambda s: 2.0 - 0.3 * np.log(s)
        xe = BoundingQuadruple(
            ONE,
            ConstantFunction(1.0 + 0.25 * math.log(4.0)),
            ConstantFunction(2.0 - 0.3 * math.log(4.0)),
            TWO,
        )
        swapped = BoundingQuadruple(xe.v1, xe.v2, xe.u1, xe.u2)
        a = polya_szego_double(x, y, xe, 0.7, 1.4, 4.0)
        b = polya_szego_double(y, x, swapped, 1.4, 0.7, 4.0)
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)

    def test_violation_reports_smallest_offending_point(self):
        # x leaves its band from a node of the second order's measure on,
        # which lies between two points of the geometric grid: the error
        # names that node, the smallest of the failing sample points.
        alpha, beta, t = 0.5, 1.5, E
        node = float(Measure(beta, t, 64).tau[20])
        grid = t ** np.linspace(0.0, 1.0, 256)
        assert not np.any(grid == node)
        x = lambda s: np.where(s >= node, 3.0, 1.0)
        with pytest.raises(EnvelopeError) as info:
            polya_szego_double(x, ONE, UNIT_ENV, alpha, beta, t)
        assert info.value.tau == node
        assert f"tau={node!r}" in str(info.value)


class TestProductBound:
    def test_unit_constants_saturate(self):
        r = product_bound(ONE, ONE, UNIT_ENV, 0.5, 0.5, E)
        expected = (2.0 / math.sqrt(math.pi)) ** 2
        assert r.lhs == pytest.approx(expected, rel=1e-13)
        assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_tight_constants_saturate(self):
        three = ConstantFunction(3.0)
        env = BoundingQuadruple(TWO, TWO, three, three)
        r = product_bound(TWO, three, env, 1.0, 1.0, E)
        assert r.lhs == pytest.approx(36.0, rel=1e-13)
        assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_proportional_envelopes_give_exact_ratio(self):
        # With u = (0.8 x, 1.2 x) and v = (0.8 y, 1.2 y) the bound
        # integrands collapse to 1.5 x^2 and 1.5 y^2, so the ratio is
        # exactly (2/3)^2 regardless of quadrature error.
        x = lambda s: 2.0 - np.exp(-np.log(s))
        y = lambda s: 1.0 + np.log(s) ** 2
        env = BoundingQuadruple(
            lambda s: 0.8 * x(s),
            lambda s: 1.2 * x(s),
            lambda s: 0.8 * y(s),
            lambda s: 1.2 * y(s),
        )
        r = product_bound(x, y, env, 0.6, 1.2, 2.0)
        assert r.ratio == pytest.approx(4.0 / 9.0, rel=1e-13)
        lhs_oracle = oracle_integral(lambda s: x(s) ** 2, 0.6, 2.0) * exact(
            P([1.0, 0.0, 1.0]) ** 2, 1.2, 2.0
        )
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-10)


class TestConstantPolyaSzego:
    def test_hand_arithmetic_bound(self):
        cb = ConstantBounds(1.0, 2.0, 1.0, 3.0)
        r = constant_polya_szego(ConstantFunction(1.5), TWO, cb, 0.5, E)
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.bound == pytest.approx(49.0 / 24.0, abs=1e-12)
        assert r.bound == pytest.approx(
            0.25 * (math.sqrt(1.0 / 6.0) + math.sqrt(6.0)) ** 2, abs=1e-15
        )
        assert r.passed

    def test_tight_constants_saturate(self):
        cb = ConstantBounds(1.5, 1.5, 2.0, 2.0)
        r = constant_polya_szego(ConstantFunction(1.5), TWO, cb, 0.8, 2.0)
        assert r.ratio == pytest.approx(1.0, abs=1e-10)
        assert r.bound == pytest.approx(1.0, abs=1e-14)

    def test_linear_case_exact_fractions(self):
        # At order 1 the integrals are polynomial in ln t, so the ratio
        # is computable by hand: lhs = (19/12)(37/12)/(13/6)^2 = 703/676.
        cb = ConstantBounds(1.0, 1.5, 1.5, 2.0)
        x = lambda s: 1.0 + 0.5 * np.log(s)
        y = lambda s: 2.0 - 0.5 * np.log(s)
        r = constant_polya_szego(x, y, cb, 1.0, E)
        assert r.lhs == pytest.approx(703.0 / 676.0, rel=1e-12)
        assert r.bound == pytest.approx(1.125, abs=1e-14)
        assert r.passed

    def test_band_violation_raises(self):
        cb = ConstantBounds(1.0, 1.4, 1.0, 3.0)
        with pytest.raises(EnvelopeError):
            constant_polya_szego(ConstantFunction(1.5), TWO, cb, 0.5, E)

    def test_ratio_is_undefined_at_one(self):
        # Every integral vanishes at t = 1, so the ratio would be 0/0.
        cb = ConstantBounds(1.0, 2.0, 1.0, 3.0)
        with pytest.raises(DomainError):
            constant_polya_szego(ONE, TWO, cb, 0.5, 1.0)
        with pytest.raises(DomainError):
            constant_polya_szego_two_order(ONE, TWO, cb, 0.5, 1.5, 1.0)


class TestConstantPolyaSzegoTwoOrder:
    def test_unit_functions_give_unit_ratio(self):
        cb = ConstantBounds(1.0, 1.0, 1.0, 1.0)
        r = constant_polya_szego_two_order(ONE, ONE, cb, 0.7, 1.3, 2.5)
        assert r.lhs == pytest.approx(1.0, abs=1e-10)
        assert r.bound == pytest.approx(1.0, abs=1e-14)

    def test_distinct_constants_still_unit(self):
        cb = ConstantBounds(2.0, 2.0, 0.5, 0.5)
        r = constant_polya_szego_two_order(
            TWO, ConstantFunction(0.5), cb, 0.3, 1.7, 5.0
        )
        assert r.lhs == pytest.approx(1.0, abs=1e-10)
        assert r.ratio == pytest.approx(1.0, abs=1e-10)

    def test_prefactor_identity_against_explicit_formula(self):
        rng = np.random.Generator(np.random.Philox(key=20260816))
        for _ in range(100):
            alpha = float(rng.uniform(0.1, 3.0))
            beta = float(rng.uniform(0.1, 3.0))
            t = float(rng.uniform(1.1, 20.0))
            via_power_rule = power_rule_integral(1.0, alpha, t) * power_rule_integral(
                1.0, beta, t
            )
            explicit = math.log(t) ** (alpha + beta) / (
                gamma(alpha + 1.0) * gamma(beta + 1.0)
            )
            assert via_power_rule == pytest.approx(explicit, rel=1e-12)

    def test_quadratic_case_against_graded_oracle(self):
        cb = ConstantBounds(1.0, 1.25, 1.0, 1.0)
        x = lambda s: 1.0 + 0.25 * np.log(s) ** 2
        r = constant_polya_szego_two_order(x, ONE, cb, 0.5, 0.5, E)
        assert r.bound == pytest.approx(81.0 / 80.0, abs=1e-14)
        assert r.passed
        prefactor = math.log(E) / (gamma(1.5) ** 2)
        X = P([1.0, 0.0, 0.25])
        sq = exact(X**2, 0.5, E)
        unit = exact(P([1.0]), 0.5, E)
        mean = exact(X, 0.5, E)
        lhs_oracle = prefactor * sq * unit / (mean * unit) ** 2
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-10)


class TestRatioBoundConstant:
    def test_unit_case_saturates(self):
        cb = ConstantBounds(1.0, 1.0, 1.0, 1.0)
        r = ratio_bound_constant(ONE, ONE, cb, 0.5, 1.0, E)
        assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_tight_distinct_constants_saturate(self):
        cb = ConstantBounds(2.0, 2.0, 1.0, 1.0)
        r = ratio_bound_constant(TWO, ONE, cb, 1.0, 1.0, E)
        assert r.lhs == pytest.approx(4.0, rel=1e-13)
        assert r.bound == pytest.approx(4.0, rel=1e-13)
        assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_linear_case_against_graded_oracle(self):
        cb = ConstantBounds(1.0, 2.0, 2.0, 3.0)
        x = lambda s: 1.0 + np.log(s)
        y = lambda s: 3.0 - np.log(s)
        r = ratio_bound_constant(x, y, cb, 0.5, 1.0, E)
        assert r.passed
        assert r.ratio <= 1.0 + 1e-12
        # (3 - ln tau)^2 vanishes at tau = e^3, where the exact oracle counts
        # it clipped; at order 1 and t = e its integral is that of (3 - u)^2
        # over u in [0, 1], 19/3.
        lhs_oracle = exact(P([1.0, 1.0]) ** 2, 0.5, E) * (19.0 / 3.0)
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-10)


class TestMinkowskyRelated:
    def test_hand_arithmetic_sixteen_ninths(self):
        r = minkowsky_related(ONE, ONE, 2.0, 0.5, 2.0, 1.0, E)
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.bound == pytest.approx(16.0 / 9.0, abs=1e-12)
        assert r.passed

    def test_asymmetric_exponents_coefficient_arithmetic(self):
        r = minkowsky_related(ONE, ONE, 3.0, 0.9, 1.1, 0.5, E)
        two_over_sqrt_pi = 2.0 / math.sqrt(math.pi)
        assert r.lhs == pytest.approx(two_over_sqrt_pi, rel=1e-13)
        c_p = 2.0**2 * 1.1**3 / (3.0 * 2.1**3)
        c_q = 2.0**0.5 / (1.5 * 1.9**1.5)
        assert r.bound == pytest.approx((c_p + c_q) * 2.0 * two_over_sqrt_pi, rel=1e-13)
        assert r.passed

    def test_nonconstant_case_has_positive_margin(self):
        x = lambda s: 1.0 + 0.1 * np.log(s)
        r = minkowsky_related(x, ONE, 2.0, 0.5, 2.0, 0.8, 3.0)
        assert r.passed
        assert r.margin > 0.0
        lhs_oracle = exact(P([1.0, 0.1]), 0.8, 3.0)
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-10)

    def test_young_chain_is_ordered(self):
        x = lambda s: 1.0 + 0.4 * np.log(s)
        y = lambda s: 2.0 - 0.5 * np.log(s)
        r = minkowsky_related(x, y, 3.0, 0.2, 3.0, 0.6, E)
        mid = r.params["young_mid"]
        assert r.lhs <= mid * (1.0 + 1e-12)
        assert mid <= r.bound * (1.0 + 1e-12)

    def test_ratio_leaving_interval_raises(self):
        with pytest.raises(EnvelopeError) as info:
            minkowsky_related(TWO, ONE, 2.0, 0.5, 2.0, 1.0, E)
        assert info.value.tau is not None

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            minkowsky_related(ONE, ONE, 2.0, 2.0, 0.5, 1.0, E)
        with pytest.raises(DomainError):
            minkowsky_related(ONE, ONE, 2.0, -1.0, 2.0, 1.0, E)
        with pytest.raises(DomainError):
            minkowsky_related(ONE, ONE, 2.0, 0.5, math.inf, 1.0, E)


class TestYoungPointwise:
    def test_equality_at_matched_powers(self):
        r = young_pointwise_check(ONE, ONE, 2.0, 1.0, E)
        assert r.lhs == pytest.approx(1.0, rel=1e-13)
        assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_constant_arithmetic(self):
        r = young_pointwise_check(TWO, ONE, 2.0, 1.0, E)
        assert r.lhs == pytest.approx(2.0, rel=1e-13)
        assert r.bound == pytest.approx(2.5, rel=1e-13)

    def test_nonconstant_case_against_graded_oracle(self):
        x = lambda s: np.log(s) + 1.0
        y = lambda s: np.exp(-np.log(s))
        r = young_pointwise_check(x, y, 3.0, 0.5, 2.0)
        assert r.passed
        lhs_oracle = oracle_integral(lambda s: x(s) * y(s), 0.5, 2.0)
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-10)

    def test_negative_function_raises(self):
        f = lambda s: np.log(s) - 0.5
        with pytest.raises(EnvelopeError):
            young_pointwise_check(f, ONE, 2.0, 0.5, E)


class TestPowerMean:
    def test_equal_functions_saturate(self):
        r = power_mean_check(ONE, ONE, 2.0, 1.0, E)
        assert r.lhs == pytest.approx(4.0, rel=1e-13)
        assert r.bound == pytest.approx(4.0, rel=1e-13)
        assert r.ratio == pytest.approx(1.0, abs=1e-10)

    def test_zero_function_is_allowed(self):
        r = power_mean_check(ONE, ConstantFunction(0.0), 2.0, 1.0, E)
        assert r.lhs == pytest.approx(1.0, rel=1e-13)
        assert r.bound == pytest.approx(2.0, rel=1e-13)

    def test_nonconstant_case_against_graded_oracle(self):
        x = lambda s: np.log(s)
        r = power_mean_check(x, ONE, 2.5, 0.7, 4.0)
        assert r.passed
        lhs_oracle = oracle_integral(lambda s: (x(s) + 1.0) ** 2.5, 0.7, 4.0)
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-10)

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            power_mean_check(ONE, ONE, 1.0, 0.5, E)


class TestReportInvariants:
    def test_margin_and_ratio_are_consistent(self):
        x = lambda s: 1.0 + np.log(s)
        y = lambda s: 2.0 - 0.5 * np.log(s)
        env = BoundingQuadruple(ONE, TWO, ConstantFunction(1.5), TWO)
        r = polya_szego_single(x, y, env, 0.75, E)
        assert r.margin == pytest.approx(r.bound - r.lhs, abs=1e-15)
        assert r.ratio == pytest.approx(r.lhs / r.bound, rel=1e-15)
        assert math.isfinite(r.ratio)
        assert r.passed == (r.lhs <= r.bound * (1.0 + 1e-9) + 1e-12)

    def test_infinite_point_is_rejected(self):
        with pytest.raises(DomainError):
            polya_szego_single(ONE, ONE, UNIT_ENV, 0.5, math.inf)

    def test_seed_is_recorded(self):
        # A check leaves the seed unset; the fuzzer stamps it on each trial.
        assert polya_szego_single(ONE, ONE, UNIT_ENV, 0.5, E).seed is None
        report, _ = run_trial(TheoremId.T31, 1234)
        assert report.seed == 1234


class TestSoundnessMiniFuzz:
    """A few hundred randomized trials per check; the full-scale run
    lives in the acceptance suite."""

    def test_envelope_checks_never_fail_on_generated_functions(self):
        for seed in range(150):
            x, lo_x, hi_x = random_bounded_function(seed, 0.5, 2.0, 1 + seed % 4, 2)
            y, lo_y, hi_y = random_bounded_function(10_000 + seed, 1.0, 3.0, 2, 3)
            env = BoundingQuadruple(lo_x, hi_x, lo_y, hi_y)
            alpha = 0.25 + 0.05 * (seed % 20)
            beta = 0.35 + 0.05 * (seed % 15)
            t = 1.5 + 0.1 * (seed % 30)
            reports = [
                polya_szego_single(x, y, env, alpha, t),
                polya_szego_double(x, y, env, alpha, beta, t),
                product_bound(x, y, env, alpha, beta, t),
            ]
            cb = ConstantBounds(0.5, 2.0, 1.0, 3.0)
            reports += [
                constant_polya_szego(x, y, cb, alpha, t),
                constant_polya_szego_two_order(x, y, cb, alpha, beta, t),
                ratio_bound_constant(x, y, cb, alpha, beta, t),
                young_pointwise_check(x, y, 2.5, alpha, t),
                power_mean_check(x, y, 2.5, alpha, t),
            ]
            # x/y ranges over [0.5/3, 2] inside (m, M) = (0.1, 2.5).
            reports.append(
                minkowsky_related(x, y, 2.0, 0.1, 2.5, alpha, t)
            )
            for r in reports:
                assert r.passed, (
                    f"{r.theorem_id.value} failed at seed {seed}: "
                    f"lhs={r.lhs!r} bound={r.bound!r}"
                )


# T31-T33 with the constant envelopes (m, M, n, N) are P31-P33 under
# ConstantBounds(m, M, n, N), so each pair gives the same ratio.  P32 takes
# its prefactor I^a{1} I^b{1} from the closed form where T32 applies the
# measure, so that pair differs by the rule's weight-sum error; the others
# differ by round-off.  Worst relative gaps over 300 draws: 1.3e-15 (T31),
# 3.9e-13 (T32), 6.0e-16 (T33).
SPECIAL_CASES = [
    (polya_szego_single, constant_polya_szego, 1, 1e-13),
    (polya_szego_double, constant_polya_szego_two_order, 2, 1e-11),
    (product_bound, ratio_bound_constant, 2, 1e-13),
]


@pytest.mark.parametrize("general, special, order_count, rel", SPECIAL_CASES,
                         ids=["T31-P31", "T32-P32", "T33-P33"])
def test_constant_envelopes_give_the_special_case(general, special, order_count, rel):
    # Bands, functions, orders and t are drawn as the fuzzer draws them.
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(100):
        bands = (*_draw_band(rng), *_draw_band(rng))
        x, _, _ = _draw_function(rng, *bands[:2])
        y, _, _ = _draw_function(rng, *bands[2:])
        orders = [ORDER_GRID_STEP * int(k) for k in rng.integers(*_ALPHA_SPAN, size=order_count)]
        t = float(rng.uniform(*FuzzConfig.t_range))
        envelope = BoundingQuadruple(*map(ConstantFunction, bands))
        got = general(x, y, envelope, *orders, t).ratio
        want = special(x, y, ConstantBounds(*bands), *orders, t).ratio
        assert got == pytest.approx(want, rel=rel, abs=0.0), (bands, orders, t)


# Ordinary values plus the boundary t = 1, huge and non-finite values.
EXTREMES = [1.0, 1e-300, 1e10, 1e300, math.inf, -math.inf, math.nan]
POINTS = st.one_of(st.floats(1.0, 20.0), st.sampled_from(EXTREMES + [1.0 + 1e-15]))
ORDERS = st.one_of(st.sampled_from([0.05, 0.5, 1.0, 2.5, 170.0]), st.sampled_from(EXTREMES))
LEVELS = st.one_of(st.floats(0.1, 5.0), st.sampled_from(EXTREMES + [0.0]))
EXPONENTS = st.one_of(st.floats(1.01, 8.0), st.sampled_from(EXTREMES))


def _call_check(theorem, x, y, lo, hi, alpha, beta, t, p, **options):
    band = BoundingQuadruple(*map(ConstantFunction, (lo, hi, lo, hi)))
    kw = dict(nodes=16, **options)
    calls = {
        TheoremId.T31: lambda: polya_szego_single(x, y, band, alpha, t, **kw),
        TheoremId.T32: lambda: polya_szego_double(x, y, band, alpha, beta, t, **kw),
        TheoremId.T33: lambda: product_bound(x, y, band, alpha, beta, t, **kw),
        TheoremId.P31: lambda: constant_polya_szego(
            x, y, ConstantBounds(lo, hi, lo, hi), alpha, t, **kw),
        TheoremId.P32: lambda: constant_polya_szego_two_order(
            x, y, ConstantBounds(lo, hi, lo, hi), alpha, beta, t, **kw),
        TheoremId.P33: lambda: ratio_bound_constant(
            x, y, ConstantBounds(lo, hi, lo, hi), alpha, beta, t, **kw),
        TheoremId.T34: lambda: minkowsky_related(
            x, y, p, lo, hi, alpha, t, **kw),
        TheoremId.YOUNG: lambda: young_pointwise_check(
            x, y, p, alpha, t, **kw),
        TheoremId.POWMEAN: lambda: power_mean_check(x, y, p, alpha, t, **kw),
    }
    return calls[theorem]()


@pytest.mark.parametrize("theorem", list(TheoremId))
def test_every_check_applies_the_fixed_pass_rule(theorem):
    args = (theorem, ONE, ONE, 0.5, 2.0, 0.5, 0.75, E, 2.0)
    report = _call_check(*args)
    assert report.passed
    assert report.passed == (report.lhs <= report.bound * (1.0 + REL_TOL) + ABS_TOL)
    with pytest.raises(TypeError):
        _call_check(*args, rel_tol=1e-9)


@pytest.mark.parametrize("theorem", [TheoremId.T32, TheoremId.T33, TheoremId.P32, TheoremId.P33])
@pytest.mark.parametrize("alpha, beta, named", [(0.5, 0.01, "beta"), (0.01, 0.5, "alpha")])
def test_two_order_checks_name_the_order_out_of_range(theorem, alpha, beta, named):
    with pytest.raises(DomainError) as info:
        _call_check(theorem, ONE, ONE, 0.5, 2.0, alpha, beta, 2.0, 2.0)
    assert str(info.value) == f"order {named} must lie in [0.05, 170], got 0.01"


def test_pass_rule_boundary():
    edge = 2.0 * (1.0 + REL_TOL) + ABS_TOL
    assert _report(TheoremId.T31, edge, 2.0, {}).passed
    assert not _report(TheoremId.T31, math.nextafter(edge, math.inf), 2.0, {}).passed


@settings(max_examples=300, deadline=2000)
@given(
    theorem=st.sampled_from(list(TheoremId)),
    levels=st.tuples(LEVELS, LEVELS, LEVELS, LEVELS),
    alpha=ORDERS,
    beta=ORDERS,
    t=POINTS,
    p=EXPONENTS,
)
@example(theorem=TheoremId.P31, levels=(1.0, 1.0, 1e-300, 2.0), alpha=0.5, beta=0.5,
         t=2.0, p=2.0)  # m * n_lo underflows to 0 in the bound
@example(theorem=TheoremId.T34, levels=(1.0, 1.0, 0.5, 2.0), alpha=0.5, beta=0.5,
         t=2.0, p=1e10)  # 2^(p-1) overflows
def test_every_check_reports_finite_values_or_raises(theorem, levels, alpha, beta, t, p):
    x_level, y_level, lo, hi = levels
    try:
        r = _call_check(theorem, ConstantFunction(x_level), ConstantFunction(y_level),
                        lo, hi, alpha, beta, t, p)
    except HadafracError:
        return
    assert math.isfinite(r.lhs) and math.isfinite(r.bound)


# Array arithmetic that overflows raises QuadratureError without a
# RuntimeWarning first (the suite turns RuntimeWarning into an error).
@pytest.mark.parametrize("theorem, level, lo, hi", [
    (TheoremId.YOUNG, 1e300, 0.5, 2.0),  # x**p
    (TheoremId.POWMEAN, 1e300, 0.5, 2.0),  # (x + y)**r
    (TheoremId.T34, 1e300, 0.5, 2.0),  # x**p with m < x/y < M
    (TheoremId.P31, 1e200, 1e200, 1e200),  # squares of the levels
])
def test_array_overflow_raises_without_a_warning(theorem, level, lo, hi):
    x = y = ConstantFunction(level)
    with pytest.raises(QuadratureError, match="overflows"):
        _call_check(theorem, x, y, lo, hi, 0.5, 0.5, 2.0, 2.0)

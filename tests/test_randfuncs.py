"""Tests for the seeded random function generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadafrac.errors import DomainError
from hadafrac.randfuncs import (
    LOG_SPAN,
    ConstantFunction,
    PiecewiseLogPoly,
    random_bounded_function,
    random_smooth_function,
)

DENSE_TAU = np.exp(np.linspace(0.0, LOG_SPAN, 10_000))


class TestWorkedExamples:
    def test_degree_zero_single_piece_is_constant(self):
        fn, lo_env, hi_env = random_bounded_function(42, 1.0, 2.0, 1, 0)
        values = fn(DENSE_TAU)
        assert np.all(values == values[0])
        assert 1.0 <= values[0] <= 2.0
        assert lo_env(3.0) == 1.0
        assert hi_env(3.0) == 2.0

    def test_seed_seven_range_stays_inside_band(self):
        fn, _, _ = random_bounded_function(7, 0.5, 3.0, 4, 2)
        values = fn(DENSE_TAU)
        assert np.all(values >= 0.5)
        assert np.all(values <= 3.0)

    def test_same_seed_gives_identical_coefficients(self):
        fn_a, _, _ = random_bounded_function(1234, 0.7, 2.5, 6, 3)
        fn_b, _, _ = random_bounded_function(1234, 0.7, 2.5, 6, 3)
        assert fn_a.breakpoints == fn_b.breakpoints
        assert fn_a.coefficients == fn_b.coefficients
        assert fn_a(DENSE_TAU).tobytes() == fn_b(DENSE_TAU).tobytes()

    def test_different_seeds_differ(self):
        fn_a, _, _ = random_bounded_function(1, 0.5, 2.0, 3, 2)
        fn_b, _, _ = random_bounded_function(2, 0.5, 2.0, 3, 2)
        assert fn_a.coefficients != fn_b.coefficients


class TestNoEscape:
    def test_thousand_seeds_never_leave_band(self):
        # Spec-scale sweep: dense sampling at 10^4 points for 1,000 seeds.
        for seed in range(1000):
            pieces = 1 + seed % 16
            degree = seed % 5
            fn, _, _ = random_bounded_function(seed, 0.5, 3.0, pieces, degree)
            values = fn(DENSE_TAU)
            assert np.all(values >= 0.5), f"seed {seed} dips below lo"
            assert np.all(values <= 3.0), f"seed {seed} exceeds hi"

    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        lo=st.floats(min_value=0.01, max_value=5.0),
        width=st.floats(min_value=0.01, max_value=10.0),
        pieces=st.integers(min_value=1, max_value=16),
        degree=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_band_holds_for_arbitrary_parameters(self, seed, lo, width, pieces, degree):
        hi = lo + width
        fn, lo_env, hi_env = random_bounded_function(seed, lo, hi, pieces, degree)
        tau = np.exp(np.linspace(0.0, LOG_SPAN, 200))
        values = fn(tau)
        assert np.all(values >= lo)
        assert np.all(values <= hi)
        assert lo_env(tau)[0] == lo
        assert hi_env(tau)[0] == hi


class TestContinuity:
    def test_unclipped_is_continuous_at_breakpoints(self):
        fn, _, _ = random_bounded_function(99, 0.5, 3.0, 8, 4)
        assert len(fn.breakpoints) == 8
        for s in fn.breakpoints[1:]:
            left = fn.unclipped(np.exp(s - 1e-9))
            right = fn.unclipped(np.exp(s + 1e-9))
            assert abs(left - right) < 1e-6

    def test_clipped_flag_matches_dense_scan(self):
        flagged = unflagged = 0
        for seed in range(40):
            fn, _, _ = random_bounded_function(seed, 1.0, 1.5, 5, 3)
            raw = fn.unclipped(DENSE_TAU)
            engages = bool(np.any(raw < 1.0) or np.any(raw > 1.5))
            assert fn.clipped == engages
            flagged += engages
            unflagged += not engages
        # The band is narrow, so both outcomes should occur in 40 draws.
        assert flagged > 0

    def test_wide_band_rarely_clips(self):
        fn, _, _ = random_bounded_function(3, 0.01, 100.0, 2, 1)
        assert not fn.clipped
        assert np.array_equal(fn(DENSE_TAU), fn.unclipped(DENSE_TAU))


class TestEvaluation:
    def test_scalar_and_array_agree(self):
        fn, _, _ = random_bounded_function(5, 0.5, 2.0, 3, 2)
        tau = np.array([1.0, 1.7, 4.2, 19.0])
        vec = fn(tau)
        for i, x in enumerate(tau):
            assert fn(float(x)) == vec[i]

    def test_matches_piece_by_piece_horner(self):
        # Reference: Horner's rule run separately on the points of each piece.
        for seed in range(40):
            fn, _, _ = random_bounded_function(seed, 0.5, 2.0, 1 + seed % 16, seed % 5)
            u = np.log(DENSE_TAU)
            piece = np.searchsorted(fn.breakpoints, u, side="right") - 1
            expected = np.zeros_like(u)
            for j, coeffs in enumerate(fn.coefficients):
                acc = np.zeros(np.count_nonzero(piece == j))
                for c in reversed(coeffs):
                    acc = acc * u[piece == j] + c
                expected[piece == j] = acc
            assert np.array_equal(fn.unclipped(DENSE_TAU), expected)

    def test_two_dimensional_arguments(self):
        fn, _, _ = random_bounded_function(5, 0.5, 2.0, 3, 2)
        tau = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert fn(tau).shape == (2, 2)
        assert fn(tau)[1, 0] == fn(3.0)

    def test_extends_beyond_design_span(self):
        fn, _, _ = random_bounded_function(11, 0.5, 2.0, 4, 3)
        far = fn(np.exp(LOG_SPAN + 2.0))
        assert 0.5 <= far <= 2.0

    def test_nonpositive_argument_rejected(self):
        fn, _, _ = random_bounded_function(5, 0.5, 2.0, 3, 2)
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(np.array([1.0, -2.0]))

    def test_constant_function_shapes(self):
        env = ConstantFunction(1.5)
        assert env(2.0) == 1.5
        assert env(np.float64(2.0)) == 1.5
        out = env(np.ones((3, 2)))
        assert out.shape == (3, 2)
        assert np.all(out == 1.5)


class TestValidation:
    @pytest.mark.parametrize(
        "lo, hi, pieces, degree",
        [
            (0.0, 1.0, 1, 0),
            (-1.0, 1.0, 1, 0),
            (2.0, 1.0, 1, 0),
            (1.0, 1.0, 1, 0),
            (0.5, 2.0, 0, 0),
            (0.5, 2.0, 17, 0),
            (0.5, 2.0, 1, -1),
            (0.5, 2.0, 1, 5),
        ],
    )
    def test_parameter_ranges(self, lo, hi, pieces, degree):
        with pytest.raises(DomainError):
            random_bounded_function(0, lo, hi, pieces, degree)

    def test_frozen_dataclass(self):
        fn, _, _ = random_bounded_function(5, 0.5, 2.0, 3, 2)
        with pytest.raises(AttributeError):
            fn.clip_lo = 0.1


class TestSmoothVariant:
    def test_stays_inside_band_without_clipping(self):
        for seed in range(60):
            fn = random_smooth_function(seed, 0.5, 3.0)
            raw = fn.unclipped(DENSE_TAU)
            assert np.all(raw >= 0.5), f"seed {seed}"
            assert np.all(raw <= 3.0), f"seed {seed}"
            assert not fn.clipped

    def test_single_piece_midpoint_at_one(self):
        fn = random_smooth_function(17, 1.0, 2.0)
        assert len(fn.breakpoints) == 1
        assert fn(1.0) == pytest.approx(1.5, abs=1e-12)

    def test_deterministic(self):
        a = random_smooth_function(8, 0.5, 2.0)
        b = random_smooth_function(8, 0.5, 2.0)
        assert a.coefficients == b.coefficients

    def test_validation(self):
        with pytest.raises(DomainError):
            random_smooth_function(0, -1.0, 2.0)
        with pytest.raises(DomainError):
            random_smooth_function(0, 0.5, 2.0, degree=0)
        with pytest.raises(DomainError):
            random_smooth_function(0, 0.5, 2.0, degree=9)

"""Tests for the seeded random function generator."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadafrac.errors import DomainError
from hadafrac.randfuncs import (
    LOG_SPAN,
    ConstantFunction,
    PiecewiseLogPoly,
    _extremes,
    _Stream,
    random_bounded_function,
    random_smooth_function,
)

DENSE_TAU = np.exp(np.linspace(0.0, LOG_SPAN, 10_000))


def piece_by_piece_draw(seed, lo, hi, pieces, degree):
    """Reference draw: one slope draw and one scalar Horner splice per piece."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges = (0.0, *(float(v) for v in np.sort(rng.uniform(0.0, LOG_SPAN, size=pieces - 1))))
    scale = hi - lo
    rows = []
    level = lo + scale * rng.uniform(0.2, 0.8)
    for j in range(len(edges)):
        coeffs = np.zeros(degree + 1)
        if degree > 0:
            coeffs[1:] = rng.uniform(-1.0, 1.0, size=degree) * (
                scale / LOG_SPAN ** np.arange(1, degree + 1)
            )
        partial = 0.0
        for c in coeffs[::-1]:
            partial = partial * edges[j] + c
        coeffs[0] = level - partial
        rows.append(tuple(float(c) for c in coeffs))
        if j + 1 < len(edges):
            level = 0.0
            for c in coeffs[::-1]:
                level = level * edges[j + 1] + c
    return edges, tuple(rows)


def companion_eigvals_clips(ends, coeffs, lo, hi):
    """Reference flag: every critical point from the companion matrix's eigenvalues."""
    points = [ends]
    degree = coeffs.shape[1] - 1
    if degree >= 2:
        deriv = coeffs[:, 1:] * np.arange(1, degree + 1)
        lead = deriv[:, -1]
        flat = lead == 0.0
        size = degree - 1
        companion = np.zeros((len(coeffs), size, size))
        companion[:, np.arange(1, size), np.arange(size - 1)] = 1.0
        companion[:, :, -1] = -deriv[:, :-1] / np.where(flat, 1.0, lead)[:, None]
        if size == 1:
            roots = companion[:, :, 0]
        else:
            roots = np.linalg.eigvals(companion).real
        for j in np.flatnonzero(flat):
            found = np.roots(deriv[j, ::-1]).real
            roots[j] = ends[0, j]
            roots[j, : found.size] = found
        points.append(np.clip(roots.T, ends[0], ends[1]))
    values = np.vstack(points)
    out = np.zeros_like(values)
    for c in coeffs.T[::-1]:
        out = out * values + c
    return bool(out.min() < lo or out.max() > hi)


def leaves_band(ends, coeffs, lo, hi):
    """Whether the exact range of the pieces leaves [lo, hi], as the flag is set."""
    low, high = _extremes(ends, coeffs)
    return low < lo or high > hi


def piece_ends(fn):
    """The (2, pieces) array of each piece's ends on the design span."""
    return np.array([fn.breakpoints, (*fn.breakpoints[1:], LOG_SPAN)])


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

    def test_every_clip_a_dense_scan_sees_is_flagged(self):
        seen = 0
        for seed in range(500):
            fn, _, _ = random_bounded_function(seed, 1.0, 1.5, 1 + seed % 16, seed % 5)
            raw = fn.unclipped(DENSE_TAU)
            if np.any(raw < 1.0) or np.any(raw > 1.5):
                seen += 1
                assert fn.clipped, f"seed {seed}"
        assert seen > 100

    def test_excursion_between_scan_points_is_flagged(self):
        # One piece peaking 1e-9 above hi midway between two points of a
        # 2048-point grid on [0, LOG_SPAN]; at those points it is 2.7e-7
        # below hi, and it stays above lo on the whole span.
        lo, hi = 0.5, 2.0
        grid = np.linspace(0.0, LOG_SPAN, 2048)
        peak = 0.5 * (grid[1000] + grid[1001])
        # hi + 1e-9 - (u - peak)^2 / 2, lowest degree first.
        row = (hi + 1e-9 - 0.5 * peak**2, peak, -0.5)
        fn = PiecewiseLogPoly((0.0,), (row,), lo, hi)
        scan = fn.unclipped(np.exp(grid))
        assert np.all((lo < scan) & (scan < hi))
        assert fn.clipped
        ends = np.array([[0.0], [LOG_SPAN]])
        assert leaves_band(ends, np.array([row]), lo, hi)
        assert not leaves_band(ends, np.array([row]), lo, hi + 2e-9)

    def test_zero_leading_coefficient_stays_finite(self):
        # Quartic rows whose top terms vanish: 1 + 1.5u - 0.5u^2 peaks at
        # 2.125 inside (0, 3) with both ends at 1, and a constant row.
        coeffs = np.array([[1.0, 1.5, -0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
        ends = np.array([[0.0, LOG_SPAN], [LOG_SPAN, LOG_SPAN]])
        with np.errstate(all="raise"):
            assert leaves_band(ends, coeffs, 0.5, 2.0)
            assert not leaves_band(ends, coeffs, 0.5, 2.2)

    def test_flag_matches_companion_eigenvalues(self):
        flagged = 0
        for seed in range(300):
            for pieces in (1, 4, 16):
                for degree in (2, 3, 4):
                    fn, _, _ = random_bounded_function(seed, 0.5, 2.0, pieces, degree)
                    expected = companion_eigvals_clips(
                        piece_ends(fn), np.array(fn.coefficients), 0.5, 2.0
                    )
                    assert fn.clipped == expected, (seed, pieces, degree)
                    flagged += expected
        assert 0 < flagged < 2700

    @pytest.mark.parametrize(
        "row, right, lo, hi, clips",
        [
            # p' = 3 (u - 1.5)^2 + 1 > 0: complex critical pair, real part
            # 1.5; p rises from 1 to 10.75 on [0, 3].
            ((1.0, 7.75, -4.5, 1.0), 3.0, 0.5, 11.0, False),
            ((1.0, 7.75, -4.5, 1.0), 3.0, 0.5, 10.0, True),
            # p' = 3 (u - 1.5)^2: discriminant exactly 0, a double critical
            # point; p rises from 1 to 7.75 on [0, 3].
            ((1.0, 6.75, -4.5, 1.0), 3.0, 0.5, 8.0, False),
            ((1.0, 6.75, -4.5, 1.0), 3.0, 1.5, 8.0, True),
            # p' = 3 (u - 1) (u - 2): on [0, 1.5] the ends give 0.5 and 2.75,
            # and the peak is p(1) = 3 exactly, at a root inside the piece.
            ((0.5, 6.0, -4.5, 1.0), 1.5, 0.4, 3.0, False),
            ((0.5, 6.0, -4.5, 1.0), 1.5, 0.4, 3.0 - 1e-9, True),
        ],
    )
    def test_cubic_critical_points(self, row, right, lo, hi, clips):
        ends = np.array([[0.0], [right]])
        coeffs = np.array([row])
        assert leaves_band(ends, coeffs, lo, hi) == clips
        assert companion_eigvals_clips(ends, coeffs, lo, hi) == clips

    def test_wide_band_rarely_clips(self):
        fn, _, _ = random_bounded_function(3, 0.01, 100.0, 2, 1)
        assert not fn.clipped
        assert np.array_equal(fn(DENSE_TAU), fn.unclipped(DENSE_TAU))


class TestComputedFlag:
    def test_flag_is_computed_not_passed(self):
        # Every value of the constant 5 is clipped to 2.
        assert PiecewiseLogPoly((0.0,), ((5.0,),), 1.0, 2.0).clipped
        assert not PiecewiseLogPoly((0.0,), ((1.5,),), 1.0, 2.0).clipped
        with pytest.raises(TypeError):
            PiecewiseLogPoly((0.0,), ((5.0,),), 1.0, 2.0, False)

    @pytest.mark.parametrize(
        "breakpoints, coefficients, clipped",
        [
            # 1 + 0.2u reaches 1.6 at LOG_SPAN and leaves the band only past it.
            ((0.0,), ((1.0, 0.2),), False),
            # A piece that starts past LOG_SPAN is off the design span ...
            ((0.0, LOG_SPAN + 1.0), ((1.5,), (5.0,)), False),
            # ... and one that starts at LOG_SPAN is on it, at one point.
            ((0.0, LOG_SPAN), ((1.5,), (5.0,)), True),
            # The last piece on the span ends at LOG_SPAN, not at the next breakpoint.
            ((0.0, 2.0, LOG_SPAN + 1.0), ((1.5, 0.0), (-0.5, 0.9), (5.0, 0.0)), False),
            ((0.0, 2.0, LOG_SPAN + 1.0), ((1.5, 0.0), (-0.5, 1.1), (5.0, 0.0)), True),
        ],
    )
    def test_flag_covers_the_design_span_only(self, breakpoints, coefficients, clipped):
        assert PiecewiseLogPoly(breakpoints, coefficients, 0.5, 2.5).clipped == clipped

    @pytest.mark.parametrize(
        "row, clipped",
        [
            # Leading coefficients too small to divide by: u + 1e-310 u^4
            # falls below 0.5 near u = 0; 1 + 1.5u - 0.5u^2 + tiny peaks at 2.125.
            ((0.0, 1.0, 0.0, 0.0, 1e-310), True),
            ((1.0, 1.5, -0.5, 1e-320, 1e-310), False),
            ((1.0, 0.1, 1e-320, 1e-310), False),
            # Coefficients whose values on the span overflow leave the band.
            ((1.0, 1e308, 0.0, 0.0, 1.0), True),
            ((1e308,) * 5, True),
        ],
    )
    def test_extreme_rows_get_a_flag_without_warnings(self, row, clipped):
        with np.errstate(all="raise"):
            assert PiecewiseLogPoly((0.0,), (row,), 0.5, 2.5).clipped == clipped


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

    def test_matches_piece_by_piece_draw(self):
        for seed in range(300):
            for pieces in (1, 4, 16):
                for degree in range(5):
                    fn, _, _ = random_bounded_function(seed, 0.5, 2.0, pieces, degree)
                    edges, rows = piece_by_piece_draw(seed, 0.5, 2.0, pieces, degree)
                    assert fn.breakpoints == edges
                    assert fn.coefficients == rows, (seed, pieces, degree)

    def test_two_dimensional_arguments(self):
        fn, _, _ = random_bounded_function(5, 0.5, 2.0, 3, 2)
        tau = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert fn(tau).shape == (2, 2)
        assert fn(tau)[1, 0] == fn(3.0)

    def test_non_square_arguments_match_flat(self):
        fn, _, _ = random_bounded_function(5, 0.5, 2.0, 8, 3)
        tau = np.exp(np.linspace(0.01, LOG_SPAN, 12))
        assert np.array_equal(fn.unclipped(tau.reshape(3, 4)), fn.unclipped(tau).reshape(3, 4))
        assert np.array_equal(fn(tau.reshape(4, 3)), fn(tau).reshape(4, 3))

    def test_extends_beyond_design_span(self):
        fn, _, _ = random_bounded_function(11, 0.5, 2.0, 4, 3)
        far = fn(np.exp(LOG_SPAN + 2.0))
        assert 0.5 <= far <= 2.0

    def test_overflow_is_clipped_without_a_warning(self):
        # The suite turns RuntimeWarning into an error.
        fn, _, _ = random_bounded_function(0, 0.5, 1e300, 4, 4)
        assert fn.unclipped(1e300) == -math.inf
        assert fn(1e300) == 0.5
        assert PiecewiseLogPoly((0.0,), ((1e308,) * 5,), 0.5, 2.5)(2.0) == 2.5

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
            (0.5, 2.0, 2.7, 1),
            (0.5, 2.0, 2, 1.9),
            (0.5, 2.0, 2.0, 1),
            (0.5, 2.0, "a", 1),
            (0.5, 2.0, 2, "a"),
            (0.5, 2.0, 2, None),
            (0.5, 2.0, True, 1),
        ],
    )
    def test_parameter_ranges(self, lo, hi, pieces, degree):
        with pytest.raises(DomainError):
            random_bounded_function(0, lo, hi, pieces, degree)

    @pytest.mark.parametrize("seed", [0.9, 2.0, "a", None, True, -1, 2**128])
    def test_seed_must_be_a_generator_key(self, seed):
        with pytest.raises(DomainError):
            random_bounded_function(seed, 0.5, 2.0, 2, 1)
        with pytest.raises(DomainError):
            random_smooth_function(seed, 0.5, 2.0)

    def test_numpy_integers_are_accepted(self):
        fn, _, _ = random_bounded_function(np.uint64(7), 0.5, 2.0, np.int8(3), np.int64(2))
        assert fn == random_bounded_function(7, 0.5, 2.0, 3, 2)[0]
        assert random_bounded_function(2**128 - 1, 0.5, 2.0, 1, 0)[0].clip_lo == 0.5

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

    def test_exact_swing_is_the_set_share_of_the_band(self):
        span = np.array([[0.0], [LOG_SPAN]])
        for seed in range(100):
            fn = random_smooth_function(seed, 0.5, 3.0, degree=1 + seed % 4)
            low, high = _extremes(span, np.array(fn.coefficients))
            assert max(1.75 - low, high - 1.75) == pytest.approx(0.45 * 2.5, rel=1e-13)

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
        with pytest.raises(DomainError):
            random_smooth_function(0, 0.5, 2.0, degree=2.5)


class TestStream:
    """A re-keyed stream draws exactly what a generator newly built on the key draws."""

    EDGE_KEYS = [0, 2**63 - 1, 2**64 - 1, 2**64, 2**127 + 5, 2**128 - 1]

    @staticmethod
    def fuzzer_calls(rng, i):
        """The calls a trial and its random functions make, with sizes that vary by i."""
        return (
            rng.integers(2, 51),
            rng.integers(0, 2**62),
            rng.integers(1, 17),
            rng.uniform(1.25, 15.0),
            rng.uniform(),
            *rng.uniform(0.0, LOG_SPAN, size=i % 16),
            *rng.uniform(-1.0, 1.0, size=(i % 7, 4)).ravel(),
        )

    def test_rekeyed_stream_matches_new_generators(self):
        keys = random.Random(20261020)
        sweep = self.EDGE_KEYS + [keys.getrandbits((63, 64, 128)[i % 3]) for i in range(20_000)]
        stream = _Stream()
        for i, key in enumerate(sweep):
            # Leave the stream mid-buffer on another key: an odd number of
            # bounded draws holds back half a 64-bit word.
            stream.keyed(i).integers(0, 17, size=2 * (i % 3) + 1)
            drawn = self.fuzzer_calls(stream.keyed(key), i)
            assert drawn == self.fuzzer_calls(np.random.Generator(np.random.Philox(key=key)), i)

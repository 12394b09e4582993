"""Seeded random test functions with correct-by-construction envelopes.

The family is piecewise polynomial in u = ln tau, clipped into [lo, hi]: the
operator's natural variable is the logarithm, so exactly-integrable cases
(plain powers of ln) occur with positive probability, and clipping makes the
two constant envelopes valid everywhere without any search.  Every draw is a
pure function of the seed through a counter-based generator, so the same seed
reproduces the same coefficients bit for bit on any platform.  Whether
clipping engages is decided exactly on the design span [0, LOG_SPAN], from
each piece's values at its ends and at its derivative's critical points: the
quadratic formula gives them for degree 3, the eigenvalues of the companion
matrix for degree 4.
"""

from dataclasses import dataclass, field
import math
import operator

import numpy as np

from .errors import DomainError, all_finite, check_int, check_real

# Functions are shaped over ln tau in [0, LOG_SPAN]; beyond the last
# breakpoint the final piece extends, still clipped.
LOG_SPAN = 3.0

MAX_PIECES = 16
MAX_DEGREE = 4

# Largest band edge: a draw stays within some hundred band widths of its band.
_MAX_LEVEL = 1e300

# Grid density over which the smooth draw measures its raw swing.
_CLIP_SCAN_POINTS = 2048

# Largest seed the counter-based generator takes as its 128-bit key.
_MAX_SEED = 2**128 - 1

_LOG_SPAN_POWERS = LOG_SPAN ** np.arange(1, MAX_DEGREE + 1)

_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class ConstantFunction:
    """Constant callable; doubles as an envelope whose level is inspectable."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", check_real("value", self.value))

    def __call__(self, tau):
        if np.isscalar(tau) or np.ndim(tau) == 0:
            return self.value
        return np.full(np.shape(tau), self.value)


@dataclass(frozen=True)
class PiecewiseLogPoly:
    """Piecewise polynomial in ln tau, clipped into [clip_lo, clip_hi].

    breakpoints[0] is always 0 (tau = 1); piece j applies on
    [breakpoints[j], breakpoints[j+1]) and the last piece extends right.
    Coefficients are stored lowest degree first, in the unshifted variable
    ln tau, one row of equal length per piece.  The unclipped polynomial is
    continuous at every breakpoint; `clipped` records whether clipping
    engages anywhere on the design span [0, LOG_SPAN], decided exactly
    rather than on a sample grid.
    """

    breakpoints: tuple
    coefficients: tuple
    clip_lo: float
    clip_hi: float
    clipped: bool
    _edges: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_band(self.clip_lo, self.clip_hi)
        edges, rows = _floats(self.breakpoints), _floats(self.coefficients)
        knots = edges.tolist()
        if not (edges.ndim == 1 and knots and knots[0] == 0.0 and knots[-1] < math.inf
                and all(map(operator.lt, knots, knots[1:]))):
            raise DomainError(
                f"breakpoints must be finite and increase strictly from 0, got {self.breakpoints!r}"
            )
        if not (rows.ndim == 2 and len(rows) == edges.size and 0 < rows.shape[1] <= MAX_DEGREE + 1
                and all_finite(rows)):
            raise DomainError(
                f"coefficients must be one row of 1 to {MAX_DEGREE + 1} finite numbers "
                f"per breakpoint, got {self.coefficients!r}"
            )
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_rows", rows)

    def unclipped(self, tau):
        """Evaluate the continuous piecewise polynomial without clipping."""
        arr = np.asarray(tau, dtype=float)
        if (arr <= 0.0).any():
            raise DomainError("arguments must be positive")
        # _horner pairs the points of a flat u with the rows they select.
        u = np.log(arr.ravel())
        # side="right" never returns more than len(edges), so only 0 bounds it.
        idx = np.maximum(self._edges.searchsorted(u, side="right") - 1, 0)
        out = _horner(self._rows[idx], u)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def __call__(self, tau):
        return np.minimum(np.maximum(self.unclipped(tau), self.clip_lo), self.clip_hi)


def _floats(value):
    """`value` as a float array; an empty one if it is ragged or not numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return np.empty(0)


def _horner(rows, u):
    """Row j of `rows` (lowest degree first) evaluated at the points u[..., j]."""
    out = np.zeros(u.shape)
    for c in rows.T[::-1]:
        out = out * u + c
    return out


def _continuous_pieces(rng, ends, degree, lo, hi):
    """Draw per-piece coefficients, splicing constants for continuity.

    ends[0, j] and ends[1, j] are the left and right end of piece j.
    Returns a (pieces, degree + 1) array.  All slopes come from one draw,
    which takes the same values from the stream as one draw per piece.
    """
    scale = hi - lo
    pieces = ends.shape[1]
    steps = np.empty(2 * pieces)
    steps[0] = lo + scale * rng.uniform(0.2, 0.8)
    coeffs = np.zeros((pieces, degree + 1))
    # Damp higher degrees so excursions stay comparable to the band.
    coeffs[:, 1:] = rng.uniform(-1.0, 1.0, size=(pieces, degree)) * (
        scale / _LOG_SPAN_POWERS[:degree]
    )
    # Pin the value at each piece's left edge to the running level, which
    # the piece then carries to its right edge: c[j] = level - left[j] and
    # the next level is right[j] + c[j].  add.accumulate sums strictly left
    # to right, so it does those two roundings per piece in that order.
    left, right = _horner(coeffs, ends)
    np.negative(left, out=steps[1::2])
    steps[2::2] = right[:-1]
    coeffs[:, 0] = np.add.accumulate(steps)[1::2]
    return coeffs


def _clips(ends, coeffs, lo, hi):
    """Whether some piece leaves [lo, hi] between its ends (as in ends[:, j]).

    A piece attains its extremes over an interval at an end or at a real
    root of its derivative, so it is evaluated exactly there.  The roots
    come from the quadratic formula for degree 3 and from the eigenvalues
    of the companion matrix for degree 4; complex roots contribute their
    real parts, which are points of the interval too once clipped into it.
    """
    points = [ends]
    degree = coeffs.shape[1] - 1
    if degree >= 2:
        deriv = coeffs[:, 1:] * np.arange(1, degree + 1)
        lead = deriv[:, -1]
        flat = lead == 0.0
        # Lower coefficients of the monic derivative, negated: the last
        # column of its companion matrix.
        column = -deriv[:, :-1] / np.where(flat, 1.0, lead)[:, None]
        if degree == 2:
            roots = column  # a 1 x 1 matrix is its own eigenvalue
        elif degree == 3:
            # u^2 = column[1] u + column[0]; a negative discriminant leaves
            # the real part `half` of the complex pair.
            half = 0.5 * column[:, 1]
            root = np.sqrt(np.maximum(half * half + column[:, 0], 0.0))
            roots = half[:, None] + root[:, None] * _SIGNS
        else:
            companion = np.zeros((len(coeffs), 3, 3))
            companion[:, (1, 2), (0, 1)] = 1.0
            companion[:, :, -1] = column
            roots = np.linalg.eigvals(companion).real
        for j in np.flatnonzero(flat):
            # np.roots drops the vanishing leading terms; pad with an end.
            found = np.roots(deriv[j, ::-1]).real
            roots[j] = ends[0, j]
            roots[j, : found.size] = found
        points.append(np.minimum(np.maximum(roots.T, ends[0]), ends[1]))
    values = _horner(coeffs, np.concatenate(points))
    return bool(values.min() < lo or values.max() > hi)


def _generator(seed):
    """The counter-based generator keyed by an integer seed in [0, 2^128)."""
    return np.random.Generator(np.random.Philox(key=check_int("seed", seed, 0, _MAX_SEED)))


def _check_band(lo, hi):
    lo, hi = check_real("lo", lo), check_real("hi", hi)
    if not 0.0 < lo < hi <= _MAX_LEVEL:
        raise DomainError(f"need 0 < lo < hi <= {_MAX_LEVEL:g}, got lo={lo:g}, hi={hi:g}")
    return lo, hi


def random_bounded_function(seed, lo, hi, pieces, degree):
    """Seeded draw of a clipped function plus its two constant envelopes.

    Returns (fn, lo_envelope, hi_envelope) where lo <= fn(tau) <= hi holds
    pointwise by construction.  Deterministic in seed.
    """
    lo, hi = _check_band(lo, hi)
    pieces = check_int("pieces", pieces, 1, MAX_PIECES)
    degree = check_int("degree", degree, 0, MAX_DEGREE)
    rng = _generator(seed)
    interior = rng.uniform(0.0, LOG_SPAN, size=pieces - 1)
    interior.sort()
    # Piece j spans [ends[0, j], ends[1, j]] of the design span.
    ends = np.empty((2, pieces))
    ends[0, 0] = 0.0
    ends[0, 1:] = interior
    ends[1, :-1] = interior
    ends[1, -1] = LOG_SPAN
    coeffs = _continuous_pieces(rng, ends, degree, lo, hi)
    fn = PiecewiseLogPoly(
        breakpoints=tuple(ends[0].tolist()),
        coefficients=tuple([tuple(row) for row in coeffs.tolist()]),
        clip_lo=lo,
        clip_hi=hi,
        clipped=_clips(ends, coeffs, lo, hi),
    )
    return fn, ConstantFunction(lo), ConstantFunction(hi)


def random_smooth_function(seed, lo, hi, degree=4):
    """Seeded draw of a single smooth polynomial piece inside [lo, hi].

    The raw polynomial is rescaled around the band midpoint so that clipping
    never engages on the design span: the result is globally smooth, which
    the quadrature cross-checks require.
    """
    lo, hi = _check_band(lo, hi)
    degree = check_int("degree", degree, 1, MAX_DEGREE)
    rng = _generator(seed)
    raw = rng.uniform(-1.0, 1.0, size=degree)
    u = np.linspace(0.0, LOG_SPAN, _CLIP_SCAN_POINTS)
    swing = _horner(raw[None, :], u[:, None])[:, 0]
    swing *= u  # no constant term yet; polynomial vanishes at u = 0
    mid = 0.5 * (lo + hi)
    amp = 0.45 * (hi - lo) / max(float(np.max(np.abs(swing))), 1e-30)
    coeffs = (mid, *(float(amp * c) for c in raw))
    return PiecewiseLogPoly(
        breakpoints=(0.0,),
        coefficients=(coeffs,),
        clip_lo=lo,
        clip_hi=hi,
        clipped=False,
    )

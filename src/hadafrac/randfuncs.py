"""Seeded random test functions with correct-by-construction envelopes.

The family is piecewise polynomial in u = ln tau, clipped into [lo, hi]: the
operator's natural variable is the logarithm, so exactly-integrable cases
(plain powers of ln) occur with positive probability, and clipping makes the
two constant envelopes valid everywhere without any search.  Every draw is a
pure function of the seed through a counter-based generator, so the same seed
reproduces the same coefficients bit for bit on any platform.  Each thread
keeps one such generator and re-keys it whole on every draw, so no state
carries from one draw to the next.  The range of the pieces on the design
span [0, LOG_SPAN] is found exactly, from each piece's values at its ends and
at its derivative's critical points: the quadratic formula gives them for
degree 3, the eigenvalues of the companion matrix for degree 4.  It decides
whether clipping engages, and it scales the smooth draw.
"""

from dataclasses import dataclass, field
import itertools
import math
import operator
import threading

import numpy as np

from .errors import DomainError, all_finite, check_int, check_real

# Functions are shaped over ln tau in [0, LOG_SPAN]; beyond the last
# breakpoint the final piece extends, still clipped.
LOG_SPAN = 3.0

MAX_PIECES = 16
MAX_DEGREE = 4

# Largest band edge: a draw stays within some hundred band widths of its band.
_MAX_LEVEL = 1e300

# Largest seed the counter-based generator takes as its 128-bit key.
_MAX_SEED = 2**128 - 1
_WORD_MASK = 2**64 - 1

_LOG_SPAN_POWERS = LOG_SPAN ** np.arange(1, MAX_DEGREE + 1)

_SIGNS = np.array([-1.0, 1.0])

_BOOLS = frozenset((bool, np.bool_))


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
    continuous at every breakpoint.  `clipped` is computed, not passed in:
    whether clipping engages anywhere on the design span [0, LOG_SPAN],
    decided exactly rather than on a sample grid.
    """

    breakpoints: tuple
    coefficients: tuple
    clip_lo: float
    clip_hi: float
    clipped: bool = field(init=False)
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
        # NumPy reads a bool among numbers as 0 or 1, so the entries are
        # scanned themselves; the checks above make both fields iterable.
        if not _BOOLS.isdisjoint(map(type, itertools.chain(self.breakpoints, *self.coefficients))):
            raise DomainError(
                f"breakpoints and coefficients must not hold bools, got "
                f"{self.breakpoints!r} and {self.coefficients!r}"
            )
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_rows", rows)
        # The pieces that start on the design span, each cut off at LOG_SPAN.
        count = edges.searchsorted(LOG_SPAN, side="right")
        ends = np.empty((2, count))
        ends[0] = edges[:count]
        ends[1, :-1] = edges[1:count]
        ends[1, -1] = LOG_SPAN
        low, high = _extremes(ends, rows[:count])
        object.__setattr__(self, "clipped", low < self.clip_lo or high > self.clip_hi)

    @np.errstate(over="ignore", invalid="ignore")
    def unclipped(self, tau):
        """Evaluate the continuous piecewise polynomial without clipping.

        Far past the design span, or with huge coefficients, a value may
        overflow to an infinity, which clipping then takes to a band edge.
        """
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
    """`value` as a float array; an empty one if it is ragged or its entries
    are not all ints or floats: a numeric string is refused, as check_real
    refuses it."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        return np.empty(0)
    return arr.astype(float, copy=False) if arr.dtype.kind in "iuf" else np.empty(0)


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


@np.errstate(all="ignore")
def _extremes(ends, coeffs):
    """(min, max) of the pieces, each between its ends (as in ends[:, j]).

    A piece attains its extremes over an interval at an end or at a real
    root of its derivative, so it is evaluated exactly there.  The roots
    come from the quadratic formula for degree 3 and from the eigenvalues
    of the companion matrix for degree 4; complex roots contribute their
    real parts, which are points of the interval too once clipped into it.
    A value that overflows is infinite, so it leaves any band.
    """
    points = [ends]
    degree = coeffs.shape[1] - 1
    if degree >= 2:
        deriv = coeffs[:, 1:] * np.arange(1, degree + 1)
        # Lower coefficients of the monic derivative, negated: the last
        # column of its companion matrix.  A leading coefficient of 0,
        # or one too small to divide by, leaves a row that is not finite.
        column = -deriv[:, :-1] / deriv[:, -1:]
        flat = []
        if not all_finite(column):
            flat = np.flatnonzero(~np.isfinite(column).all(axis=1))
            column[flat] = 0.0
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
        for j in flat:
            # Drop the leading terms too small to divide by (zeros among
            # them): they move the roots that matter by less than
            # round-off.  Pad the roots with an end.
            row = deriv[j]
            while row.size > 1 and not np.isfinite(row[:-1] / row[-1]).all():
                row = row[:-1]
            found = np.roots(row[::-1]).real
            roots[j] = ends[0, j]
            roots[j, : found.size] = found
        points.append(np.minimum(np.maximum(roots.T, ends[0]), ends[1]))
    values = _horner(coeffs, np.concatenate(points))
    return float(values.min()), float(values.max())


class _Stream(threading.local):
    """One counter-based generator per thread, re-keyed whole on every use.

    Philox's draws depend only on its key and counter, so writing the key
    and assigning the state, which zeroes the counter and empties the
    buffers, gives exactly the draws of a generator newly built on that
    key, at a fifth of the cost of building one.  The generator is built on
    first use, so importing the package does not import `numpy.random`.
    """

    generator = None

    def keyed(self, seed):
        """The generator keyed by an integer seed in [0, 2^128)."""
        seed = check_int("seed", seed, 0, _MAX_SEED)
        if self.generator is None:
            self.generator = np.random.Generator(np.random.Philox(key=0))
            self.state = self.generator.bit_generator.state
        # An integer key is split into two 64-bit words, low word first.
        key = self.state["state"]["key"]
        key[0] = seed & _WORD_MASK
        key[1] = seed >> 64
        self.generator.bit_generator.state = self.state
        return self.generator


# The stream behind every random function.  A caller that holds another
# stream, as a fuzz trial does, keeps its own _Stream.
_DRAWS = _Stream()


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
    rng = _DRAWS.keyed(seed)
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
    )
    return fn, ConstantFunction(lo), ConstantFunction(hi)


def random_smooth_function(seed, lo, hi, degree=4):
    """Seeded draw of a single smooth polynomial piece inside [lo, hi].

    The raw polynomial is rescaled around the band midpoint so that its
    largest exact deviation from it on the design span is 0.45 of the band
    width.  Clipping never engages there: the result is globally smooth,
    which the quadrature cross-checks require.
    """
    lo, hi = _check_band(lo, hi)
    degree = check_int("degree", degree, 1, MAX_DEGREE)
    rng = _DRAWS.keyed(seed)
    raw = rng.uniform(-1.0, 1.0, size=degree)
    # The raw polynomial has no constant term yet, so it vanishes at u = 0.
    low, high = _extremes(np.array([[0.0], [LOG_SPAN]]), np.array([[0.0, *raw]]))
    mid = 0.5 * (lo + hi)
    amp = 0.45 * (hi - lo) / max(-low, high, 1e-30)
    coeffs = (mid, *(float(amp * c) for c in raw))
    return PiecewiseLogPoly(
        breakpoints=(0.0,),
        coefficients=(coeffs,),
        clip_lo=lo,
        clip_hi=hi,
    )

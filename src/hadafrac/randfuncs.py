"""Seeded random test functions with correct-by-construction envelopes.

The family is piecewise polynomial in u = ln tau, clipped into [lo, hi]: the
operator's natural variable is the logarithm, so exactly-integrable cases
(plain powers of ln) occur with positive probability, and clipping makes the
two constant envelopes valid everywhere without any search.  Every draw is a
pure function of the seed through a counter-based generator, so the same seed
reproduces the same coefficients bit for bit on any platform.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Functions are shaped over ln tau in [0, LOG_SPAN]; beyond the last
# breakpoint the final piece extends, still clipped.
LOG_SPAN = 3.0

MAX_PIECES = 16
MAX_DEGREE = 4

# Grid density used to decide whether clipping actually engages on the span.
_CLIP_SCAN_POINTS = 2048


@dataclass(frozen=True)
class ConstantFunction:
    """Constant callable; doubles as an envelope whose level is inspectable."""

    value: float

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
    engages anywhere on the design span.
    """

    breakpoints: tuple
    coefficients: tuple
    clip_lo: float
    clip_hi: float
    clipped: bool

    def unclipped(self, tau):
        """Evaluate the continuous piecewise polynomial without clipping."""
        scalar = np.isscalar(tau) or np.ndim(tau) == 0
        arr = np.atleast_1d(np.asarray(tau, dtype=float))
        if np.any(arr <= 0.0):
            raise DomainError("arguments must be positive")
        u = np.log(arr)
        edges = np.asarray(self.breakpoints)
        idx = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(edges) - 1)
        rows = np.asarray(self.coefficients)[idx]
        out = np.zeros_like(u)
        for c in rows.T[::-1]:
            out = out * u + c
        return float(out[0]) if scalar else out.reshape(np.shape(tau))

    def __call__(self, tau):
        return np.clip(self.unclipped(tau), self.clip_lo, self.clip_hi)


def _continuous_pieces(rng, edges, degree, lo, hi):
    """Draw per-piece coefficients, splicing constants for continuity."""
    scale = hi - lo
    pieces = []
    level = lo + scale * rng.uniform(0.2, 0.8)
    for j in range(len(edges)):
        coeffs = np.zeros(degree + 1)
        if degree > 0:
            # Damp higher degrees so excursions stay comparable to the band.
            coeffs[1:] = rng.uniform(-1.0, 1.0, size=degree) * (
                scale / LOG_SPAN ** np.arange(1, degree + 1)
            )
        # Pin the value at the piece's left edge to the running level.
        left = edges[j]
        partial = 0.0
        for c in coeffs[::-1]:
            partial = partial * left + c
        coeffs[0] = level - partial
        pieces.append(tuple(float(c) for c in coeffs))
        if j + 1 < len(edges):
            right = edges[j + 1]
            level = 0.0
            for c in coeffs[::-1]:
                level = level * right + c
    return tuple(pieces)


def random_bounded_function(seed, lo, hi, pieces, degree):
    """Seeded draw of a clipped function plus its two constant envelopes.

    Returns (fn, lo_envelope, hi_envelope) where lo <= fn(tau) <= hi holds
    pointwise by construction.  Deterministic in seed.
    """
    lo = float(lo)
    hi = float(hi)
    if not 0.0 < lo < hi:
        raise DomainError(f"need 0 < lo < hi, got lo={lo:g}, hi={hi:g}")
    pieces = int(pieces)
    if not 1 <= pieces <= MAX_PIECES:
        raise DomainError(f"pieces must lie in [1, {MAX_PIECES}], got {pieces}")
    degree = int(degree)
    if not 0 <= degree <= MAX_DEGREE:
        raise DomainError(f"degree must lie in [0, {MAX_DEGREE}], got {degree}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    interior = np.sort(rng.uniform(0.0, LOG_SPAN, size=pieces - 1))
    edges = (0.0, *(float(v) for v in interior))
    coefficients = _continuous_pieces(rng, edges, degree, lo, hi)
    probe = PiecewiseLogPoly(
        breakpoints=edges,
        coefficients=coefficients,
        clip_lo=lo,
        clip_hi=hi,
        clipped=False,
    )
    scan = probe.unclipped(np.exp(np.linspace(0.0, LOG_SPAN, _CLIP_SCAN_POINTS)))
    engages = bool(np.any(scan < lo) or np.any(scan > hi))
    fn = PiecewiseLogPoly(
        breakpoints=edges,
        coefficients=coefficients,
        clip_lo=lo,
        clip_hi=hi,
        clipped=engages,
    )
    return fn, ConstantFunction(lo), ConstantFunction(hi)


def random_smooth_function(seed, lo, hi, degree=4):
    """Seeded draw of a single smooth polynomial piece inside [lo, hi].

    The raw polynomial is rescaled around the band midpoint so that clipping
    never engages on the design span: the result is globally smooth, which
    the quadrature cross-checks require.
    """
    lo = float(lo)
    hi = float(hi)
    if not 0.0 < lo < hi:
        raise DomainError(f"need 0 < lo < hi, got lo={lo:g}, hi={hi:g}")
    degree = int(degree)
    if not 1 <= degree <= MAX_DEGREE:
        raise DomainError(f"degree must lie in [1, {MAX_DEGREE}], got {degree}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    raw = rng.uniform(-1.0, 1.0, size=degree)
    u = np.linspace(0.0, LOG_SPAN, _CLIP_SCAN_POINTS)
    swing = np.zeros_like(u)
    for c in raw[::-1]:
        swing = swing * u + c
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

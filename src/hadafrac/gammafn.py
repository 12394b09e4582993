"""Gamma function on the positive real axis.

Self-contained Lanczos evaluation, accurate to better than 1e-13 relative
over the supported domain [2.2e-308, 170].  Orders and exponents used elsewhere in
the package are all positive, so no reflection formula is needed: arguments
below 1/2 are lifted with the recurrence Gamma(z) = Gamma(z+1)/z.
"""

import math

from .errors import DomainError, check_real

# Largest argument whose Gamma value fits in a double (Gamma(171) overflows).
GAMMA_MAX_ARG = 170.0

# Lanczos g=7 coefficients, 9 terms (Godfrey's table).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(z: float) -> float:
    """Gamma(z) for real z in [2.2e-308, 170].

    Raises DomainError outside that range.  Both caps guard double
    overflow; nothing in the package needs arguments beyond them.
    """
    z = check_real("gamma argument", z)
    # The floor is the smallest normal double: Gamma(z), about 1/z near 0,
    # overflows below 5.6e-309.
    if not 2.2250738585072014e-308 <= z <= GAMMA_MAX_ARG:
        raise DomainError(f"gamma argument {z!r} lies outside [2.2e-308, {GAMMA_MAX_ARG:g}]")
    if z < 0.5:
        # Shift into the Lanczos range; z+1 < 1.5 so no precision is lost.
        return _lanczos(z + 1.0) / z
    return _lanczos(z)


def _lanczos(z: float) -> float:
    """Lanczos sum for z >= 0.5."""
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    # exp-of-log form keeps t**(w+0.5) from overflowing near the domain cap
    return _SQRT_TWO_PI * math.exp((w + 0.5) * math.log(t) - t) * acc

"""The exact oracle against closed forms and the adaptive oracle."""

import itertools
import math

import numpy as np
import pytest

from hadafrac.operators import power_rule_integral
from hadafrac.randfuncs import random_bounded_function
from oracles import exact_integral, log_poly, oracle_integral

P = np.polynomial.Polynomial


@pytest.mark.parametrize("k", range(5))
def test_exact_integral_of_log_powers_is_the_power_rule(k):
    # (ln tau)^k vanishes at tau = 1, below every band, so 1 + (ln tau)^k
    # is the unclipped function; the power rule integrates its two terms.
    for alpha in (0.05, 0.3, 1.0, 2.5):
        for t in (1.01, 2.0, math.e, 15.0):
            expect = power_rule_integral(1.0, alpha, t) + power_rule_integral(k + 1.0, alpha, t)
            got = exact_integral(log_poly(1.0 + P.basis(k)), alpha, t)
            assert got == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_exact_integral_matches_adaptive_oracle_on_piecewise_draws():
    # Unclipped draws of 2 to 8 pieces; quad is split at their breakpoints.
    draws = (random_bounded_function(seed, 0.5, 2.0, 2 + seed % 7, 1 + seed % 4)[0]
             for seed in itertools.count())
    functions = list(itertools.islice((f for f in draws if not f.clipped), 40))
    for i, f in enumerate(functions):
        alpha = 0.1 + 2.9 * (i * 0.618 % 1.0)
        t = math.exp(0.1 + 2.9 * (i * 0.382 % 1.0))
        expect = oracle_integral(f, alpha, t, log_kinks=f.breakpoints)
        assert exact_integral(f, alpha, t) == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_exact_integral_refuses_a_clipped_function():
    f = log_poly(P([1.0, -1.0]))  # 1 - ln tau leaves the band at tau = e
    assert f.clipped
    with pytest.raises(ValueError, match="unclipped"):
        exact_integral(f, 0.5, 2.0)
    with pytest.raises(ValueError, match="need 1 <= t"):
        exact_integral(log_poly(P([1.0])), 0.5, 30.0)

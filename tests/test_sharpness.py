"""Sharpness: each check's bound is reached, not only never crossed.

The fuzzer and the saturation criterion catch a bound that is too tight;
a bound that is too loose passes both.  Here each check is driven towards
its bound by a known extremal family, and the best ratio lhs / bound must
come within a stated gap of 1.  Each gap was measured on the rules of the
stated order, t and node count, and is rounded up.  A check whose bound is
reached only in a limit asserts its measured best ratio as a floor.

The two-valued step functions are the extremal functions of the
Polya-Szego and Cassels/Kantorovich inequalities (Polya & Szego, Aufgaben
und Lehrsatze aus der Analysis I, 1925; Diaz & Metcalf, Bull. AMS 69,
1963).  A check only sees a function at the nodes of its measures, so a
step split at a midpoint between two nodes is a two-valued function for
the measure, and scanning every midpoint finds the best split of its mass.
"""

import numpy as np
import pytest

from hadafrac.inequalities import (
    BoundingQuadruple,
    ConstantBounds,
    constant_polya_szego,
    constant_polya_szego_two_order,
    minkowsky_related,
    polya_szego_double,
    polya_szego_single,
    power_mean_check,
    product_bound,
    ratio_bound_constant,
    young_pointwise_check,
)
from hadafrac.operators import Measure
from hadafrac.randfuncs import ConstantFunction

# The constant bands m <= x <= M and n <= y <= N of the step families.
m, M, n, N = 0.5, 2.0, 0.7, 1.9
BANDS = ConstantBounds(m, M, n, N)
ENVELOPES = BoundingQuadruple(*map(ConstantFunction, (m, M, n, N)))


def smooth(tau):
    """A positive function that is not constant on [1, t]."""
    return 1.0 + np.log(tau)


def step(split, before, after):
    """The function that is `before` below `split` and `after` from it on."""
    return lambda tau: np.where(tau < split, before, after)


def midpoints(orders, t, nodes):
    """Every midpoint between consecutive nodes of the measures of `orders` at t."""
    tau = np.unique(np.concatenate([Measure(order, t, nodes).tau for order in orders]))
    return 0.5 * (tau[1:] + tau[:-1])


def best_ratio(report_at, splits):
    """The largest ratio of report_at(split) over the splits; every report passes."""
    reports = [report_at(split) for split in splits]
    assert all(report.passed for report in reports)
    return max(report.ratio for report in reports)


# x is M then m and y is n then N, split where the measure's mass divides
# best: the Cassels extremal pair for one order.
@pytest.mark.parametrize("alpha, t, nodes, gap", [(0.5, 3.0, 64, 1.3e-5), (0.5, 3.0, 512, 2.6e-7)])
@pytest.mark.parametrize("check, hypothesis", [
    (polya_szego_single, ENVELOPES),
    (constant_polya_szego, BANDS),
], ids=["T31", "P31"])
def test_one_order_polya_szego_is_sharp(check, hypothesis, alpha, t, nodes, gap):
    ratio = best_ratio(
        lambda s: check(step(s, M, m), step(s, n, N), hypothesis, alpha, t, nodes=nodes),
        midpoints([alpha], t, nodes),
    )
    assert ratio >= 1.0 - gap


# With nondegenerate bands for both functions the two-order bounds of T32
# and P32 are out of reach: each order's factor is at most its Kantorovich
# constant, and their product stays below the bound ((m+M)(n+N))^2 / (4 (mn
# + MN)^2) = 0.613 here.  They are reached when x fills its band (its own
# envelopes for T32, a constant band for P32) and y is the step of the
# order beta.
def test_two_order_polya_szego_is_sharp():
    alpha, beta, t = 0.5, 1.5, 3.0
    envelopes = BoundingQuadruple(smooth, smooth, ConstantFunction(n), ConstantFunction(N))
    ratio = best_ratio(
        lambda s: polya_szego_double(smooth, step(s, n, N), envelopes, alpha, beta, t),
        midpoints([beta], t, 64),
    )
    assert ratio >= 1.0 - 1.5e-4


def test_two_order_constant_polya_szego_is_sharp():
    alpha, beta, t, c = 0.5, 1.5, 3.0, 1.3
    bands = ConstantBounds(c, c, n, N)
    ratio = best_ratio(
        lambda s: constant_polya_szego_two_order(
            ConstantFunction(c), step(s, n, N), bands, alpha, beta, t),
        midpoints([beta], t, 64),
    )
    assert ratio >= 1.0 - 1.5e-4


# T33 and P33 compare I^a{x^2} I^b{y^2} with (MN / (mn)) I^a{xy} I^b{xy}.
# The bound needs x/y = M/n where the measure of alpha lives and y/x = N/m
# where that of beta lives.  A small order puts its mass near tau = t and a
# large one near tau = 1, so x is m then M and y is N then n.  The bound is
# approached only as alpha falls and beta grows: the best ratio is a floor.
@pytest.mark.parametrize("alpha, beta, floor", [(0.1, 2.5, 0.883), (0.05, 170.0, 0.998)])
@pytest.mark.parametrize("check, hypothesis", [
    (product_bound, ENVELOPES),
    (ratio_bound_constant, BANDS),
], ids=["T33", "P33"])
def test_product_bounds_are_approached_as_the_orders_part(check, hypothesis, alpha, beta, floor):
    t = 3.0
    ratio = best_ratio(
        lambda s: check(step(s, m, M), step(s, N, n), hypothesis, alpha, beta, t),
        midpoints([alpha, beta], t, 64),
    )
    assert ratio >= floor


# With their own functions as envelopes T33 is exact for any x and y.
def test_product_bound_is_exact_with_its_functions_as_envelopes():
    y = step(2.0, n, N)
    envelopes = BoundingQuadruple(smooth, smooth, y, y)
    report = product_bound(smooth, y, envelopes, 0.5, 1.5, 3.0)
    assert report.ratio == pytest.approx(1.0, abs=1e-14)


# T34 splits xy through Young's inequality with weights fixed by the band
# m < x/y < M.  As the band closes on x/y = 1 the split becomes exact
# wherever x^p = y^q, so x = y works for p = q = 2 and x = y = 1 for any p.
# The ratio is then 1/(2 (M/(M+1))^2 + 2/(m+1)^2) = 1 - 1.0e-6 for p = 2.
@pytest.mark.parametrize("x, p", [(smooth, 2.0), (ConstantFunction(1.0), 3.0)],
                         ids=["smooth-p2", "one-p3"])
def test_minkowsky_related_is_sharp_as_the_band_closes(x, p):
    eps = 1e-6
    report = minkowsky_related(x, x, p, 1.0 - eps, 1.0 + eps, 0.5, 3.0)
    assert report.passed
    assert report.ratio >= 1.0 - 1.1 * eps
    assert report.lhs / report.params["young_mid"] >= 1.0 - 1.1 * eps


def test_young_is_sharp_where_x_to_the_p_is_y_to_the_q():
    p = 3.0
    report = young_pointwise_check(smooth, lambda tau: smooth(tau) ** (p - 1.0),
                                   p, 0.5, 3.0)
    assert report.passed
    assert report.ratio >= 1.0 - 1e-14


def test_power_mean_is_sharp_where_x_is_y():
    report = power_mean_check(smooth, smooth, 2.5, 0.5, 3.0)
    assert report.passed
    assert report.ratio >= 1.0 - 1e-14

"""Acceptance suite: nine criteria, one test and one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen (pytest captures stdout by default, so without -s the
lines appear only for failing criteria).
"""

import math
import time

import numpy as np
import pytest

from hadafrac.cli import main
from hadafrac.fuzzing import FuzzConfig, run_fuzz
from hadafrac.gammafn import gamma
from hadafrac.inequalities import (
    BoundingQuadruple,
    ConstantBounds,
    TheoremId,
    constant_polya_szego,
    constant_polya_szego_two_order,
    minkowsky_related,
    polya_szego_double,
    polya_szego_single,
    power_mean_check,
    product_bound,
    ratio_bound_constant,
)
from hadafrac.operators import (
    hadamard_derivative,
    hadamard_integral,
    power_rule_derivative,
    power_rule_integral,
)
from hadafrac.randfuncs import ConstantFunction, random_smooth_function
from oracles import exact_integral

E = math.e
BETAS = (1.0, 1.5, 2.0, 3.0)
TS = (1.5, E, 10.0)


def verdict(passed, number, text):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {text}")


def log_power(beta):
    if beta == 1.0:
        return lambda tau: np.ones_like(np.asarray(tau, dtype=float))
    return lambda tau: np.log(tau) ** (beta - 1.0)


def test_criterion_1_power_rule_integrals():
    start = time.perf_counter()
    worst = 0.0
    for beta in BETAS:
        f = log_power(beta)
        for alpha in (0.25, 0.5, 0.75, 1.0, 1.5):
            for t in TS:
                exact = power_rule_integral(beta, alpha, t)
                got = hadamard_integral(
                    f,
                    alpha,
                    t,
                    nodes=64,
                    estimate_error=False,
                    endpoint_exponent=beta - 1.0,
                ).value
                worst = max(worst, abs(got - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    verdict(
        ok,
        1,
        f"power-rule grid, 60 cases, worst rel err {worst:.3g} "
        f"(tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_power_rule_derivatives():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for beta in BETAS:
        f = log_power(beta)
        for alpha in (0.25, 0.5, 0.75):
            if beta - alpha <= 0.0:
                continue
            for t in TS:
                exact = power_rule_derivative(beta, alpha, t)
                got = hadamard_derivative(f, alpha, t, nodes=64).value
                worst = max(worst, abs(got - exact) / abs(exact))
                cases += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 2.0
    verdict(
        ok,
        2,
        f"derivative grid, {cases} cases, worst rel err {worst:.3g} "
        f"(tol 1e-5), {elapsed:.2f}s (budget 2s)",
    )
    assert worst < 1e-5
    assert elapsed < 2.0


def test_criterion_3_semigroup():
    from hadafrac.operators import semigroup_residual

    functions = {
        "1": lambda tau: np.ones_like(np.asarray(tau, dtype=float)),
        "ln": lambda tau: np.log(tau),
        "ln^2": lambda tau: np.log(tau) ** 2,
        "sqrt": lambda tau: np.sqrt(tau),
    }
    start = time.perf_counter()
    worst = 0.0
    for f in functions.values():
        for alpha, beta in ((0.3, 0.7), (0.5, 0.5), (1.2, 0.8)):
            for t in (2.0, E, 5.0):
                worst = max(worst, semigroup_residual(f, alpha, beta, t, n=64))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    verdict(
        ok,
        3,
        f"semigroup residuals, 36 cases, worst {worst:.3g} (tol 1e-6), "
        f"{elapsed:.2f}s (budget 10s)",
    )
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_4_cross_scheme_agreement():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        f = random_smooth_function(seed, 0.5, 3.0)
        alpha = 0.25 + 0.25 * (seed % 9)
        t = 1.5 + 1.2 * (seed % 7)
        spectral = hadamard_integral(f, alpha, t, nodes=64, estimate_error=False).value
        exact = exact_integral(f, alpha, t)
        worst = max(worst, abs(spectral - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    verdict(
        ok,
        4,
        f"Gauss-Jacobi(64) vs exact, 100 smooth functions, worst rel "
        f"diff {worst:.3g} (tol 1e-6), {elapsed:.2f}s (budget 30s)",
    )
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_5_fuzz_soundness():
    start = time.perf_counter()
    total_failures = 0
    details = []
    for k, theorem in enumerate(TheoremId):
        config = FuzzConfig(
            theorem_id=theorem, trials=10_000, master_seed=20260816 + 100_000 * k
        )
        summary = run_fuzz(config)
        total_failures += summary.failures
        details.append(
            f"{theorem.value}:{summary.failures} fail/{summary.kinked} kinked"
        )
    elapsed = time.perf_counter() - start
    ok = total_failures == 0 and elapsed < 600.0
    verdict(
        ok,
        5,
        f"90,000 fuzz trials ({'; '.join(details)}), {elapsed:.1f}s (budget 600s)",
    )
    assert total_failures == 0
    assert elapsed < 600.0


def test_criterion_6_equality_saturation():
    one = ConstantFunction(1.0)
    c = ConstantFunction(1.7)
    d = ConstantFunction(0.6)
    env = BoundingQuadruple(c, c, d, d)
    cb = ConstantBounds(1.7, 1.7, 0.6, 0.6)
    worst = 0.0
    for alpha, beta, t in ((0.5, 1.2, E), (1.0, 0.3, 2.0), (2.0, 0.7, 7.0)):
        ratios = [
            polya_szego_single(c, d, env, alpha, t).ratio,
            polya_szego_double(c, d, env, alpha, beta, t).ratio,
            product_bound(c, d, env, alpha, beta, t).ratio,
            constant_polya_szego(c, d, cb, alpha, t).ratio,
            constant_polya_szego_two_order(c, d, cb, alpha, beta, t).ratio,
            ratio_bound_constant(c, d, cb, alpha, beta, t).ratio,
            power_mean_check(one, one, 2.5, alpha, t).ratio,
        ]
        worst = max(worst, max(abs(r - 1.0) for r in ratios))
    ok = worst < 1e-10
    verdict(
        ok,
        6,
        f"equality saturation for T31,T32,T33,P31,P32,P33,POWMEAN(x=y): "
        f"worst |ratio-1| = {worst:.3g} (tol 1e-10)",
    )
    assert worst < 1e-10


def test_criterion_7_hand_arithmetic_spot_checks():
    one = ConstantFunction(1.0)
    t34 = minkowsky_related(one, one, 2.0, 0.5, 2.0, 1.0, E)
    p31 = constant_polya_szego(
        ConstantFunction(1.5),
        ConstantFunction(2.0),
        ConstantBounds(1.0, 2.0, 1.0, 3.0),
        0.5,
        E,
    )
    expected_p31 = 0.25 * (math.sqrt(1.0 / 6.0) + math.sqrt(6.0)) ** 2
    checks = (
        abs(t34.lhs - 1.0),
        abs(t34.bound - 16.0 / 9.0),
        abs(p31.lhs - 1.0),
        abs(p31.bound - expected_p31),
    )
    worst = max(checks)
    ok = worst < 1e-12
    verdict(
        ok,
        7,
        f"hand arithmetic: T34 lhs/bound off by {checks[0]:.2g}/{checks[1]:.2g}, "
        f"P31 by {checks[2]:.2g}/{checks[3]:.2g} (tol 1e-12)",
    )
    assert worst < 1e-12


def test_criterion_8_prefactor_identity():
    rng = np.random.Generator(np.random.Philox(key=8))
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.1, 3.0))
        beta = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(1.1, 20.0))
        explicit = math.log(t) ** (alpha + beta) / (
            gamma(alpha + 1.0) * gamma(beta + 1.0)
        )
        via_rule = power_rule_integral(1.0, alpha, t) * power_rule_integral(
            1.0, beta, t
        )
        worst = max(worst, abs(via_rule - explicit) / abs(explicit))
    ok = worst < 1e-12
    verdict(
        ok,
        8,
        f"two-order prefactor identity, 100 random (alpha, beta, t), worst rel "
        f"diff {worst:.3g} (tol 1e-12)",
    )
    assert worst < 1e-12


def test_criterion_9_csv_determinism(tmp_path, capsys):
    paths = (tmp_path / "first.csv", tmp_path / "second.csv")
    for path in paths:
        code = main(
            [
                "--seed", "31337", "--out", str(path),
                "fuzz", "--theorem", "T31", "--trials", "200",
            ]
        )
        assert code == 0
    capsys.readouterr()
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    verdict(
        identical,
        9,
        "two fuzz runs with identical flags produce byte-identical CSV "
        f"({paths[0].stat().st_size} bytes)",
    )
    assert identical

"""Every public entry point, given any numbers, returns finite values or
raises a HadafracError; every CLI command exits 0 to 3.

Each argument is drawn from a valid range or from a list of hostile values:
infinities, NaN, huge and tiny numbers, zero, negatives, strings (numeric
ones included), None, bools and floats where an integer is expected.
Callables, and the points a function other than an expression is evaluated
at, are out of scope.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hadafrac.cli import main
from hadafrac.errors import DomainError, HadafracError, check_int, check_real
from hadafrac.expressions import Binary, Const, Unary, Var, eval_expr, parse_expr
from hadafrac.fuzzing import FuzzConfig, run_trial, trial_seed
from hadafrac.gammafn import gamma
from hadafrac.inequalities import (
    BoundingQuadruple,
    ConstantBounds,
    InequalityReport,
    TheoremId,
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
from hadafrac.jacobi import MAX_RULE_NODES, build_jacobi_rule, check_rule_order, jacobi_rule_01
from hadafrac.operators import (
    Measure,
    OperatorResult,
    _MAX_MESH_CELLS,
    hadamard_derivative,
    hadamard_integral,
    hadamard_integral_graded,
    power_rule_derivative,
    power_rule_integral,
    semigroup_residual,
)
from hadafrac.randfuncs import (
    MAX_DEGREE,
    ConstantFunction,
    PiecewiseLogPoly,
    random_bounded_function,
    random_smooth_function,
)

HOSTILE = st.sampled_from([
    math.inf, -math.inf, math.nan, 1e308, -1e308, 10**400, 10**9, 5e-324, 1e-300,
    0, 0.0, -1, -0.5, 2.5, "a", "0.5", "", None, True, False, b"1",
])

ORDERS = st.one_of(st.sampled_from([0.05, 0.5, 1.0, 2.5]), st.floats(0.05, 5.0))
POINTS = st.floats(1.0, 20.0)
SIZES = st.sampled_from([8, 16])
REAL = st.floats(-10.0, 10.0)
LOW = st.floats(0.1, 0.9)
HIGH = st.floats(1.1, 5.0)
EXPONENTS = st.floats(1.01, 8.0)
SEEDS = st.integers(0, 2**70)
THEOREMS = st.sampled_from([t.value for t in TheoremId])

ONE = ConstantFunction(1.0)
ENVELOPES = BoundingQuadruple(*map(ConstantFunction, (0.5, 2.0, 0.5, 2.0)))
BANDS = ConstantBounds(0.5, 2.0, 0.5, 2.0)
# Points where a drawn random function is evaluated: its design span.
GRID = np.exp(np.linspace(0.0, 3.0, 33))

CHECK_OPTIONS = dict(nodes=SIZES)

# name -> (call, {argument: valid values}); each call takes the drawn
# arguments by name.
CASES = {
    "check_real": (lambda value: check_real("value", value), dict(value=REAL)),
    "check_int": (lambda value: check_int("value", value, 0, 10),
                  dict(value=st.integers(0, 10))),
    "gamma": (gamma, dict(z=st.floats(0.01, 170.0))),
    "jacobi_rule_01": (jacobi_rule_01, dict(
        n=st.integers(1, 16), zero_exponent=st.floats(-0.9, 3.0),
        one_exponent=st.floats(-0.9, 3.0))),
    "build_jacobi_rule": (build_jacobi_rule, dict(alpha=ORDERS, n=SIZES)),
    "check_rule_order": (check_rule_order, dict(alpha=ORDERS, n=SIZES)),
    "Measure": (Measure, dict(alpha=ORDERS, t=POINTS, n=SIZES,
                              endpoint_exponent=st.floats(-0.9, 3.0))),
    "hadamard_integral": (
        lambda **kw: hadamard_integral(np.sqrt, **kw),
        dict(alpha=ORDERS, t=POINTS, nodes=SIZES, endpoint_exponent=st.floats(-0.9, 3.0))),
    "hadamard_integral_graded": (
        lambda **kw: hadamard_integral_graded(np.sqrt, **kw),
        dict(alpha=st.floats(0.01, 5.0), t=POINTS, n=st.sampled_from([8, 64, 1024]))),
    "hadamard_derivative": (
        lambda **kw: hadamard_derivative(np.log, **kw),
        dict(alpha=st.floats(0.01, 0.95), t=POINTS, nodes=SIZES)),
    "semigroup_residual": (
        lambda **kw: semigroup_residual(np.sqrt, **kw),
        dict(alpha=ORDERS, beta=ORDERS, t=POINTS, n=st.sampled_from([16, 32]))),
    "power_rule_integral": (power_rule_integral,
                            dict(beta=st.floats(0.5, 5.0), alpha=ORDERS, t=POINTS)),
    "power_rule_derivative": (power_rule_derivative,
                              dict(beta=st.floats(1.0, 5.0), alpha=st.floats(0.01, 0.99),
                                   t=POINTS)),
    "ConstantFunction": (ConstantFunction, dict(value=REAL)),
    "PiecewiseLogPoly": (PiecewiseLogPoly, dict(
        breakpoints=st.just((0.0, 1.5)), coefficients=st.just(((1.0, 0.5), (2.5, -0.5))),
        clip_lo=LOW, clip_hi=HIGH)),
    "eval_expr": (lambda value, tau: eval_expr(Binary("mul", Const(value), Var()), tau),
                  dict(value=REAL, tau=POINTS)),
    "random_bounded_function": (random_bounded_function, dict(
        seed=SEEDS, lo=LOW, hi=HIGH, pieces=st.integers(1, 16), degree=st.integers(0, 4))),
    "random_smooth_function": (random_smooth_function, dict(
        seed=SEEDS, lo=LOW, hi=HIGH, degree=st.integers(1, 4))),
    "ConstantBounds": (ConstantBounds, dict(m=LOW, M=HIGH, n_lo=LOW, N_hi=HIGH)),
    "T31": (lambda alpha, t, **kw: polya_szego_single(ONE, ONE, ENVELOPES, alpha, t, **kw),
            dict(alpha=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    "T32": (lambda alpha, beta, t, **kw: polya_szego_double(
                ONE, ONE, ENVELOPES, alpha, beta, t, **kw),
            dict(alpha=ORDERS, beta=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    "T33": (lambda alpha, beta, t, **kw: product_bound(ONE, ONE, ENVELOPES, alpha, beta, t, **kw),
            dict(alpha=ORDERS, beta=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    "P31": (lambda alpha, t, **kw: constant_polya_szego(ONE, ONE, BANDS, alpha, t, **kw),
            dict(alpha=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    "P32": (lambda alpha, beta, t, **kw: constant_polya_szego_two_order(
                ONE, ONE, BANDS, alpha, beta, t, **kw),
            dict(alpha=ORDERS, beta=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    "P33": (lambda alpha, beta, t, **kw: ratio_bound_constant(
                ONE, ONE, BANDS, alpha, beta, t, **kw),
            dict(alpha=ORDERS, beta=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    "T34": (lambda p, m, M, alpha, t, **kw: minkowsky_related(ONE, ONE, p, m, M, alpha, t, **kw),
            dict(p=EXPONENTS, m=LOW, M=HIGH, alpha=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    "YOUNG": (lambda p, alpha, t, **kw: young_pointwise_check(ONE, ONE, p, alpha, t, **kw),
              dict(p=EXPONENTS, alpha=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    "POWMEAN": (lambda r, alpha, t, **kw: power_mean_check(ONE, ONE, r, alpha, t, **kw),
                dict(r=EXPONENTS, alpha=ORDERS, t=POINTS, **CHECK_OPTIONS)),
    # Constructed only: a huge `trials` is never run.
    "FuzzConfig": (FuzzConfig, dict(
        theorem_id=THEOREMS, trials=st.integers(1, 10), master_seed=SEEDS, **CHECK_OPTIONS)),
    "run_trial": (run_trial, dict(theorem_id=THEOREMS, seed=SEEDS, **CHECK_OPTIONS)),
    "trial_seed": (trial_seed, dict(master_seed=SEEDS, index=st.integers(0, 10**6))),
}


def _numbers(result):
    """The numbers a result carries; a drawn function gives its values on GRID."""
    if isinstance(result, (tuple, list)):
        return [v for item in result for v in _numbers(item)]
    if isinstance(result, (ConstantFunction, PiecewiseLogPoly)):
        return list(np.broadcast_to(result(GRID), GRID.shape))
    if isinstance(result, InequalityReport):
        return [result.lhs, result.bound, result.margin]
    if isinstance(result, OperatorResult):
        return [result.value, result.estimated_error]
    if isinstance(result, Measure):
        return [result.prefactor, *result.tau, *result.weights]
    if isinstance(result, ConstantBounds):
        return [result.m, result.M, result.n_lo, result.N_hi]
    if isinstance(result, np.ndarray):
        return list(result.ravel())
    if isinstance(result, (bool, FuzzConfig)):
        return []
    return [result]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_entry_point_returns_finite_values_or_raises(name, data):
    call, valid = CASES[name]
    kwargs = {arg: data.draw(st.one_of(values, HOSTILE), label=arg)
              for arg, values in valid.items()}
    try:
        result = call(**kwargs)
    except HadafracError:
        return
    values = _numbers(result)
    assert all(math.isfinite(v) for v in values), (name, kwargs, values)


CLI_HOSTILE = ["inf", "-inf", "nan", "1e308", "1e-300", "0", "-1", "a", "", "2.5", "1e400"]


def _cli_arg(*valid):
    return st.sampled_from([*valid, *CLI_HOSTILE])


CLI_OPTIONS = st.tuples(
    st.sampled_from([[], ["--nodes"], ["--seed"]]),
    _cli_arg("16", "32", "7", "10000000000"),
).map(lambda option: option[0] + [option[1]] if option[0] else [])

# Literals that overflow a double must be input errors, not tracebacks.
CLI_EXPRESSIONS = st.sampled_from(["1e999*0", "x + 1e400"])

CLI_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["integrate", "derive"]), st.just("ln(x)") | CLI_EXPRESSIONS,
              _cli_arg("0.5", "1.5"), _cli_arg("2", "10")),
    st.tuples(st.just("powercheck"), st.just("--max-beta"), _cli_arg("1", "3"),
              st.just("--max-alpha"), _cli_arg("0.25", "1")),
    st.tuples(st.just("semigroup"), st.just("sqrt(x)") | CLI_EXPRESSIONS, _cli_arg("0.5"),
              _cli_arg("0.75"), _cli_arg("2", "10")),
    # --trials never takes a huge value here, so every run is short.
    st.tuples(st.just("fuzz"), st.just("--theorem"), THEOREMS, st.just("--trials"),
              st.sampled_from(["1", "2", "0", "-1", "a", "", "2.5", "inf"])),
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=120, deadline=10000, suppress_health_check=[HealthCheck.too_slow])
@given(options=CLI_OPTIONS, command=CLI_COMMANDS)
def test_every_command_exits_zero_to_three(options, command):
    argv = [*options, *command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the value
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (0, 1) and command[0] != "fuzz":
        assert not any(word in out.getvalue() for word in ("nan", "inf")), argv


@pytest.mark.parametrize("call", [
    lambda: random_bounded_function(0, 0.5, math.inf, 2, 1),
    lambda: random_smooth_function(0, 0.5, math.inf),
    lambda: random_bounded_function(0, "a", 2.0, 2, 1),
    lambda: young_pointwise_check(ONE, ONE, "a", 0.5, 2.0),
    lambda: gamma("a"),
    lambda: power_mean_check(ONE, ONE, "a", 0.5, 2.0),
    lambda: minkowsky_related(ONE, ONE, 2.0, "a", 2.0, 0.5, 2.0),
    lambda: ConstantBounds("a", 1, 1, 2),
    lambda: minkowsky_related(ONE, ONE, "2", 0.5, 2.0, 0.5, 2.0),
    lambda: jacobi_rule_01(4.0, 0.0),
    lambda: build_jacobi_rule(0.5, 4.0),
    lambda: build_jacobi_rule("a", 4),
    lambda: young_pointwise_check(ONE, ONE, math.inf, 0.5, 2.0),
    lambda: run_trial("T99", 0),
    lambda: FuzzConfig(theorem_id="T99"),
    lambda: hadamard_integral(np.sqrt, "0.5", 2.0),
    lambda: hadamard_integral_graded(np.sqrt, 0.5, 2.0, n=_MAX_MESH_CELLS + 1),
    lambda: gamma(5e-324),
    lambda: PiecewiseLogPoly((0.0,), ((math.nan,),), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0, 0.0), ((1.0,), (1.0,)), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0, math.inf), ((1.0,), (1.0,)), 1.0, 2.0),
    lambda: PiecewiseLogPoly((1.0,), ((1.0,),), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0,), ((1.0,), (1.0,)), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0, 1.0), ((1.0, 0.5), (1.0,)), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0,), ((1.0,) * (MAX_DEGREE + 2),), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0,), ((1.0,),), 2.0, 1.0),
    lambda: Unary("tan", Var()),
    lambda: Unary("add", Var()),
    lambda: Binary("max", Var(), Var()),
    lambda: Binary("sin", Var(), Var()),
    lambda: Unary("sin", 1.0),
    lambda: Const(math.inf),
    lambda: Const(math.nan),
    lambda: eval_expr(parse_expr("sin(x)"), math.inf),
    lambda: eval_expr(parse_expr("x"), math.nan),
    lambda: eval_expr(parse_expr("exp(x)"), np.array([2.0, -math.inf])),
    lambda: eval_expr(parse_expr("x"), "a"),
    lambda: PiecewiseLogPoly(("0",), (("1.5",),), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0,), (("1.5",),), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0, "1"), ((1.5,), (1.5,)), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0,), ((True,),), 1.0, 2.0),
    lambda: PiecewiseLogPoly((0.0,), ((1.5, True),), 1.0, 3.0),
    lambda: PiecewiseLogPoly((0.0, True), ((1.5,), (1.5,)), 1.0, 3.0),
    lambda: PiecewiseLogPoly((0.0, 1.0), ((1.5,), (np.True_,)), 1.0, 3.0),
    lambda: Unary(["sin"], Var()),
    lambda: Binary(["add"], Var(), Var()),
])
def test_listed_arguments_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


# Both also build a rule of twice the caller's size; the message names the
# size the caller gave and the range it must lie in.
@pytest.mark.parametrize("call, n, bounds", [
    (lambda n: hadamard_integral(np.sqrt, 0.5, 2.0, nodes=n), 2049, "[2, 2048]"),
    (lambda n: hadamard_integral(np.sqrt, 0.5, 2.0, nodes=n), MAX_RULE_NODES, "[2, 2048]"),
    (lambda n: semigroup_residual(np.sqrt, 0.5, 0.5, 2.0, n=n), 2049, "[16, 2048]"),
    (lambda n: semigroup_residual(np.sqrt, 0.5, 0.5, 2.0, n=n), 8, "[16, 2048]"),
])
def test_doubled_rule_is_refused_at_the_callers_node_count(call, n, bounds):
    with pytest.raises(DomainError) as info:
        call(n)
    assert str(info.value) == f"nodes must be an integer in {bounds}, got {n}"


@pytest.mark.parametrize("command", [["integrate", "1", "0.5", "2"],
                                     ["semigroup", "1", "0.5", "0.5", "2"]])
def test_cli_names_the_node_count_it_was_given(command):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["--nodes", "3000", *command]) == 2
    assert err.getvalue().endswith("got 3000\n")


def test_caches_check_integer_sizes_on_every_call():
    # 4 and 4.0 are one key of an untyped cache.
    build_jacobi_rule(0.5, 4)
    jacobi_rule_01(4, 0.0)
    with pytest.raises(DomainError):
        build_jacobi_rule(0.5, 4.0)
    with pytest.raises(DomainError):
        jacobi_rule_01(4.0, 0.0)

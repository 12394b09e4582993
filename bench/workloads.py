"""Workloads of the hadafrac benchmark: inputs from a seed, warm-up and gates.

A workload turns a seed into an endless stream of cycles.  A cycle is a list
of operations with a fixed composition (only expressions, orders, points and
seeds vary with the seed), so every run measures the same mix whether it
completes few cycles or many.  An operation is a call into the public
hadafrac API plus a gate that judges its result outside the timed region.

The module imports nothing from hadafrac at import time: `load_hadafrac`
imports a fresh copy of the package from source, so set-up can be timed
more than once in one process.
"""

import contextlib
import hashlib
import importlib
import io
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

MODULES = (
    "errors",
    "gammafn",
    "jacobi",
    "operators",
    "expressions",
    "randfuncs",
    "inequalities",
    "fuzzing",
    "cli",
)

NODES = 64
# cli_cold runs every command at each of these node counts.  Node count sets
# an op's cost (integrate and semigroup build rules of n and 2n nodes), and
# it is kept small so that a pass takes well under a second: an op's fastest
# execution escapes the host's load only when the op runs many times spread
# over the run.  With --nodes up to 64 (ops up to 90 ms, some seventeen
# passes a run) ten-run spreads reached 0.16 of the median under load, and
# with --nodes up to 256 (ops up to 1.8 s) 0.36.
CLI_NODES = (16, 24, 32)
CLI_FUZZ_TRIALS = 1
# cli_cold draws orders as a seeded permutation of these tuples, one per
# node count and block of CLI_BLOCK cycles, so every seed builds rules of
# the same orders and sizes and measures the same cost mix.
CLI_BLOCK = 4
CLI_INTEGRAL_ORDERS = (0.25, 0.75, 1.5, 2.5)
CLI_DERIVATIVE_ORDERS = (0.25, 0.5, 0.75, 0.9)
CLI_SEMIGROUP_ORDERS = ((0.25, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 0.25))
# Checks of the small fuzz runs, one per cycle of a block: rule builds, and
# so cost, depend on the check (how many orders a trial draws), not on the
# seed.  Two cheap checks and two dear ones.
CLI_FUZZ_THEOREMS = ("T31", "P32", "YOUNG", "T33")
# powercheck at the default node count on a corner of its case grid (order
# 0.25, log-powers 1 and 1.5): two rules instead of twenty, 35 ms instead of
# 370 ms.
CLI_POWERCHECK = ["powercheck", "--max-alpha", "0.25", "--max-beta", "1.5"]

T_RANGE = (1.25, 15.0)
INTEGRAL_ORDERS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.5)
DERIVATIVE_ORDERS = (0.25, 0.5, 0.75)
SEMIGROUP_ORDERS = (0.25, 0.5, 1.0, 1.5)

# README accuracy claims for closed forms (relative): power-rule integrals to
# 1e-10, derivatives to 1e-5.
INTEGRAL_REL_TOL = 1e-10
DERIVATIVE_REL_TOL = 1e-5
# Integrals without a closed form must report an error estimate below this
# share of max(1, |value|).
INTEGRAL_ESTIMATE_TOL = 1e-6
# Half a unit in the 15th decimal, the precision of a value printed by the CLI.
CLI_PRINT_QUANTUM = 0.5e-15

# Integrands as (source, closed form).  A closed form is a tuple of terms
# (c, beta) meaning f = sum of c * ln(x)^(beta - 1), so power_rule_integral
# and power_rule_derivative give the exact answer; None means no closed form.
EXPRESSIONS = (
    ("ln(x)", ((1.0, 2.0),)),
    ("ln(x)^2", ((1.0, 3.0),)),
    ("ln(x)^3", ((1.0, 4.0),)),
    ("2.5", ((2.5, 1.0),)),
    ("1 + 0.5*ln(x)", ((1.0, 1.0), (0.5, 2.0))),
    ("3 - 0.25*ln(x)", ((3.0, 1.0), (-0.25, 2.0))),
    ("sqrt(x)", None),
    ("exp(-x)", None),
    ("1/(1 + x)", None),
    ("sin(x) + 2", None),
    ("x*ln(x)", None),
    ("exp(-ln(x)^2)", None),
)

# Golden fuzz CSV: run_fuzz on all nine checks, GOLDEN_TRIALS trials each from
# GOLDEN_MASTER_SEED with default FuzzConfig, rows written to one buffer in
# TheoremId order.  Recorded at the commit that introduced the benchmark; a
# refactor of the fuzzer must keep the bytes identical.
GOLDEN_MASTER_SEED = 1602
GOLDEN_TRIALS = 20
GOLDEN_CSV_SHA256 = "d9cd2e9677894e1be813d94e2e4125cf5749ce3f69ca682804866c4972c76944"


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    `call` is timed; `gate` judges its result afterwards and returns True
    when the output is correct.  `prepare`, if set, runs untimed before the
    call.
    """

    kind: str
    call: Callable[[], object]
    gate: Callable[[object], bool]
    prepare: Callable[[], None] | None = None


def load_hadafrac(src):
    """Import a fresh copy of hadafrac from `src`; returns its modules by name.

    Any copy already imported is dropped first, so the import and every
    module-level cache start cold.  Raises ImportError if the package that
    loads is not the one under `src`.
    """
    src = Path(src).resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "hadafrac" or n.startswith("hadafrac.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("hadafrac")
    if Path(package.__file__).resolve().parent != src / "hadafrac":
        raise ImportError(f"hadafrac loaded from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module("hadafrac." + name) for name in MODULES}
    # The caches themselves, kept apart from the module attributes a traced
    # run replaces.
    rule_caches = (modules["jacobi"].build_jacobi_rule, modules["jacobi"].jacobi_rule_01)
    return SimpleNamespace(package=package, rule_caches=rule_caches, **modules)


def golden_csv_digest(hf):
    """SHA-256 of the golden fuzz CSV, computed in memory."""
    out = io.StringIO()
    for theorem in hf.inequalities.TheoremId:
        config = hf.fuzzing.FuzzConfig(
            theorem_id=theorem, trials=GOLDEN_TRIALS, master_seed=GOLDEN_MASTER_SEED
        )
        hf.fuzzing.run_fuzz(config, csv_file=out)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _draw_t(rng):
    return rng.uniform(*T_RANGE)


def _closed_integral(hf, terms, alpha, t):
    return sum(c * hf.operators.power_rule_integral(b, alpha, t) for c, b in terms)


def _closed_derivative(hf, terms, alpha, t):
    return sum(c * hf.operators.power_rule_derivative(b, alpha, t) for c, b in terms)


def _matches(got, exact, rel_tol, quantum=0.0):
    return math.isfinite(got) and abs(got - exact) <= rel_tol * abs(exact) + quantum


def _estimate_ok(result, tol):
    value, err = result.value, result.estimated_error
    return math.isfinite(value) and err <= tol * max(1.0, abs(value))


# ---------------------------------------------------------------- fuzz_mix


def _fuzz_orders(hf):
    """Every order the fuzzer's default grid can draw, keyed exactly as it draws.

    The fuzzer uses ORDER_GRID_STEP * k for integer k; any other spelling of
    the same order (round(0.05 * k, 10), say) is a different float and so a
    different cache key.
    """
    fz = hf.fuzzing
    fields = fz.FuzzConfig.__dataclass_fields__
    ks = set()
    for bounds in (fields["alpha_range"].default, fields["beta_range"].default):
        lo, hi = bounds
        k_lo = math.ceil(round(lo / fz.ORDER_GRID_STEP, 9))
        k_hi = math.floor(round(hi / fz.ORDER_GRID_STEP, 9))
        ks.update(range(k_lo, k_hi + 1))
    return [fz.ORDER_GRID_STEP * k for k in sorted(ks)]


def fuzz_mix_warm(hf):
    for alpha in _fuzz_orders(hf):
        hf.jacobi.build_jacobi_rule(alpha, NODES)


def _trial_gate(result):
    report, _row = result
    return bool(report.passed) and math.isfinite(report.lhs) and math.isfinite(report.bound)


def _trial_op(hf, theorem, seed):
    def call():
        report, _kinked = hf.fuzzing.run_trial(theorem, seed, nodes=NODES)
        return report, hf.fuzzing.format_csv_row(report)

    return Op(theorem.value, call, _trial_gate)


def fuzz_mix_cycles(hf, seed):
    """Nine checks round-robin; trial i uses seed + i, as run_fuzz would."""
    theorems = list(hf.inequalities.TheoremId)
    index = 0
    while True:
        cycle = []
        for theorem in theorems:
            cycle.append(_trial_op(hf, theorem, seed + index))
            index += 1
        yield cycle


# ---------------------------------------------------------------- cli_cold


def _clear_rule_caches(hf):
    for cache in hf.rule_caches:
        cache.cache_clear()


def _cli_call(hf, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hf.cli.main(argv)
        return code, out.getvalue()

    return call


def _cli_value(text):
    return float(text.splitlines()[0])


def _cli_op(hf, kind, argv, check=None):
    """CLI op: exit code 0, and `check(stdout)` when given."""

    def gate(result):
        code, text = result
        return code == 0 and (check is None or check(text))

    return Op(kind, _cli_call(hf, argv), gate, prepare=lambda: _clear_rule_caches(hf))


def _cli_operator(hf, rng, nodes, command, alpha, closed, rel_tol):
    """`integrate` or `derive`; closed forms are also checked against `closed`."""
    source, terms = rng.choice(EXPRESSIONS)
    t = _draw_t(rng)
    argv = ["--nodes", str(nodes), command, source, repr(alpha), repr(t)]
    check = None
    if terms is not None:
        def check(text):
            exact = closed(hf, terms, alpha, t)
            return _matches(_cli_value(text), exact, rel_tol, CLI_PRINT_QUANTUM)
    return _cli_op(hf, f"{command}@{nodes}", argv, check)


def _cli_semigroup(hf, rng, nodes, orders):
    source, _terms = rng.choice(EXPRESSIONS)
    alpha, beta = orders
    argv = ["--nodes", str(nodes), "semigroup", source, repr(alpha), repr(beta),
            repr(_draw_t(rng))]
    return _cli_op(hf, f"semigroup@{nodes}", argv)


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def cli_cold_cycles(hf, seed):
    """Eleven commands a cycle, shuffled: integrate, derive and semigroup at
    each node count, one powercheck and one small fuzz run.

    Cycles come in blocks of CLI_BLOCK.  Within a block each (command, node
    count) takes every order of its CLI_*_ORDERS tuple once, in a seeded
    order, and each cycle fuzzes one of CLI_FUZZ_THEOREMS; expressions, t
    and fuzz seeds are drawn freely.
    """
    rng = random.Random(seed)
    while True:
        plan = {
            nodes: (_shuffled(rng, CLI_INTEGRAL_ORDERS), _shuffled(rng, CLI_DERIVATIVE_ORDERS),
                    _shuffled(rng, CLI_SEMIGROUP_ORDERS))
            for nodes in CLI_NODES
        }
        for c, theorem in enumerate(CLI_FUZZ_THEOREMS):
            cycle = []
            for nodes, (integral, derivative, semigroup) in plan.items():
                cycle.append(_cli_operator(hf, rng, nodes, "integrate", integral[c],
                                           _closed_integral, INTEGRAL_REL_TOL))
                cycle.append(_cli_operator(hf, rng, nodes, "derive", derivative[c],
                                           _closed_derivative, DERIVATIVE_REL_TOL))
                cycle.append(_cli_semigroup(hf, rng, nodes, semigroup[c]))
            cycle.append(_cli_op(hf, "powercheck", CLI_POWERCHECK))
            fuzz_argv = ["--seed", str(rng.randrange(2**31)), "fuzz", "--theorem", theorem,
                         "--trials", str(CLI_FUZZ_TRIALS)]
            cycle.append(_cli_op(hf, "fuzz", fuzz_argv))
            rng.shuffle(cycle)
            yield cycle


def cli_cold_warm(hf):
    """Nothing to warm: every op starts from empty rule caches."""


# ---------------------------------------------------------------- expr_warm


def _parsed(hf, source):
    return hf.expressions.as_function(hf.expressions.parse_expr(source))


def _integral_op(hf, source, terms, alpha, t):
    def call():
        return hf.operators.hadamard_integral(
            _parsed(hf, source), alpha, t, nodes=NODES, estimate_error=True
        )

    def gate(result):
        if terms is None:
            return _estimate_ok(result, INTEGRAL_ESTIMATE_TOL)
        return _matches(result.value, _closed_integral(hf, terms, alpha, t), INTEGRAL_REL_TOL)

    return Op("integral", call, gate)


def _derivative_op(hf, source, terms, alpha, t):
    def call():
        return hf.operators.hadamard_derivative(_parsed(hf, source), alpha, t, nodes=NODES)

    def gate(result):
        if terms is None:
            # The estimate is a finite-difference slope spread, of order
            # 1e-5 * t even for smooth f, so it is held to the product's own
            # derivative convergence gate.
            return _estimate_ok(result, hf.cli.DERIVE_CONVERGENCE_TOL)
        return _matches(
            result.value, _closed_derivative(hf, terms, alpha, t), DERIVATIVE_REL_TOL
        )

    return Op("derivative", call, gate)


def _semigroup_op(hf, source, alpha, beta, t):
    def call():
        return hf.operators.semigroup_residual(_parsed(hf, source), alpha, beta, t, n=NODES)

    def gate(residual):
        return math.isfinite(residual) and residual < hf.cli.SEMIGROUP_TOL

    return Op("semigroup", call, gate)


def expr_warm_cycles(hf, seed):
    """Each expression once per call kind a cycle (36 ops), shuffled."""
    rng = random.Random(seed)
    while True:
        cycle = []
        for source, terms in EXPRESSIONS:
            cycle.append(_integral_op(hf, source, terms, rng.choice(INTEGRAL_ORDERS), _draw_t(rng)))
            cycle.append(
                _derivative_op(hf, source, terms, rng.choice(DERIVATIVE_ORDERS), _draw_t(rng))
            )
            cycle.append(
                _semigroup_op(hf, source, rng.choice(SEMIGROUP_ORDERS),
                              rng.choice(SEMIGROUP_ORDERS), _draw_t(rng))
            )
        rng.shuffle(cycle)
        yield cycle


def expr_warm_warm(hf):
    """Build every rule the fixed orders need by running each call once."""
    one = _parsed(hf, "1")
    for alpha in INTEGRAL_ORDERS:
        hf.operators.hadamard_integral(one, alpha, 2.0, nodes=NODES, estimate_error=True)
    for alpha in DERIVATIVE_ORDERS:
        hf.operators.hadamard_derivative(one, alpha, 2.0, nodes=NODES)
    for alpha in SEMIGROUP_ORDERS:
        for beta in SEMIGROUP_ORDERS:
            hf.operators.semigroup_residual(one, alpha, beta, 2.0, n=NODES)


@dataclass(frozen=True)
class Workload:
    name: str
    warm: Callable
    cycles: Callable
    # Cycles in one pass.  The op set is fixed by the seed, not by speed, so
    # the percentiles and the traced counts always cover the same ops.
    pass_cycles: int


WORKLOADS = {
    w.name: w
    for w in (
        # The fuzzer's steady state on warm rules: randfuncs, inequalities and
        # operators do the work, jacobi only serves hits.
        Workload("fuzz_mix", fuzz_mix_warm, fuzz_mix_cycles, pass_cycles=22),
        # A fresh process per command: Gauss-Jacobi rule construction dominates.
        Workload("cli_cold", cli_cold_warm, cli_cold_cycles, pass_cycles=CLI_BLOCK),
        # Library use at known orders on warm rules: expressions and operators
        # dominate, jacobi serves hits, randfuncs and inequalities are idle.
        Workload("expr_warm", expr_warm_warm, expr_warm_cycles, pass_cycles=30),
    )
}

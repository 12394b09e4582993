"""Self-tests of the benchmark harness.

Run from the repository root with:

    python3 -m pytest bench/test_bench.py -q
"""

import types

import pytest

import run
import tracing
import workloads

COUNT_UNITS = ("count", "bytes")
# Small fixed prefixes keep the tests to a few seconds per workload.
TEST_CYCLES = {"fuzz_mix": 4, "cli_cold": 1, "expr_warm": 3}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def warmed(request):
    workload = workloads.WORKLOADS[request.param]
    hf = workloads.load_hadafrac(run.SRC)
    workload.warm(hf)
    return workload, hf


def _bindings(hf):
    """Every attribute of every loaded module and traced class, by identity."""
    owners = [v for v in vars(hf).values() if isinstance(v, types.ModuleType)]
    owners += [hf.randfuncs.PiecewiseLogPoly, hf.randfuncs.ConstantFunction]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def _traced(workload, hf, seed=7):
    return run.traced_run(hf, workload, seed, TEST_CYCLES[workload.name])


def test_traced_run_restores_every_wrapped_attribute(warmed):
    workload, hf = warmed
    before = _bindings(hf)
    _metrics, spans, _n, failed = _traced(workload, hf)
    after = _bindings(hf)
    assert failed == 0
    assert any(span[0] != tracing.OP for span in spans)
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_self_times_are_nonnegative_and_fit_inside_each_op(warmed):
    workload, hf = warmed
    _metrics, spans, n_ops, _failed = _traced(workload, hf)
    own = tracing.self_times(spans)
    assert min(own) >= 0
    root = [None] * len(spans)
    inside = {}
    for i, (name, _start, _end, parent, _detail) in enumerate(spans):
        root[i] = i if name == tracing.OP else root[parent]
        if name != tracing.OP:
            inside[root[i]] = inside.get(root[i], 0) + own[i]
    ops = [i for i, span in enumerate(spans) if span[0] == tracing.OP]
    assert len(ops) == n_ops
    for i in ops:
        assert inside.get(i, 0) <= spans[i][2] - spans[i][1]


def test_count_metrics_repeat_for_a_fixed_seed(warmed):
    workload, hf = warmed
    first, _, _, _ = _traced(workload, hf)
    second, _, _, _ = _traced(workload, hf)
    counts = {name for name, (_value, unit) in first.items() if unit in COUNT_UNITS}
    assert {"jacobi.builds", "inequalities.fn_evals_per_check", "trace.spans"} <= counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_warm_workloads_build_no_rules_inside_ops(warmed):
    workload, hf = warmed
    metrics, _, _, _ = _traced(workload, hf)
    if workload.name == "cli_cold":
        assert metrics["jacobi.builds"][0] > 0
    else:
        assert metrics["jacobi.builds"][0] == 0
        assert metrics["jacobi.hits"][0] > 0


def test_nondefault_seed_passes_every_gate(warmed):
    workload, hf = warmed
    cycles = {"fuzz_mix": 30, "cli_cold": 1, "expr_warm": 10}[workload.name]
    ops = run.op_set(hf, workload, 987_654_321, cycles)
    best, failed, passes, _caught = run.timed_passes(hf, ops, seconds=0)
    assert passes == 1 and len(best) == len(ops) and min(best) > 0
    assert failed == 0


def test_golden_csv_digest_matches():
    hf = workloads.load_hadafrac(run.SRC)
    assert workloads.golden_csv_digest(hf) == workloads.GOLDEN_CSV_SHA256


def test_failed_gate_is_counted_not_raised():
    hf = workloads.load_hadafrac(run.SRC)
    bad = workloads.Op("integral", lambda: hf.operators.hadamard_integral(
        lambda tau: tau, 0.001, 2.0), lambda result: True)
    wrong = workloads.Op("integral", lambda: 1.0, lambda result: result == 2.0)
    assert run.run_op(hf, bad)[1] is False
    assert run.run_op(hf, wrong)[1] is False


def test_tail_is_highest_rung_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90.0, 90, 10)
    assert run.tail(list(range(1, 1001)))[0] == 99.0
    assert run.tail(list(range(1, 11)))[0] == 50.0


def test_setup_times_every_repeat():
    hf, times = run.set_up(workloads.WORKLOADS["cli_cold"])
    assert len(times) >= run.SETUP_REPEATS and sum(times) >= run.SETUP_MIN_S
    assert min(times) > 0
    assert hf.package.__file__.startswith(str(run.SRC))

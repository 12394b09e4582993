#!/usr/bin/env python3
"""hadafrac benchmark: closed-loop workloads against the public API.

Untraced (end-to-end metrics, one workload):

    python3 bench/run.py --workload fuzz_mix --seed 1 --seconds 20 --trace 0

Traced (per-layer metrics):

    python3 bench/run.py --workload fuzz_mix --seed 1 --trace 1

Without --workload every workload runs, each in its own process, and a
summary table follows.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only if every operation passed its gate and the golden fuzz CSV digest
matched.  See bench/README.md for the workloads and the metric map.
"""

import os

# Pin the BLAS/OpenMP pools to one thread before numpy loads, so linear
# algebra is measured as the program's own work, not as thread scheduling.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import gzip
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds, and its median reported: a 30 ms import alone (as on
# cli_cold) then gets some thirty samples instead of five.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
# op_ms_tail reports the highest of these percentiles that leaves at least
# TAIL_MIN_BEYOND samples above it.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 99.0)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def machine_info():
    """CPU, core count, interpreter, numpy and source revision of this run."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                                  capture_output=True, text=True, timeout=30)

        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            sha = head.stdout.strip()
            dirty = bool(git("status", "--porcelain").stdout.strip())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def set_up(workload):
    """Import hadafrac fresh and warm it, SETUP_REPEATS times or more until
    SETUP_MIN_S seconds have passed.

    Returns the last loaded modules and the set-up times in seconds.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        hf = workloads.load_hadafrac(SRC)
        workload.warm(hf)
        times.append(time.perf_counter() - start)
        # Free the copies replaced so far (module globals hold reference
        # cycles), so peak memory does not grow with the number of repeats.
        gc.collect()
    return hf, times


def run_op(hf, op, tracer=None):
    """Run one op; returns (latency_ns, passed).  A HadafracError fails the op."""
    if op.prepare is not None:
        op.prepare()
    call = op.call if tracer is None else (lambda: tracer.run_op(op.kind, op.call))
    start = time.perf_counter_ns()
    try:
        result = call()
        raised = False
    except hf.errors.HadafracError:
        raised = True
    elapsed = time.perf_counter_ns() - start
    return elapsed, (not raised and op.gate(result))


@contextlib.contextmanager
def recorded_warnings():
    """Record every warning instead of printing it, so no op writes to the
    terminal and each op pays the same warning cost on every run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


def warning_summary(caught):
    counts = {}
    for message in caught:
        counts[message.category.__name__] = counts.get(message.category.__name__, 0) + 1
    return ", ".join(f"{n} {name}" for name, n in sorted(counts.items())) or "none"


def op_set(hf, workload, seed, cycles=None):
    """The fixed list of ops one pass runs: the first `cycles` cycles."""
    stream = workload.cycles(hf, seed)
    return [op for _ in range(cycles or workload.pass_cycles) for op in next(stream)]


def timed_passes(hf, ops, seconds):
    """Run whole passes over `ops` until `seconds` have passed (at least one).

    Returns each op's fastest latency over the passes in ns, the number of
    executions that failed, the number of passes and the warnings raised.
    The passes are spread over the run, so an op's fastest execution
    measures the program rather than load from other tenants of a shared
    host, which can slow every op by a third or more for minutes at a time.
    """
    best = [math.inf] * len(ops)
    failed = passes = 0
    gc.collect()
    with recorded_warnings() as caught:
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            for i, op in enumerate(ops):
                latency, passed = run_op(hf, op)
                best[i] = min(best[i], latency)
                failed += not passed
            passes += 1
    return best, failed, passes, caught


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(sorted_values):
    """(percentile, value, samples beyond) for the highest qualifying rung."""
    best = None
    for q in TAIL_PERCENTILES:
        value, beyond = percentile(sorted_values, q)
        if beyond >= TAIL_MIN_BEYOND or best is None:
            best = (q, value, beyond)
    return best


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def check_digest(hf):
    digest = workloads.golden_csv_digest(hf)
    ok = digest == workloads.GOLDEN_CSV_SHA256
    verdict = "matches" if ok else "MISMATCH, expected " + workloads.GOLDEN_CSV_SHA256
    print(f"golden fuzz CSV sha256 {digest} {verdict}")
    return ok


def run_untraced(workload, seed, seconds):
    hf, setup_times = set_up(workload)
    ops = op_set(hf, workload, seed)
    best, failed, passes, caught = timed_passes(hf, ops, seconds)
    rss = peak_rss_mb()
    digest_ok = check_digest(hf)

    latencies = sorted(best)
    busy_s = sum(latencies) * 1e-9
    p50, _ = percentile(latencies, 50.0)
    q, tail_ns, beyond = tail(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / busy_s,
        "op_ms_p50": p50 * 1e-6,
        "op_ms_tail": tail_ns * 1e-6,
        "peak_rss_mb": rss,
    }
    executions = n * passes
    print(f"workload {workload.name}: closed loop, 1 client, seed {seed}, {seconds:g} s, "
          f"{n} ops x {passes} passes, fastest pass per op")
    print(f"  setup_s      {metrics['setup_s']:.6f} s  (median of {len(setup_times)}: "
          + ", ".join(f"{t:.4f}" for t in setup_times) + ")")
    print(f"  ops_per_s    {metrics['ops_per_s']:.3f} 1/s  ({n} ops in {busy_s:.3f} s busy)")
    print(f"  op_ms_p50    {metrics['op_ms_p50']:.4f} ms  (n={n})")
    print(f"  op_ms_tail   {metrics['op_ms_tail']:.4f} ms  (p{q:g}, {beyond} samples beyond, n={n})")
    print(f"  failed_frac  {failed / executions:g}  ({failed}/{executions} executions)")
    print(f"  peak_rss_mb  {rss:.2f} MB")
    print(f"  warnings     {warning_summary(caught)}")
    kinds = {}
    for op, latency in zip(ops, best):
        kinds.setdefault(op.kind, []).append(latency)
    for kind in sorted(kinds):
        values = sorted(kinds[kind])
        print(f"    {kind:<14} n={len(values):<7d} p50 {percentile(values, 50.0)[0] * 1e-6:.4f} ms")
    correct = failed == 0 and digest_ok
    emit(correct, executions, failed,
         {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()})
    return correct


def traced_run(hf, workload, seed, cycles=None):
    """Run one pass untraced, then one traced; returns metrics and spans."""
    ops = op_set(hf, workload, seed, cycles)
    tracer = tracing.Tracer(time.perf_counter_ns)
    with recorded_warnings():
        untraced = [run_op(hf, op) for op in ops]
        tracer.install(hf)
        try:
            traced = [run_op(hf, op, tracer) for op in ops]
        finally:
            tracer.restore()
    metrics = tracing.layer_metrics(
        tracer.spans,
        sum(latency for latency, _ in untraced),
        sum(latency for latency, _ in traced),
    )
    failed = sum(not passed for _, passed in untraced + traced)
    return metrics, tracer.spans, len(ops), failed


def write_spans(path, workload, seed, spans):
    names = sorted({span[0] for span in spans})
    code = {name: i for i, name in enumerate(names)}
    doc = {
        "workload": workload,
        "seed": seed,
        "columns": ["name", "start_ns", "end_ns", "parent", "detail"],
        "names": names,
        "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def run_traced(workload, seed):
    hf, _setup_times = set_up(workload)
    metrics, spans, n_ops, failed = traced_run(hf, workload, seed)
    digest_ok = check_digest(hf)
    path = SPANS_DIR / f"{workload.name}.spans.json.gz"
    write_spans(path, workload.name, seed, spans)
    print(f"workload {workload.name}: traced, seed {seed}, {n_ops} ops "
          f"({workload.pass_cycles} cycles), spans in {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    correct = failed == 0 and digest_ok
    emit(correct, 2 * n_ops, failed, metrics)
    return correct


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    correct, attempted, failed, merged = True, 0, 0, {}
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            correct = False
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}.{metric}"] = (entry["value"], entry["unit"])
        rows.append((name, result))
    if not args.trace:
        print()
        print(f"{'workload':<10} "
              + " ".join(f"{f'{m} ({u})':>18}" for m, u in END_TO_END_UNITS.items())
              + f" {'failed_frac':>12}")
        for name, result in rows:
            values = [result["metrics"][m]["value"] for m in END_TO_END_UNITS]
            print(f"{name:<10} " + " ".join(f"{v:18.4f}" for v in values)
                  + f" {result['failed'] / result['attempted']:12g}")
    emit(correct, max(attempted, 1), failed, merged)
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hadafrac" / "__init__.py").is_file():
        print(f"error: no hadafrac sources at {SRC}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_info()))
    if args.workload == "all":
        ok = run_all(args)
    else:
        workload = workloads.WORKLOADS[args.workload]
        ok = run_traced(workload, args.seed) if args.trace else run_untraced(
            workload, args.seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

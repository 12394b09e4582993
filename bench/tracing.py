"""Span tracing of hadafrac from outside the package.

`Tracer.install` replaces each target function at every attribute the
program looks it up through (the defining module, modules that imported it
by name, the package namespace, or the class for methods) with a wrapper
that records a span: name, start, end, parent and a small per-function
detail.  `Tracer.restore` puts every original back.  Spans are kept in memory
and only recorded while an operation runs, so the benchmark's own warm-up
and gates leave no trace.

`layer_metrics` turns the spans into the per-layer metrics; a layer is the
module that defines a function (jacobi, operators, ...).
"""

import functools
import sys
import types

_MISSING = object()

CHECK_FUNCTIONS = (
    "polya_szego_single",
    "polya_szego_double",
    "product_bound",
    "constant_polya_szego",
    "constant_polya_szego_two_order",
    "ratio_bound_constant",
    "minkowsky_related",
    "young_pointwise_check",
    "power_mean_check",
)

OP = "op"


def _cache_lookup(n_index, n_name):
    """Detail for an lru-cached rule lookup: (built, nodes)."""

    def start(fn, args, kwargs):
        misses = fn.cache_info().misses
        n = args[n_index] if len(args) > n_index else kwargs[n_name]
        return lambda result: [fn.cache_info().misses > misses, int(n)]

    return start


def _points(index):
    """Detail for an evaluation: number of points evaluated."""

    def start(fn, args, kwargs):
        return lambda result: int(getattr(args[index], "size", 1))

    return start


def _nodes_used(fn, args, kwargs):
    return lambda result: int(result.nodes_used)


def _kinked(fn, args, kwargs):
    return lambda result: bool(result[0].clipped)


def _length(fn, args, kwargs):
    return lambda result: len(result)


def _captured_output(fn, args, kwargs):
    """Characters the call writes to the (captured) stdout and stderr."""
    out, err = sys.stdout, sys.stderr
    before = out.tell() + err.tell()
    return lambda result: out.tell() + err.tell() - before


# (module, attribute, detail): the functions a traced run times.
TARGETS = (
    ("jacobi", "build_jacobi_rule", _cache_lookup(1, "n")),
    ("jacobi", "jacobi_rule_01", _cache_lookup(0, "n")),
    ("gammafn", "gamma", None),
    ("operators", "hadamard_integral", _nodes_used),
    ("operators", "hadamard_derivative", None),
    ("operators", "semigroup_residual", None),
    ("operators", "power_rule_integral", None),
    ("expressions", "parse_expr", None),
    ("expressions", "eval_expr", _points(1)),
    ("randfuncs", "random_bounded_function", _kinked),
    ("randfuncs", "PiecewiseLogPoly.__call__", _points(1)),
    ("randfuncs", "ConstantFunction.__call__", _points(1)),
    *(("inequalities", name, None) for name in CHECK_FUNCTIONS),
    ("fuzzing", "run_trial", None),
    ("fuzzing", "run_fuzz", None),
    ("fuzzing", "format_csv_row", _length),
    ("cli", "main", _captured_output),
)


class Tracer:
    """Records spans around calls into hadafrac while an operation runs.

    A span is [name, start_ns, end_ns, parent_index, detail]; operations
    themselves are spans named "op" whose detail is the op kind.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), 0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def run_op(self, kind, call):
        """Run `call` as one traced operation and return its result."""
        index = self._open(OP)
        self.spans[index][4] = kind
        try:
            return call()
        finally:
            self._close(index)

    def _wrapper(self, name, fn, detail):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            finish = detail(fn, args, kwargs) if detail is not None else None
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if finish is not None:
                tracer.spans[index][4] = finish(result)
            return result

        return traced

    def install(self, hf):
        """Wrap every target at every binding in the loaded hadafrac modules."""
        owners = [value for value in vars(hf).values() if isinstance(value, types.ModuleType)]
        for module_name, attr, detail in TARGETS:
            module = getattr(hf, module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrapper(f"{module_name}.{attr}",
                                                        vars(cls)[method], detail))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(f"{module_name}.{attr}", original, detail)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every attribute `install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Calls are single-threaded and properly nested, so children never
    overlap and their durations simply add.
    """
    own = [end - start for _name, start, end, _parent, _detail in spans]
    for name, start, end, parent, _detail in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, untraced_wall_ns, traced_wall_ns):
    """Per-layer metrics as {name: (value, unit)}; 0 where a layer is idle."""
    own = self_times(spans)
    names = [span[0] for span in spans]
    layers = [name.split(".", 1)[0] for name in names]
    dur = [span[2] - span[1] for span in spans]
    detail = [span[4] for span in spans]
    parent = [span[3] for span in spans]
    ns = 1e-9

    def idx(pred):
        return [i for i, name in enumerate(names) if pred(name, layers[i])]

    def total(indices, values):
        return sum(values[i] or 0 for i in indices)

    op_wall = total(idx(lambda n, l: n == OP), dur)

    # Rule lookups made from outside jacobi; a lookup that missed its cache
    # is a build.
    lookups = [i for i in idx(lambda n, l: l == "jacobi")
               if parent[i] is None or layers[parent[i]] != "jacobi"]
    builds = [i for i in lookups if detail[i] and detail[i][0]]
    hits = len(lookups) - len(builds)
    build_s = total(builds, dur) * ns

    integrals = idx(lambda n, l: n == "operators.hadamard_integral")
    operators = idx(lambda n, l: l == "operators")
    parses = idx(lambda n, l: n == "expressions.parse_expr")
    expr_evals = idx(lambda n, l: n == "expressions.eval_expr")
    draws = idx(lambda n, l: n == "randfuncs.random_bounded_function")
    rf_evals = idx(lambda n, l: n == "randfuncs.PiecewiseLogPoly.__call__")
    const_evals = idx(lambda n, l: n == "randfuncs.ConstantFunction.__call__")
    checks = set(idx(lambda n, l: l == "inequalities"))
    fn_evals = set(expr_evals) | set(rf_evals) | set(const_evals)

    # Nearest enclosing check of every span (parents precede children).
    check_of = [None] * len(spans)
    for i in range(len(spans)):
        if i in checks:
            check_of[i] = i
        elif parent[i] is not None:
            check_of[i] = check_of[parent[i]]
    evals_in_checks = [i for i in fn_evals if check_of[i] is not None]
    hypothesis_evals = [i for i in fn_evals if parent[i] in checks]
    check_integrals = [i for i in integrals if parent[i] in checks]
    fuzzing = idx(lambda n, l: l == "fuzzing")
    rows = idx(lambda n, l: n == "fuzzing.format_csv_row")
    cli = idx(lambda n, l: l == "cli")

    eval_points = total(expr_evals, detail)
    rf_points = total(rf_evals, detail)
    metrics = {
        "jacobi.builds": (len(builds), "count"),
        "jacobi.hits": (hits, "count"),
        "jacobi.hit_ratio": (_ratio(hits, len(lookups)), "ratio"),
        "jacobi.build_s": (build_s, "s"),
        "jacobi.build_nodes": (sum(detail[i][1] for i in builds), "count"),
        "jacobi.build_share": (_ratio(build_s, op_wall * ns), "ratio"),
        "gammafn.calls": (len(idx(lambda n, l: l == "gammafn")), "count"),
        "gammafn.self_s": (total(idx(lambda n, l: l == "gammafn"), own) * ns, "s"),
        "operators.integrals": (len(integrals), "count"),
        "operators.derivatives": (
            len(idx(lambda n, l: n == "operators.hadamard_derivative")), "count"),
        "operators.semigroups": (
            len(idx(lambda n, l: n == "operators.semigroup_residual")), "count"),
        "operators.nodes": (total(integrals, detail), "count"),
        "operators.self_s": (total(operators, own) * ns, "s"),
        "operators.self_us_per_integral": (
            _ratio(total(operators, own) * 1e-3, len(integrals)), "us"),
        "expressions.parses": (len(parses), "count"),
        "expressions.parse_s": (total(parses, dur) * ns, "s"),
        "expressions.evals": (len(expr_evals), "count"),
        "expressions.eval_points": (eval_points, "count"),
        "expressions.eval_s": (total(expr_evals, dur) * ns, "s"),
        "expressions.eval_ns_per_point": (_ratio(total(expr_evals, dur), eval_points), "ns"),
        "randfuncs.draws": (len(draws), "count"),
        "randfuncs.draw_s": (total(draws, dur) * ns, "s"),
        "randfuncs.evals": (len(rf_evals), "count"),
        "randfuncs.eval_points": (rf_points, "count"),
        "randfuncs.eval_s": (total(rf_evals, dur) * ns, "s"),
        "randfuncs.eval_ns_per_point": (_ratio(total(rf_evals, dur), rf_points), "ns"),
        "randfuncs.const_evals": (len(const_evals), "count"),
        "randfuncs.kinked_frac": (_ratio(sum(detail[i] for i in draws), len(draws)), "ratio"),
        "inequalities.checks": (len(checks), "count"),
        "inequalities.self_s": (total(checks, own) * ns, "s"),
        "inequalities.integrals_per_check": (_ratio(len(check_integrals), len(checks)), "count"),
        "inequalities.fn_evals_per_check": (_ratio(len(evals_in_checks), len(checks)), "count"),
        "inequalities.hypothesis_eval_s": (total(hypothesis_evals, dur) * ns, "s"),
        "fuzzing.trials": (len(idx(lambda n, l: n == "fuzzing.run_trial")), "count"),
        "fuzzing.self_s": (total(fuzzing, own) * ns, "s"),
        "fuzzing.csv_s": (total(rows, dur) * ns, "s"),
        "fuzzing.csv_bytes": (total(rows, detail), "bytes"),
        "cli.calls": (len(cli), "count"),
        "cli.self_s": (total(cli, own) * ns, "s"),
        "cli.out_bytes": (total(cli, detail), "bytes"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_frac": (1.0 - _ratio(untraced_wall_ns, traced_wall_ns), "ratio"),
    }
    return metrics

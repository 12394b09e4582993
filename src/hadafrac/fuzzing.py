"""Randomized soundness trials for the inequality checks.

Every check in `inequalities` applies the positive discrete measure a
Gauss-Jacobi rule induces to both sides of its inequality, and checks the
hypotheses at exactly the points that measure uses.  Each inequality holds
for the measure itself once its hypotheses hold there.  The trial
generator builds hypotheses that are correct by construction (clipped
functions with constant envelopes), so a reported violation can only come
from round-off or a transcription bug, never from quadrature truncation
error.

Determinism: the seed of trial i is master_seed + i, and each trial
draws from a counter-based Philox stream keyed on that seed.  Each thread
re-keys its generators whole on every use, so no state carries from one
trial or draw to the next: trials can be reproduced in isolation and
executed in any order.

Clipping can kink a trial function.  Kinked trials are counted in the
run's summary and judged like every other trial, by the checks' fixed
pass rule: the measure argument above does not depend on smoothness.
With the domain and the tolerance fixed, (theorem, nodes, seed)
determines a trial completely.
"""

import math
import time
from dataclasses import dataclass, replace
from typing import ClassVar

from . import inequalities
from .errors import check_int
from .inequalities import BoundingQuadruple, ConstantBounds, TheoremId, conjugate_exponent
from .jacobi import MAX_RULE_NODES
from .randfuncs import ConstantFunction, _Stream, random_bounded_function

# Orders are drawn from this grid so the node caches amortize across trials.
ORDER_GRID_STEP = 0.05

# Fraction of trials forced onto the equality-saturation boundary.
SATURATION_RATE = 0.05

CSV_HEADER = "theorem,alpha,beta,t,p,q,seed,lhs,bound,ratio,margin,pass"

_SEED_MASK = 2**63 - 1

# The trial's own stream: it stays live while the random functions, which
# draw from theirs, are built.
_TRIAL_STREAM = _Stream()


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzzing run against a single check.

    Every run shares one domain: orders on the ORDER_GRID_STEP grid in
    alpha_range and beta_range, and t uniform in t_range.
    """

    theorem_id: TheoremId
    trials: int = 100
    master_seed: int = 0
    nodes: int = 64
    alpha_range: ClassVar[tuple] = (0.1, 2.5)
    beta_range: ClassVar[tuple] = (0.1, 2.5)
    t_range: ClassVar[tuple] = (1.25, 15.0)

    def __post_init__(self):
        object.__setattr__(self, "theorem_id", TheoremId(self.theorem_id))
        check_int("master_seed", self.master_seed, -math.inf, math.inf)
        check_int("trials", self.trials, 1, math.inf)
        check_int("nodes", self.nodes, 2, MAX_RULE_NODES)


# Both ends of each order range lie on the grid: k runs over [k_lo, k_hi + 1).
_ALPHA_SPAN, _BETA_SPAN = (
    (round(lo / ORDER_GRID_STEP), round(hi / ORDER_GRID_STEP) + 1)
    for lo, hi in (FuzzConfig.alpha_range, FuzzConfig.beta_range)
)


@dataclass(frozen=True)
class RunSummary:
    """The record of one fuzzing run.

    `kinked` counts the trials that drew a clipped function, and
    `failed_seeds` holds the seed of each failing trial in trial order;
    `run_trial` replays any of them.
    """

    trials_run: int
    passes: int
    failures: int
    worst_ratio: float
    worst_seed: int
    wall_time: float
    kinked: int
    failed_seeds: tuple


def trial_seed(master_seed, index):
    """Seed of trial `index` in a run started from `master_seed`."""
    master_seed = check_int("master_seed", master_seed, -math.inf, math.inf)
    return (master_seed + check_int("index", index, -math.inf, math.inf)) & _SEED_MASK


def _draw_band(rng):
    lo = float(rng.uniform(0.3, 1.5))
    hi = lo + float(rng.uniform(0.2, 2.0))
    return lo, hi


def _draw_function(rng, lo, hi):
    seed = int(rng.integers(0, 2**62))
    pieces = int(rng.integers(1, 17))
    degree = int(rng.integers(0, 5))
    return random_bounded_function(seed, lo, hi, pieces, degree)


# Hypothesis families: each takes the trial's generator, whether it is
# saturating, the drawn x and y and their bands (lo_x, hi_x, lo_y, hi_y),
# and returns x, y and the check's hypothesis arguments.  Draws made here
# follow the common ones, so their order is part of every trial's seed.


def _quadruple(rng, saturating, x, y, bands):
    return x, y, (BoundingQuadruple(*map(ConstantFunction, bands)),)


def _constant_bounds(rng, saturating, x, y, bands):
    return x, y, (ConstantBounds(*bands),)


def _ratio_band(rng, saturating, x, y, bands):
    p = float(rng.uniform(1.2, 4.0))
    if saturating:
        return x, x, (p, 0.9, 1.1)
    lo_x, hi_x, lo_y, hi_y = bands
    return x, y, (p, 0.999 * lo_x / hi_y, 1.001 * hi_x / lo_y)


def _holder(rng, saturating, x, y, bands):
    p = float(rng.uniform(1.2, 4.0))
    if saturating:
        # Young saturates when x^p = y^q pointwise.
        y = ConstantFunction(x.value ** (p / conjugate_exponent(p)))
    return x, y, (p,)


def _power(rng, saturating, x, y, bands):
    r = float(rng.uniform(1.2, 4.0))
    if saturating:
        # The power-mean bound saturates when x = y, constant or not.
        x, _, _ = _draw_function(rng, 0.5, 2.5)
        y = x
    return x, y, (r,)


# TheoremId -> (check, hypothesis family, number of orders it takes).  The
# check is looked up by name in `inequalities` at call time, so a wrapper
# bound to that name (a profiler's, say) sees every trial.
_TRIALS = {
    TheoremId.T31: ("polya_szego_single", _quadruple, 1),
    TheoremId.T32: ("polya_szego_double", _quadruple, 2),
    TheoremId.T33: ("product_bound", _quadruple, 2),
    TheoremId.P31: ("constant_polya_szego", _constant_bounds, 1),
    TheoremId.P32: ("constant_polya_szego_two_order", _constant_bounds, 2),
    TheoremId.P33: ("ratio_bound_constant", _constant_bounds, 2),
    TheoremId.T34: ("minkowsky_related", _ratio_band, 1),
    TheoremId.YOUNG: ("young_pointwise_check", _holder, 1),
    TheoremId.POWMEAN: ("power_mean_check", _power, 1),
}


def run_trial(theorem_id, seed, *, nodes=FuzzConfig.nodes):
    """Run the single fuzz trial identified by (theorem_id, seed).

    Fully reproducible: the seed determines every draw, so a CSV row's
    seed column reruns its trial in isolation.  Returns (report, kinked),
    with the seed stamped on the report.  Every trial, kinked or not, is
    judged by the same fixed pass rule.
    """
    check, family, order_count = _TRIALS[TheoremId(theorem_id)]
    seed = check_int("seed", seed, -math.inf, math.inf)
    rng = _TRIAL_STREAM.keyed(seed & _SEED_MASK)
    alpha = ORDER_GRID_STEP * int(rng.integers(*_ALPHA_SPAN))
    beta = ORDER_GRID_STEP * int(rng.integers(*_BETA_SPAN))
    t = float(rng.uniform(*FuzzConfig.t_range))
    saturating = bool(rng.uniform() < SATURATION_RATE)
    if saturating:
        c = float(rng.uniform(0.5, 3.0))
        d = float(rng.uniform(0.5, 3.0))
        x_fn, y_fn, bands = ConstantFunction(c), ConstantFunction(d), (c, c, d, d)
    else:
        lo_x, hi_x = _draw_band(rng)
        lo_y, hi_y = _draw_band(rng)
        x_fn, _, _ = _draw_function(rng, lo_x, hi_x)
        y_fn, _, _ = _draw_function(rng, lo_y, hi_y)
        bands = (lo_x, hi_x, lo_y, hi_y)
    x_fn, y_fn, hypothesis = family(rng, saturating, x_fn, y_fn, bands)
    kinked = any(getattr(f, "clipped", False) for f in (x_fn, y_fn))
    report = getattr(inequalities, check)(
        x_fn, y_fn, *hypothesis, *(alpha, beta)[:order_count], t, nodes=nodes
    )
    return replace(report, seed=seed), kinked


def run_fuzz(config, csv_file=None):
    """Run `config.trials` trials and return their RunSummary.

    When `csv_file` (a text file object) is given, one CSV row is written
    per trial, in trial-index order, after the header.
    """
    if csv_file is not None:
        csv_file.write(CSV_HEADER + "\n")
    failed_seeds = []
    kinked_trials = 0
    worst_ratio = -math.inf
    worst_seed = trial_seed(config.master_seed, 0)
    start = time.perf_counter()
    for index in range(config.trials):
        seed = trial_seed(config.master_seed, index)
        report, kinked = run_trial(config.theorem_id, seed, nodes=config.nodes)
        kinked_trials += kinked
        if not report.passed:
            failed_seeds.append(seed)
        if report.ratio > worst_ratio:
            worst_ratio = report.ratio
            worst_seed = seed
        if csv_file is not None:
            csv_file.write(format_csv_row(report) + "\n")
    return RunSummary(
        trials_run=config.trials,
        passes=config.trials - len(failed_seeds),
        failures=len(failed_seeds),
        worst_ratio=worst_ratio,
        worst_seed=worst_seed,
        wall_time=time.perf_counter() - start,
        kinked=kinked_trials,
        failed_seeds=tuple(failed_seeds),
    )


def _fmt(value):
    return "" if value is None else "%.17g" % value


def format_csv_row(report):
    """One CSV row per the fixed schema; absent parameters are empty.

    The POWMEAN exponent r rides in the p column, documented in the
    README; q is empty for that check.
    """
    params = report.params
    fields = [
        report.theorem_id.value,
        _fmt(params.get("alpha")),
        _fmt(params.get("beta")),
        _fmt(params.get("t")),
        _fmt(params.get("p", params.get("r"))),
        _fmt(params.get("q")),
        "" if report.seed is None else str(report.seed),
        _fmt(report.lhs),
        _fmt(report.bound),
        _fmt(report.ratio),
        _fmt(report.margin),
        "true" if report.passed else "false",
    ]
    return ",".join(fields)

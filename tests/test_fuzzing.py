"""Tests for the fuzzing harness: determinism, CSV schema, soundness."""

import dataclasses
import inspect
import io
import math
import sys
import threading

import numpy as np
import pytest

from hadafrac import fuzzing, inequalities
from hadafrac.errors import DomainError, EnvelopeError
from hadafrac.fuzzing import (
    CSV_HEADER,
    FuzzConfig,
    RunSummary,
    format_csv_row,
    run_fuzz,
    run_trial,
    trial_seed,
)
from hadafrac.inequalities import ABS_TOL, TheoremId
from hadafrac.randfuncs import PiecewiseLogPoly, random_bounded_function

ALL_CHECKS = list(TheoremId)


def small_run(theorem_id, trials=40, master_seed=7734):
    config = FuzzConfig(theorem_id=theorem_id, trials=trials, master_seed=master_seed)
    return run_fuzz(config)


def reports_of(theorem_id, trials, master_seed=7734):
    """The reports of a run's trials, each replayed from its seed."""
    return [run_trial(theorem_id, trial_seed(master_seed, i))[0] for i in range(trials)]


def csv_of(theorem_id, trials, master_seed=7734):
    stream = io.StringIO()
    run_fuzz(FuzzConfig(theorem_id=theorem_id, trials=trials, master_seed=master_seed),
             csv_file=stream)
    return stream.getvalue()


class TestDeterminism:
    def test_identical_configs_give_identical_csv(self):
        for theorem in (TheoremId.T31, TheoremId.T34, TheoremId.POWMEAN):
            assert csv_of(theorem, 25, 42) == csv_of(theorem, 25, 42)

    def test_streamed_and_collected_csv_agree(self):
        collected = "".join(format_csv_row(r) + "\n" for r in reports_of(TheoremId.T32, 15, 3))
        assert csv_of(TheoremId.T32, 15, 3) == CSV_HEADER + "\n" + collected

    def test_trial_is_reproducible_from_its_seed(self):
        config = FuzzConfig(theorem_id=TheoremId.T33, trials=20, master_seed=99)
        stream = io.StringIO()
        summary = run_fuzz(config, csv_file=stream)
        row = stream.getvalue().split("\n")[1 + 7]
        seed = trial_seed(99, 7)
        assert int(row.split(",")[6]) == seed
        report, _ = run_trial(TheoremId.T33, seed)
        assert report.seed == seed
        assert format_csv_row(report) == row
        replayed = [run_trial(TheoremId.T33, trial_seed(99, i))[1] for i in range(20)]
        assert sum(replayed) == summary.kinked

    def test_different_master_seeds_differ(self):
        assert csv_of(TheoremId.T31, 5, 1) != csv_of(TheoremId.T31, 5, 2)

    def test_trial_seed_wraps_into_63_bits(self):
        assert trial_seed(2**63 - 1, 5) == 4
        assert trial_seed(0, 12) == 12
        assert trial_seed(np.int64(3), np.int32(4)) == 7

    @pytest.mark.parametrize("seed", [2.7, 2.0, "a", None, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(DomainError):
            run_trial(TheoremId.T31, seed)
        with pytest.raises(DomainError):
            trial_seed(seed, 1)
        with pytest.raises(DomainError):
            trial_seed(1, seed)


def in_threads(calls, timeout=120):
    """Run each call in its own thread, all at once, and return their results."""
    results = [None] * len(calls)

    def work(i):
        results[i] = calls[i]()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestIsolation:
    """No generator state carries from one trial or draw to the next."""

    @pytest.mark.parametrize("theorem", ALL_CHECKS, ids=[t.value for t in ALL_CHECKS])
    def test_a_trial_in_between_changes_no_replay(self, theorem):
        for seed in range(8):
            first = run_trial(theorem, seed)
            run_trial(ALL_CHECKS[seed], 1000 + seed)
            assert run_trial(theorem, seed) == first

    def test_a_trial_that_raised_part_way_leaves_no_state(self, monkeypatch):
        trial = run_trial(TheoremId.T31, 5)
        draw = random_bounded_function(9, 0.5, 2.0, 7, 3)

        def refuse(x, y, *args, **kwargs):
            # Both streams are mid-way: the trial's, and the one x and y came from.
            assert isinstance(x, PiecewiseLogPoly) and isinstance(y, PiecewiseLogPoly)
            raise EnvelopeError("hand-built failure")

        monkeypatch.setattr(inequalities, "polya_szego_single", refuse)
        with pytest.raises(EnvelopeError):
            run_trial(TheoremId.T31, 7)
        monkeypatch.undo()
        assert random_bounded_function(9, 0.5, 2.0, 7, 3) == draw
        assert run_trial(TheoremId.T31, 5) == trial

    def test_runs_in_threads_at_once_write_the_sequential_csvs(self):
        theorems = (TheoremId.T32, TheoremId.T34, TheoremId.YOUNG, TheoremId.POWMEAN)
        sequential = [csv_of(theorem, 40, 11) for theorem in theorems]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            concurrent = in_threads([lambda t=theorem: csv_of(t, 40, 11) for theorem in theorems])
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential

    def test_each_stream_builds_one_generator_per_thread(self, monkeypatch):
        builds = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            builds.append(threading.get_ident())
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        # A new thread builds both of its streams: the trial's and the draws'.
        [summary] = in_threads([lambda: small_run(TheoremId.T31, trials=200)])
        assert summary.trials_run == 200
        assert len(builds) == 2
        before = len(builds)
        small_run(TheoremId.T31, trials=200)
        assert len(builds) - before <= 2


class TestSoundness:
    @pytest.mark.parametrize("theorem", ALL_CHECKS, ids=[t.value for t in ALL_CHECKS])
    def test_no_violations_in_small_runs(self, theorem):
        summary = small_run(theorem, trials=200)
        assert isinstance(summary, RunSummary)
        assert summary.failures == 0, (
            f"{theorem.value}: worst ratio {summary.worst_ratio!r} "
            f"at seed {summary.worst_seed}"
        )
        assert summary.failed_seeds == ()
        assert summary.passes + summary.failures == summary.trials_run
        assert summary.trials_run == 200
        assert 0 <= summary.kinked <= summary.trials_run
        assert summary.wall_time > 0.0

    def test_saturating_trials_occur_and_hit_ratio_one(self):
        for theorem in (TheoremId.T31, TheoremId.P31, TheoremId.YOUNG, TheoremId.POWMEAN):
            best = small_run(theorem, trials=200).worst_ratio
            assert best == pytest.approx(1.0, abs=1e-10), theorem

    def test_both_kinked_and_smooth_trials_appear(self):
        summary = small_run(TheoremId.T31, trials=200)
        assert 0 < summary.kinked < summary.trials_run

    def test_worst_ratio_matches_results(self):
        summary = small_run(TheoremId.T32, trials=50)
        reports = reports_of(TheoremId.T32, 50)
        assert summary.worst_ratio == max(r.ratio for r in reports)
        assert any(
            r.seed == summary.worst_seed and r.ratio == summary.worst_ratio
            for r in reports
        )


class TestCsvSchema:
    def test_header_is_exact(self):
        assert CSV_HEADER == "theorem,alpha,beta,t,p,q,seed,lhs,bound,ratio,margin,pass"
        assert csv_of(TheoremId.T31, 1).split("\n")[0] == CSV_HEADER

    def test_row_shape_and_round_trip(self):
        for report in reports_of(TheoremId.T34, 10):
            fields = format_csv_row(report).split(",")
            assert len(fields) == 12
            assert fields[0] == "T34"
            assert float(fields[7]) == report.lhs
            assert float(fields[8]) == report.bound
            assert float(fields[9]) == report.ratio
            assert float(fields[10]) == report.margin
            assert int(fields[6]) == report.seed
            assert fields[11] in ("true", "false")

    def test_lf_line_endings_only(self):
        text = csv_of(TheoremId.P32, 5)
        assert "\r" not in text
        assert text.count("\n") == 6

    def test_single_order_checks_leave_beta_empty(self):
        for report in reports_of(TheoremId.T31, 3):
            fields = format_csv_row(report).split(",")
            assert fields[1] != ""
            assert fields[2] == ""
            assert fields[4] == ""
            assert fields[5] == ""

    def test_two_order_checks_fill_beta(self):
        for report in reports_of(TheoremId.P33, 3):
            fields = format_csv_row(report).split(",")
            assert fields[2] != ""

    def test_powmean_exponent_rides_in_p_column(self):
        for report in reports_of(TheoremId.POWMEAN, 5):
            fields = format_csv_row(report).split(",")
            assert float(fields[4]) == report.params["r"]
            assert fields[5] == ""

    def test_holder_checks_fill_both_exponents(self):
        for report in reports_of(TheoremId.YOUNG, 5):
            fields = format_csv_row(report).split(",")
            p, q = float(fields[4]), float(fields[5])
            assert 1.0 / p + 1.0 / q == pytest.approx(1.0, abs=1e-12)


class TestConfigValidation:
    def test_theorem_id_coercion_from_string(self):
        config = FuzzConfig(theorem_id="T31", trials=1)
        assert config.theorem_id is TheoremId.T31

    def test_unknown_theorem_rejected(self):
        with pytest.raises(DomainError):
            FuzzConfig(theorem_id="T99", trials=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"nodes": 1},
            {"trials": True},
            {"nodes": 64.0},
            {"master_seed": 1e3},
            {"nodes": math.nan},
            {"nodes": "a"},
            {"nodes": 2.5},
            {"nodes": None},
            {"trials": "a"},
            {"trials": 2.0},
            {"master_seed": 2.5},
            {"master_seed": "a"},
            {"master_seed": None},
            {"master_seed": True},
            {"nodes": 4097},
            {"nodes": 0},
            {"nodes": True},
            {"nodes": "64"},
            {"trials": "5"},
            {"trials": 1.5},
            {"trials": -1},
            {"trials": None},
            {"trials": math.inf},
            {"master_seed": math.nan},
            {"master_seed": "0"},
            {"master_seed": b"1"},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FuzzConfig(theorem_id=TheoremId.T31, **{"trials": 5, **kwargs})

    def test_config_is_frozen(self):
        config = FuzzConfig(theorem_id=TheoremId.T31, trials=1)
        with pytest.raises(AttributeError):
            config.trials = 7

    def test_run_summary_is_frozen(self):
        summary = small_run(TheoremId.T31, trials=2)
        assert isinstance(summary.failed_seeds, tuple)
        with pytest.raises(AttributeError):
            summary.kinked = 0


# Trial seeds of T31 whose functions are smooth and kinked (clipped).
SMOOTH_T31_SEED = 0
KINKED_T31_SEED = 2


class TestTrialTolerance:
    # The tolerance is no option of run_trial, so every value is refused.
    @pytest.mark.parametrize("seed", [SMOOTH_T31_SEED, KINKED_T31_SEED])
    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan, -1e-9, "1e-9", None])
    def test_bad_rel_tol_rejected(self, rel_tol, seed):
        with pytest.raises(TypeError):
            run_trial(TheoremId.T31, seed, rel_tol=rel_tol)

    # Kinked or smooth, every trial is judged at exactly inequalities.REL_TOL,
    # and run_trial hands the check no tolerance of its own.
    @pytest.mark.parametrize(
        "seed, rel_tol, judged_at",
        [
            (SMOOTH_T31_SEED, 1e-5, 1e-5),
            (KINKED_T31_SEED, 1e-5, 1e-5),
            (KINKED_T31_SEED, 1e-9, 1e-9),
            (SMOOTH_T31_SEED, 1e-9, 1e-9),
        ],
    )
    def test_kinked_trials_are_never_judged_more_strictly(
        self, monkeypatch, seed, rel_tol, judged_at
    ):
        # The fuzzer looks each check up by name at call time, so a spy
        # bound to that name sees the options it passes.  Patching the
        # constant shows which name the pass rule reads.
        seen = []
        check = inequalities.polya_szego_single

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return check(*args, **kwargs)

        monkeypatch.setattr(inequalities, "polya_szego_single", spy)
        monkeypatch.setattr(inequalities, "REL_TOL", rel_tol)
        report, kinked = run_trial(TheoremId.T31, seed)
        assert kinked == (seed == KINKED_T31_SEED)
        assert seen == [{"nodes": FuzzConfig.nodes}]
        assert report.passed == (
            report.lhs <= report.bound * (1.0 + judged_at) + ABS_TOL
        )


def test_the_tolerance_is_not_an_option():
    fields = [f.name for f in dataclasses.fields(FuzzConfig) if f.init]
    assert fields == ["theorem_id", "trials", "master_seed", "nodes"]
    with pytest.raises(TypeError):
        FuzzConfig(theorem_id="T31", rel_tol=1e-9)


def test_checks_take_exactly_the_options_run_trial_passes():
    for name, _family, _orders in fuzzing._TRIALS.values():
        parameters = inspect.signature(getattr(inequalities, name)).parameters.values()
        options = {p.name for p in parameters if p.kind is p.KEYWORD_ONLY}
        assert options == {"nodes"}, name


def test_fuzz_domain_is_fixed():
    fields = FuzzConfig.__dataclass_fields__
    assert fields["alpha_range"].default == fields["beta_range"].default == (0.1, 2.5)
    assert fields["t_range"].default == (1.25, 15.0)
    assert fuzzing._ALPHA_SPAN == fuzzing._BETA_SPAN == (2, 51)
    with pytest.raises(TypeError):
        FuzzConfig(theorem_id="T31", alpha_range=(0.1, 1.0))
    with pytest.raises(TypeError):
        run_trial("T31", 0, t_range=(2.0, 3.0))


def test_run_trial_defaults_are_fuzz_configs():
    parameters = inspect.signature(run_trial).parameters.values()
    defaults = {p.name: p.default for p in parameters if p.kind is p.KEYWORD_ONLY}
    fields = {f.name: f.default for f in dataclasses.fields(FuzzConfig)}
    per_run = {"theorem_id", "trials", "master_seed"}
    assert defaults == {name: value for name, value in fields.items() if name not in per_run}

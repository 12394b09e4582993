"""Tests for the fuzzing harness: determinism, CSV schema, soundness."""

import inspect
import io
import math

import numpy as np
import pytest

from hadafrac import fuzzing, inequalities
from hadafrac.errors import DomainError
from hadafrac.fuzzing import (
    CSV_HEADER,
    FuzzConfig,
    RunSummary,
    TrialResult,
    format_csv_row,
    run_fuzz,
    run_trial,
    trial_seed,
)
from hadafrac.inequalities import TheoremId

ALL_CHECKS = list(TheoremId)


def small_run(theorem_id, trials=40, master_seed=7734):
    config = FuzzConfig(theorem_id=theorem_id, trials=trials, master_seed=master_seed)
    return run_fuzz(config)


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
        config = FuzzConfig(theorem_id=TheoremId.T32, trials=15, master_seed=3)
        stream = io.StringIO()
        _, results = run_fuzz(config, csv_file=stream)
        collected = "".join(format_csv_row(r.report) + "\n" for r in results)
        assert stream.getvalue() == CSV_HEADER + "\n" + collected

    def test_trial_is_reproducible_from_its_seed(self):
        config = FuzzConfig(theorem_id=TheoremId.T33, trials=20, master_seed=99)
        _, results = run_fuzz(config)
        probe = results[7]
        seed = trial_seed(99, 7)
        assert probe.report.seed == seed
        report, kinked = run_trial(TheoremId.T33, seed)
        assert report.lhs == probe.report.lhs
        assert report.bound == probe.report.bound
        assert report.params == probe.report.params
        assert kinked == probe.kinked

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


class TestSoundness:
    @pytest.mark.parametrize("theorem", ALL_CHECKS, ids=[t.value for t in ALL_CHECKS])
    def test_no_violations_in_small_runs(self, theorem):
        summary, results = small_run(theorem, trials=200)
        assert isinstance(summary, RunSummary)
        assert summary.failures == 0, (
            f"{theorem.value}: worst ratio {summary.worst_ratio!r} "
            f"at seed {summary.worst_seed}"
        )
        assert summary.passes + summary.failures == summary.trials_run
        assert summary.trials_run == 200
        assert summary.wall_time > 0.0

    def test_saturating_trials_occur_and_hit_ratio_one(self):
        for theorem in (TheoremId.T31, TheoremId.P31, TheoremId.YOUNG, TheoremId.POWMEAN):
            _, results = small_run(theorem, trials=200)
            best = max(r.report.ratio for r in results)
            assert best == pytest.approx(1.0, abs=1e-10), theorem

    def test_both_kinked_and_smooth_trials_appear(self):
        _, results = small_run(TheoremId.T31, trials=200)
        kinds = {r.kinked for r in results}
        assert kinds == {True, False}

    def test_worst_ratio_matches_results(self):
        summary, results = small_run(TheoremId.T32, trials=50)
        assert summary.worst_ratio == max(r.report.ratio for r in results)
        assert any(
            r.report.seed == summary.worst_seed
            and r.report.ratio == summary.worst_ratio
            for r in results
        )


class TestCsvSchema:
    def test_header_is_exact(self):
        assert CSV_HEADER == "theorem,alpha,beta,t,p,q,seed,lhs,bound,ratio,margin,pass"
        assert csv_of(TheoremId.T31, 1).split("\n")[0] == CSV_HEADER

    def test_row_shape_and_round_trip(self):
        _, results = small_run(TheoremId.T34, trials=10)
        for result in results:
            row = format_csv_row(result.report)
            fields = row.split(",")
            assert len(fields) == 12
            assert fields[0] == "T34"
            assert float(fields[7]) == result.report.lhs
            assert float(fields[8]) == result.report.bound
            assert float(fields[9]) == result.report.ratio
            assert float(fields[10]) == result.report.margin
            assert int(fields[6]) == result.report.seed
            assert fields[11] in ("true", "false")

    def test_lf_line_endings_only(self):
        text = csv_of(TheoremId.P32, 5)
        assert "\r" not in text
        assert text.count("\n") == 6

    def test_single_order_checks_leave_beta_empty(self):
        _, results = small_run(TheoremId.T31, trials=3)
        for result in results:
            fields = format_csv_row(result.report).split(",")
            assert fields[1] != ""
            assert fields[2] == ""
            assert fields[4] == ""
            assert fields[5] == ""

    def test_two_order_checks_fill_beta(self):
        _, results = small_run(TheoremId.P33, trials=3)
        for result in results:
            fields = format_csv_row(result.report).split(",")
            assert fields[2] != ""

    def test_powmean_exponent_rides_in_p_column(self):
        _, results = small_run(TheoremId.POWMEAN, trials=5)
        for result in results:
            fields = format_csv_row(result.report).split(",")
            assert float(fields[4]) == result.report.params["r"]
            assert fields[5] == ""

    def test_holder_checks_fill_both_exponents(self):
        _, results = small_run(TheoremId.YOUNG, trials=5)
        for result in results:
            fields = format_csv_row(result.report).split(",")
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
            {"alpha_range": (0.01, 1.0)},
            {"alpha_range": (1.0, 0.5)},
            {"beta_range": (0.05, 1.0)},
            {"t_range": (1.0, 2.0)},
            {"t_range": (3.0, 2.0)},
            {"t_range": (2.0, math.inf)},
            {"alpha_range": (0.5, math.inf)},
            {"beta_range": (0.5, math.nan)},
            {"nodes": 1},
            {"trials": True},
            {"rel_tol": math.inf},
            {"rel_tol": math.nan},
            {"rel_tol": -1e-9},
            {"nodes": "a"},
            {"nodes": 2.5},
            {"nodes": None},
            {"trials": "a"},
            {"trials": 2.0},
            {"alpha_range": ("a", 1.0)},
            {"beta_range": (0.5, None)},
            {"t_range": 2.0},
            {"t_range": (2.0,)},
            {"master_seed": 2.5},
            {"master_seed": "a"},
            {"master_seed": None},
            {"master_seed": True},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FuzzConfig(theorem_id=TheoremId.T31, **{"trials": 5, **kwargs})

    def test_config_is_frozen(self):
        config = FuzzConfig(theorem_id=TheoremId.T31, trials=1)
        with pytest.raises(AttributeError):
            config.trials = 7

    def test_trial_results_are_frozen(self):
        _, results = small_run(TheoremId.T31, trials=2)
        assert isinstance(results[0], TrialResult)
        with pytest.raises(AttributeError):
            results[0].kinked = True


# Trial seeds of T31 whose functions are smooth and kinked (clipped).
SMOOTH_T31_SEED = 0
KINKED_T31_SEED = 2


class TestTrialTolerance:
    @pytest.mark.parametrize("seed", [SMOOTH_T31_SEED, KINKED_T31_SEED])
    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan, -1e-9, "1e-9", None])
    def test_bad_rel_tol_rejected(self, rel_tol, seed):
        with pytest.raises(DomainError):
            run_trial(TheoremId.T31, seed, rel_tol=rel_tol)

    # Kinked or smooth, every trial is judged at exactly its rel_tol.
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
        # bound to that name sees the tolerance it passes.
        seen = []
        check = inequalities.polya_szego_single

        def spy(*args, **kwargs):
            seen.append(kwargs["rel_tol"])
            return check(*args, **kwargs)

        monkeypatch.setattr(inequalities, "polya_szego_single", spy)
        _, kinked = run_trial(TheoremId.T31, seed, rel_tol=rel_tol)
        assert kinked == (seed == KINKED_T31_SEED)
        assert seen == [judged_at]


def test_checks_take_exactly_the_options_run_trial_passes():
    for name, _family, _orders in fuzzing._TRIALS.values():
        parameters = inspect.signature(getattr(inequalities, name)).parameters.values()
        options = {p.name for p in parameters if p.kind is p.KEYWORD_ONLY}
        assert options == {"nodes", "rel_tol", "seed"}, name

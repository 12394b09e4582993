"""Tests for the command-line interface: output format, exit codes and
CSV determinism."""

import dataclasses
import itertools
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hadafrac
from hadafrac.cli import _build_parser, main
from hadafrac import inequalities
from hadafrac.fuzzing import CSV_HEADER, FuzzConfig, run_fuzz

E_STR = "2.718281828459045"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_unit_function_unit_order(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "1", "1.0", E_STR)
        assert code == 0
        assert out.splitlines()[0] == "1.000000000000000"

    def test_log_integrand(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "ln(x)", "1.0", E_STR)
        assert code == 0
        assert out.splitlines()[0] == "0.500000000000000"

    def test_half_order_of_one(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "1", "0.5", E_STR)
        assert code == 0
        assert out.splitlines()[0] == "1.128379167095513"

    def test_error_estimate_line(self, capsys):
        _, out, _ = run_cli(capsys, "integrate", "exp(0.25*ln(x))", "0.75", "4.0")
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("estimated error ")

    @pytest.mark.parametrize("alpha, t", [("inf", "2"), ("0.5", "inf")])
    def test_nonfinite_arguments_are_usage_errors(self, capsys, alpha, t):
        code, _, err = run_cli(capsys, "integrate", "1", alpha, t)
        assert code == 2
        assert "error:" in err

    def test_custom_nodes_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--nodes", "32", "integrate", "1", "1.0", E_STR)
        assert code == 0
        assert out.splitlines()[0] == "1.000000000000000"


class TestDerive:
    @pytest.mark.parametrize(
        "expr, alpha, t, expected",
        [
            ("ln(x)", "0.5", E_STR, 1.128379167095513),
            ("1", "0.5", E_STR, 0.564189583547756),
            ("ln(x)^0.5", "0.5", "10", 0.886226925452758),
        ],
    )
    def test_closed_form_values(self, capsys, expr, alpha, t, expected):
        code, out, _ = run_cli(capsys, "derive", expr, alpha, t)
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(expected, abs=1e-6)

    def test_order_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "derive", "ln(x)", "1.5", "2.0")
        assert code == 2
        assert "error:" in err

    def test_rough_integrand_is_a_quadrature_failure(self, capsys):
        code, _, err = run_cli(capsys, "derive", "sin(1000000000*x)", "0.5", "1.6487212707")
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("quadrature failure:")

    @pytest.mark.filterwarnings("error")
    def test_sign_change_prints_no_warning(self, capsys):
        # Smooth input next to a zero of D^0.9[tau^-1.125]: the one-sided
        # slopes differ by 0.7% of the slope, yet the value is within 1e-8
        # of exact, so the value and its estimate are all that is printed.
        code, _, err = run_cli(capsys, "derive", "x^-1.125", "0.9", "1.1015625")
        assert code == 0
        assert err == ""


class TestPowercheck:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "powercheck")
        assert code == 0
        assert "max relative error" in out
        assert "60 cases" in out

    def test_subset_grid_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "powercheck", "--max-beta", "1", "--max-alpha", "1"
        )
        assert code == 0
        assert "12 cases" in out

    def test_zero_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "powercheck", "--max-alpha", "0")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("flag, value", [("--max-alpha", "0.1"), ("--max-beta", "0.5")])
    def test_range_below_the_grid_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "powercheck", flag, value)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")


class TestSemigroup:
    @pytest.mark.parametrize(
        "expr, alpha, beta, t, limit",
        [
            ("1", "0.3", "0.7", E_STR, 1e-8),
            ("ln(x)", "0.5", "0.5", E_STR, 1e-8),
            ("exp(0.5*ln(x))", "0.4", "0.6", "2", 1e-5),
        ],
    )
    def test_residuals(self, capsys, expr, alpha, beta, t, limit):
        code, out, _ = run_cli(capsys, "semigroup", expr, alpha, beta, t)
        assert code == 0
        assert float(out.strip()) < limit


class TestFuzzCommand:
    def test_csv_written_and_summary_printed(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys,
            "--seed", "11", "--out", str(out_path),
            "fuzz", "--theorem", "T31", "--trials", "20",
        )
        assert code == 0
        assert "failures 0" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 21

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys,
                "--seed", "123", "--out", str(path),
                "fuzz", "--theorem", "P32", "--trials", "25",
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_csv_when_no_out(self, capsys):
        code, out, err = run_cli(
            capsys, "--seed", "2", "fuzz", "--theorem", "YOUNG", "--trials", "5"
        )
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.splitlines()) == 6
        assert "failures 0" in err

    def test_seed_defaults_to_the_config_default(self, capsys):
        _, implicit, _ = run_cli(capsys, "fuzz", "--theorem", "T33", "--trials", "3")
        seed = str(FuzzConfig.master_seed)
        _, explicit, _ = run_cli(
            capsys, "--seed", seed, "fuzz", "--theorem", "T33", "--trials", "3"
        )
        assert implicit == explicit
        args = _build_parser().parse_args(["fuzz", "--theorem", "T33"])
        assert (args.seed, args.trials) == (FuzzConfig.master_seed, FuzzConfig.trials)

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        for path in (tmp_path / "missing" / "run.csv", tmp_path):
            code, out, err = run_cli(
                capsys, "--out", str(path), "fuzz", "--theorem", "T31", "--trials", "1"
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot write --out") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_out_device_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "--out", "/dev/full", "fuzz", "--theorem", "T31", "--trials", "50"
        )
        assert (code, out) == (2, "")
        assert err == "error: cannot write --out '/dev/full': No space left on device\n"

    def test_failing_trials_exit_one_with_a_reproducer_each(self, capsys, tmp_path, monkeypatch):
        # The fuzzer looks each check up by name, so this stand-in fails
        # trials 1, 4 and 5 of every run of eight.
        check = inequalities.product_bound
        calls = itertools.count()

        def flaky(*args, **kwargs):
            report = check(*args, **kwargs)
            return dataclasses.replace(report, passed=next(calls) % 8 not in (1, 4, 5))

        monkeypatch.setattr(inequalities, "product_bound", flaky)
        path = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys, "--nodes", "16", "--seed", "40", "--out", str(path),
            "fuzz", "--theorem", "T33", "--trials", "8",
        )
        seeds = (41, 44, 45)
        assert code == 1
        assert "failures 3" in out.splitlines()
        reproducers = out.splitlines()[-3:]
        assert reproducers == [
            f"reproduce with: hadafrac --nodes 16 --seed {seed} fuzz --theorem T33 --trials 1"
            for seed in seeds
        ]
        rows = path.read_text().splitlines()[1:]
        failing = [row.split(",") for row in rows if row.endswith(",false")]
        assert [int(row[6]) for row in failing] == list(seeds)
        summary = run_fuzz(FuzzConfig("T33", trials=8, master_seed=40, nodes=16))
        assert summary.failed_seeds == seeds
        assert (summary.passes, summary.failures) == (5, 3)
        # Each printed command replays its trial: the same lhs and bound, bit for bit.
        for line, row in zip(reproducers, failing):
            program, *argv = shlex.split(line.removeprefix("reproduce with: "))
            assert program == "hadafrac"
            replay = tmp_path / "replay.csv"
            run_cli(capsys, "--out", str(replay), *argv)
            (replayed,) = [r.split(",") for r in replay.read_text().splitlines()[1:]]
            assert replayed[6:9] == row[6:9]


class TestExitCodes:
    def test_over_deep_expression_is_two(self, capsys):
        code, out, err = run_cli(capsys, "integrate", "(" * 200 + "x" + ")" * 200, "0.5", "2")
        assert code == 2
        assert "deeper than" in err
        assert out == ""

    def test_parse_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "1+", "1.0", "2.0")
        assert code == 2
        assert "error:" in err

    def test_eval_fault_is_two(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "ln(x-2)", "1.0", "4.0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ["integrate", "1e999*0", "0.5", "2"],
        ["derive", "1e999*0", "0.5", "2"],
        ["semigroup", "x + 1e400", "0.5", "0.5", "2"],
        ["integrate", "1e999", "0.5", "2"],
    ])
    def test_nonfinite_literal_is_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: number ") and err.count("\n") == 1
        assert out == ""

    def test_divergent_integrand_is_three(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "1/(x-1)", "1.0", "2.0")
        assert code == 3
        assert "quadrature failure" in err

    def test_integral_gate_is_relative_below_one(self, capsys):
        # Prints 0.000002553621057 under an absolute gate (estimate 9.97e-7);
        # the exact value is 3.5720598e-06.
        argv = ("--nodes", "3", "integrate", "x^6.9046", "20", "44.4362")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "did not converge" in err
        assert out == ""

    def test_semigroup_overflow_is_three(self, capsys):
        code, out, err = run_cli(capsys, "semigroup", "1e307", "1", "0.05", "2")
        assert code == 3
        assert "quadrature failure" in err
        assert out == ""

    def test_bad_t_is_two(self, capsys):
        code, _, _ = run_cli(capsys, "integrate", "1", "1.0", "0.5")
        assert code == 2

    # The pass rule is fixed, so no tolerance is a flag.
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1e-9"])
    def test_bad_fuzz_tolerance_is_two(self, capsys, tol):
        with pytest.raises(SystemExit) as info:
            main([f"--rel-tol={tol}", "--seed", "1", "fuzz", "--theorem", "T31", "--trials", "3"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments: --rel-tol" in err
        assert "passes" not in out

    def test_too_many_nodes_is_two(self, capsys):
        code, _, err = run_cli(capsys, "--nodes", "1000000", "integrate", "1", "0.5", "2")
        assert code == 2
        assert "nodes" in err

    def test_argparse_usage_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["integrate", "1"])
        assert info.value.code == 2

    def test_unknown_theorem_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["fuzz", "--theorem", "T99"])
        assert info.value.code == 2

    def test_unknown_subcommand_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2


def run_module(*argv, stdout=subprocess.PIPE):
    """Run `python -m hadafrac.cli` on the package these tests imported."""
    path = [str(Path(hadafrac.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "hadafrac.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


class TestSubprocessInvocation:
    def test_module_entry_point(self):
        proc = run_module("integrate", "1", "0.5", E_STR)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "1.128379167095513"

    def test_module_entry_point_failure_code(self):
        proc = run_module("integrate", "oops(", "1", "2")
        assert proc.returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_standard_output_is_a_usage_error(self):
        with open("/dev/full", "w") as full:
            proc = run_module("integrate", "1", "0.5", E_STR, stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write output: No space left on device\n"

    def test_closed_pipe_is_a_usage_error(self):
        reader, writer = os.pipe()
        os.close(reader)  # the reader is gone before the first row
        try:
            proc = run_module("fuzz", "--theorem", "T31", "--trials", "3000", stdout=writer)
        finally:
            os.close(writer)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write output: Broken pipe\n"

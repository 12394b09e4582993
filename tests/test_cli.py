"""Tests for the command-line interface: output format, exit codes,
CSV determinism, and the HADAFRAC_SEED environment default."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hadafrac
from hadafrac.cli import main
from hadafrac.fuzzing import CSV_HEADER

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

    def test_env_seed_default(self, capsys, tmp_path, monkeypatch):
        via_env = tmp_path / "env.csv"
        via_flag = tmp_path / "flag.csv"
        monkeypatch.setenv("HADAFRAC_SEED", "77")
        code, _, _ = run_cli(
            capsys, "--out", str(via_env), "fuzz", "--theorem", "T33", "--trials", "10"
        )
        assert code == 0
        monkeypatch.delenv("HADAFRAC_SEED")
        run_cli(
            capsys,
            "--seed", "77", "--out", str(via_flag),
            "fuzz", "--theorem", "T33", "--trials", "10",
        )
        assert via_env.read_bytes() == via_flag.read_bytes()

    def test_seed_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HADAFRAC_SEED", "1")
        first = tmp_path / "one.csv"
        run_cli(
            capsys,
            "--seed", "9", "--out", str(first),
            "fuzz", "--theorem", "T34", "--trials", "5",
        )
        monkeypatch.setenv("HADAFRAC_SEED", "9")
        second = tmp_path / "two.csv"
        run_cli(
            capsys, "--out", str(second), "fuzz", "--theorem", "T34", "--trials", "5"
        )
        assert first.read_bytes() == second.read_bytes()

    def test_garbage_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HADAFRAC_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "fuzz", "--theorem", "T31", "--trials", "1")
        assert code == 2
        assert "HADAFRAC_SEED" in err


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

    def test_divergent_integrand_is_three(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "1/(x-1)", "1.0", "2.0")
        assert code == 3
        assert "quadrature failure" in err

    def test_semigroup_overflow_is_three(self, capsys):
        code, out, err = run_cli(capsys, "semigroup", "1e307", "1", "0.05", "2")
        assert code == 3
        assert "quadrature failure" in err
        assert out == ""

    def test_bad_t_is_two(self, capsys):
        code, _, _ = run_cli(capsys, "integrate", "1", "1.0", "0.5")
        assert code == 2

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1e-9"])
    def test_bad_fuzz_tolerance_is_two(self, capsys, tol):
        code, out, err = run_cli(
            capsys, f"--rel-tol={tol}", "--seed", "1", "fuzz", "--theorem", "T31", "--trials", "3"
        )
        assert code == 2
        assert "rel_tol" in err
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


def run_module(*argv):
    """Run `python -m hadafrac.cli` on the package these tests imported."""
    path = [str(Path(hadafrac.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "hadafrac.cli", *argv],
        capture_output=True,
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

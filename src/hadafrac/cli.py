"""Command-line interface.

Subcommands:
  integrate   evaluate a fractional integral of an expression in x
  derive      evaluate a fractional derivative (order strictly between 0 and 1)
  powercheck  sweep the closed-form power-rule grid and report the worst error
  semigroup   compare nested against single-step integration for an expression
  fuzz        run randomized inequality trials and emit one CSV row per trial

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
parse error, 3 numerical non-convergence.  No other codes are used.

Human-readable numbers carry 15 digits; CSV rows carry 17 significant
digits and are byte-identical across runs with the same flags and seed.
The master seed of `fuzz` is --seed, 0 when not given.  Fuzz trials are
judged by the checks' fixed pass rule, which no flag changes, so a failing
trial's reproducer line needs only --nodes, --seed and --theorem.  Output
that cannot be written (an --out file that cannot be opened or filled, a
full device, a closed pipe) is a usage error.
"""

import argparse
import math
import os
import sys

import numpy as np

from .errors import DomainError, HadafracError, QuadratureError, check_real
from .expressions import as_function, parse_expr
from .fuzzing import FuzzConfig, run_fuzz
from .inequalities import TheoremId
from .operators import (
    hadamard_derivative,
    hadamard_integral,
    power_rule_integral,
    semigroup_residual,
)

POWERCHECK_TOL = 1e-10
SEMIGROUP_TOL = 1e-5

# A refinement estimate above tol * max(floor, |value|) means the value printed
# would be untrustworthy, so the command reports non-convergence instead.  The
# integral's gate is relative (floor 0); the derivative's is looser and absolute
# below |value| = 1 (floor 1): its estimate reflects finite differencing too.
INTEGRATE_CONVERGENCE_TOL = 1e-6
DERIVE_CONVERGENCE_TOL = 1e-3

_POWER_BETAS = (1.0, 1.5, 2.0, 3.0)
_POWER_ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5)
_POWER_TS = (1.5, math.e, 10.0)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hadafrac",
        description="Hadamard (log-kernel) fractional calculus toolkit",
    )
    parser.add_argument(
        "--nodes", type=int, default=64, help="quadrature nodes (default 64)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=FuzzConfig.master_seed,
        help="master seed for fuzz (default %(default)s)",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="CSV output path for fuzz"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="fractional integral of an expression")
    p_int.add_argument("expr", help="expression in x, e.g. '1 + 0.5*ln(x)'")
    p_int.add_argument("alpha", type=float, help="order, must be positive")
    p_int.add_argument("t", type=float, help="evaluation point, t >= 1")

    p_der = sub.add_parser("derive", help="fractional derivative of an expression")
    p_der.add_argument("expr", help="expression in x")
    p_der.add_argument("alpha", type=float, help="order in (0, 1)")
    p_der.add_argument("t", type=float, help="evaluation point, t > 1")

    p_pow = sub.add_parser("powercheck", help="verify the power-rule closed form")
    p_pow.add_argument(
        "--max-beta", type=float, default=3.0, help="largest log-power (default 3)"
    )
    p_pow.add_argument(
        "--max-alpha", type=float, default=1.5, help="largest order (default 1.5)"
    )

    p_semi = sub.add_parser("semigroup", help="nested vs single-step integration")
    p_semi.add_argument("expr", help="expression in x")
    p_semi.add_argument("alpha", type=float, help="outer order")
    p_semi.add_argument("beta", type=float, help="inner order")
    p_semi.add_argument("t", type=float, help="evaluation point, t >= 1")

    p_fuzz = sub.add_parser("fuzz", help="randomized inequality soundness trials")
    p_fuzz.add_argument(
        "--theorem",
        required=True,
        choices=[t.value for t in TheoremId],
        help="which inequality check to fuzz",
    )
    p_fuzz.add_argument(
        "--trials", type=int, default=FuzzConfig.trials, help="trials to run (default %(default)s)"
    )
    return parser


def _require_converged(result, tol, floor, what):
    if not result.estimated_error <= tol * max(floor, abs(result.value)):
        raise QuadratureError(
            f"{what} did not converge: estimated error {result.estimated_error:.3g} "
            f"on value {result.value:.6g} (the integrand may be singular or rough)"
        )


def _cmd_operator(args, operator, tol, floor, what):
    """integrate and derive: apply `operator` to the expression, gated at `tol`."""
    f = as_function(parse_expr(args.expr))
    result = operator(f, args.alpha, args.t, nodes=args.nodes)
    _require_converged(result, tol, floor, what)
    print("%.15f" % result.value)
    print("estimated error %.3g" % result.estimated_error)
    return 0


def _cmd_powercheck(args):
    max_beta = check_real("--max-beta", args.max_beta)
    max_alpha = check_real("--max-alpha", args.max_alpha)
    betas = [beta for beta in _POWER_BETAS if beta <= max_beta]
    alphas = [alpha for alpha in _POWER_ALPHAS if alpha <= max_alpha]
    if not betas or not alphas:
        raise DomainError(
            f"powercheck ranges must be positive and select a grid case: "
            f"--max-beta >= {_POWER_BETAS[0]:g} and --max-alpha >= {_POWER_ALPHAS[0]:g}"
        )
    worst = 0.0
    cases = 0
    for beta in betas:
        for alpha in alphas:
            for t in _POWER_TS:
                exact = power_rule_integral(beta, alpha, t)
                f = _log_power(beta)
                got = hadamard_integral(
                    f,
                    alpha,
                    t,
                    nodes=args.nodes,
                    estimate_error=False,
                    endpoint_exponent=beta - 1.0,
                ).value
                worst = max(worst, abs(got - exact) / abs(exact))
                cases += 1
    print("%d cases, max relative error %.3g" % (cases, worst))
    return 0 if worst < POWERCHECK_TOL else 1


def _log_power(beta):
    return lambda tau: np.log(tau) ** (beta - 1.0)


def _cmd_semigroup(args):
    f = as_function(parse_expr(args.expr))
    residual = semigroup_residual(f, args.alpha, args.beta, args.t, n=args.nodes)
    print("%.15g" % residual)
    return 0 if residual < SEMIGROUP_TOL else 1


def _cmd_fuzz(args):
    config = FuzzConfig(
        theorem_id=args.theorem,
        trials=args.trials,
        master_seed=args.seed,
        nodes=args.nodes,
    )
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                summary = run_fuzz(config, csv_file=fh)
        except OSError as exc:
            raise DomainError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
        report_to = sys.stdout
    else:
        summary = run_fuzz(config, csv_file=sys.stdout)
        report_to = sys.stderr
    print("trials %d" % summary.trials_run, file=report_to)
    print("passes %d" % summary.passes, file=report_to)
    print("failures %d" % summary.failures, file=report_to)
    print("worst ratio %.15f" % summary.worst_ratio, file=report_to)
    print("worst seed %d" % summary.worst_seed, file=report_to)
    print("wall time %.2f s" % summary.wall_time, file=report_to)
    for seed in summary.failed_seeds:
        print(
            "reproduce with: hadafrac --nodes %d --seed %d fuzz --theorem %s --trials 1"
            % (config.nodes, seed, config.theorem_id.value),
            file=report_to,
        )
    return 1 if summary.failures else 0


# Operators are looked up at call time, so a wrapper bound to their names sees every call.
_COMMANDS = {
    "integrate": lambda args: _cmd_operator(
        args, hadamard_integral, INTEGRATE_CONVERGENCE_TOL, 0.0, "integral"
    ),
    "derive": lambda args: _cmd_operator(
        args, hadamard_derivative, DERIVE_CONVERGENCE_TOL, 1.0, "derivative"
    ),
    "powercheck": _cmd_powercheck,
    "semigroup": _cmd_semigroup,
    "fuzz": _cmd_fuzz,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a failing write shows here, not at interpreter exit
        return code
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except HadafracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # standard output is full, or its reader has gone
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        # What stays buffered goes nowhere, so the flush at exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())

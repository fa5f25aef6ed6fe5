"""Command-line front end: solve, verify and plot problem files.

Exit codes: 0 for an optimal (or agreeing) result, 1 for an infeasible
instance or an oracle disagreement, 2 for input errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .errors import DomainError, GridGuardError, TroptError
from .linalg import tmatrix
from .oracle import GridSpec, _finite_data, brute_force_min, default_grid, exact_min
from .probfile import dump_json, format_number, load_problem, report_dict, solve_parsed
from .semifield import SEMIFIELDS
from .solve import InfeasibilityReport, contains
from .svg import render_svg

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``tropt`` parser, built on the first call and shared after it.

    ``parse_args`` reads the parser and never changes it, so one parser
    serves every :func:`main` call of a process.
    """
    parser = argparse.ArgumentParser(
        prog="tropt",
        description="Closed-form solvers for constrained optimization over idempotent semifields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--semifield", choices=sorted(SEMIFIELDS),
                       help="override the file's semifield tag")
        p.add_argument("--out", help="write output here instead of stdout")

    p_solve = sub.add_parser("solve", help="solve a problem file and report the solution")
    common(p_solve)

    p_verify = sub.add_parser("verify", help="cross-check the solver against an oracle")
    common(p_verify)
    p_verify.add_argument("--epsilon", type=float, default=None,
                          help="comparison tolerance: absolute in max-plus/min-plus, relative "
                               "in max-times/min-times; 0 is exact (default: 1e-9; "
                               "env TROPT_EPSILON)")
    p_verify.add_argument("--grid-step", type=float, help="grid step (default: 0.5)")
    p_verify.add_argument("--grid-lo", help="comma-separated lower grid bounds")
    p_verify.add_argument("--grid-hi", help="comma-separated upper grid bounds")

    p_plot = sub.add_parser("plot", help="render a 2-D instance and its solution as SVG")
    common(p_plot)
    return parser


def _epsilon(args) -> float | None:
    raw, name = args.epsilon, "--epsilon"
    if raw is None:
        raw, name = os.environ.get("TROPT_EPSILON"), "TROPT_EPSILON"
        if not raw:
            return None
    try:
        eps = float(raw)
    except ValueError:
        raise TroptError(f"{name}: expected a number, got {raw!r}") from None
    if not 0 <= eps < math.inf:
        raise TroptError(f"{name}: the tolerance must be finite and at least 0, got {raw}")
    return eps


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_bound(raw: str | None, n: int, name: str):
    if raw is None:
        return None
    try:
        vals = [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise TroptError(f"{name}: expected comma-separated numbers, got {raw!r}") from exc
    if len(vals) != n:
        raise TroptError(f"{name}: expected {n} values, got {len(vals)}")
    return np.array(vals)


def _cmd_solve(args) -> int:
    parsed = load_problem(args.file, semifield_override=args.semifield)
    result = solve_parsed(parsed)
    _emit(dump_json(report_dict(result, parsed)), args.out)
    return 1 if isinstance(result, InfeasibilityReport) else 0


def _grid(args, inst) -> GridSpec | None:
    """The grid that ``verify`` scans, or None to ask :func:`exact_min`.

    A ``--grid-*`` option or a times semifield takes the grid, and so
    does integer data at n <= 3 whose default grid passes the guard: the
    grid is exact there.  Every other file goes to the exact oracle.
    """
    lo = _parse_bound(args.grid_lo, inst.n, "--grid-lo")
    hi = _parse_bound(args.grid_hi, inst.n, "--grid-hi")
    if (lo is None) != (hi is None):
        raise TroptError("--grid-lo and --grid-hi must be given together")
    step = 0.5 if args.grid_step is None else args.grid_step
    if lo is not None:
        return GridSpec(lo, hi, step)
    if args.grid_step is not None or inst.sf.times:
        return default_grid(inst, step)
    if inst.n <= 3 and (_finite_data(inst) % 1 == 0).all():
        try:
            return default_grid(inst)
        except GridGuardError:
            pass
    return None


def _cmd_verify(args) -> int:
    parsed = load_problem(args.file, semifield_override=args.semifield)
    eps = _epsilon(args)
    inst = parsed.instance
    result = solve_parsed(parsed)
    grid = _grid(args, inst)
    if grid is None:
        try:
            oracle = exact_min(inst)
        except DomainError:  # data too wide once scaled: the default grid answers
            grid = default_grid(inst)
    if grid is None:
        report: dict = {"status": None, "oracle": "exact"}
    else:
        oracle = brute_force_min(inst, grid, eps=eps)
        report = {"status": None, "grid_points": grid.point_count()}
    if isinstance(result, InfeasibilityReport):
        report["solver"] = report_dict(result)
        agree = oracle.empty
        if grid is not None:
            report["oracle_feasible_points"] = oracle.feasible_count
        found = (f"theta = {oracle.min_value.value}" if grid is None and not agree
                 else f"{oracle.feasible_count} feasible points")
        report["status"] = "agree" if agree else "disagree"
        report["summary"] = (
            "agree: infeasible" if agree else f"disagree: solver infeasible but oracle found {found}"
        )
        code = 1
    else:
        theta = result.theta
        agree = (not oracle.empty) and oracle.min_value.eq(theta, eps)
        report["solver_theta"] = theta.value
        report["oracle_min"] = None if oracle.empty else oracle.min_value.value
        if grid is None:  # the ends may hold the semifield zero, which contains rejects
            ends = np.concatenate((result.x_lo.data, result.x_hi.data), axis=1)
            members = agree and bool(inst.sf.eq(np.transpose(oracle.argmins), ends, eps).all())
            report["ends_agree"] = members
        else:
            members = agree and contains(
                result, inst, tmatrix(inst.sf, np.transpose(oracle.argmins)), eps
            )
            report["argmin_count"] = len(oracle.argmins)
            report["argmins_contained"] = members
        ok = agree and members
        report["status"] = "agree" if ok else "disagree"
        report["summary"] = (
            f"agree: theta = {format_number(theta.value)}" if ok
            else f"disagree: solver theta = {theta.value}, oracle = "
                 f"{None if oracle.empty else oracle.min_value.value}"
        )
        code = 0 if ok else 1
    _emit(dump_json(report), args.out)
    return code


def _cmd_plot(args) -> int:
    parsed = load_problem(args.file, semifield_override=args.semifield)
    result = solve_parsed(parsed)
    if isinstance(result, InfeasibilityReport):
        _emit(dump_json(report_dict(result)), None)
        return 1
    _emit(render_svg(parsed, result), args.out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_plot(args)
    except (TroptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: seeded operation pools and their output checks.

An operation has ``run()``, the timed call into tropt, and ``check(result)``,
an untimed comparison with a reference the call does not compute: the
planted optimum, a second solver path, or a golden value.  ``exact`` marks operations whose data make the closed
forms exact (integers, or powers of two in the times semifields); a miss on
one of those is a wrong answer, not float drift.

Calls go through module attributes (``S.solve_general``, not an imported
name) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tropt.cli as CLI
import tropt.linalg as LA
import tropt.location as L
import tropt.oracle as O
import tropt.probfile as PF
import tropt.semifield as SF
import tropt.solve as S
import tropt.svg as SVG

from gen import BOUNDS, CYCLE, TAGS, bounded_raw, plant, pow2_raw, slack_sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

KINDS = ("unconstrained", "linear", "box", "general")


def same(sf, a: float, b: float, exact: bool) -> bool:
    """Equality, or agreement to 1e-9 (relative, or absolute below 1) for float data."""
    if a == b or exact:
        return a == b
    scale = max(abs(a), abs(b)) if sf.times else max(abs(a), abs(b), 1.0)
    return abs(a - b) <= 1e-9 * scale


def above_one(sf, value: float) -> bool:
    return not bool(sf.leq(value, sf.one))


def instance(tag: str, vals: dict) -> S.ProblemInstance:
    sf = SF.by_tag(tag)
    vec = lambda v: None if v is None else LA.tvector(sf, v)
    B = None if vals["B"] is None else LA.tmatrix(sf, vals["B"])
    return S.ProblemInstance(sf, vec(vals["p"]), vec(vals["q"]), g=vec(vals["g"]),
                             h=vec(vals["h"]), B=B)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class SolveOp:
    """One ``solve_*`` call, checked against the planted optimum."""

    kind: str
    inst: S.ProblemInstance
    theta: float
    reason: str | None
    exact: bool

    def run(self):
        i = self.inst
        if self.kind == "unconstrained":
            return S.solve_unconstrained(i.p, i.q)
        if self.kind == "linear":
            return S.solve_linear_constrained(i.B, i.p, i.q)
        if self.kind == "box":
            return S.solve_box_constrained(i.p, i.q, i.g, i.h)
        return S.solve_general(i.B, i.p, i.q, i.g, i.h)

    def check(self, res) -> bool:
        sf = self.inst.sf
        if self.reason is not None:
            return (isinstance(res, S.InfeasibilityReport) and res.reason.value == self.reason
                    and above_one(sf, res.detail.value))
        return (isinstance(res, S.SolutionSet)
                and same(sf, res.theta.value, self.theta, self.exact)
                and S.contains(res, self.inst, res.x_lo)
                and S.contains(res, self.inst, res.x_hi))


@dataclass
class LocationOp:
    """``solve_location``, checked against ``solve_general`` on the same problem."""

    inst: L.LocationInstance
    reason: str | None
    exact: bool
    kind: str = "location"

    def run(self):
        return L.solve_location(self.inst)

    def check(self, res) -> bool:
        sf = SF.MAX_PLUS
        general = L.to_general_problem(self.inst)
        ref = S.solve_instance(general)
        if self.reason is not None:
            return (isinstance(res, S.InfeasibilityReport) and isinstance(ref, S.InfeasibilityReport)
                    and res.reason.value == ref.reason.value == self.reason
                    and same(sf, res.detail.value, ref.detail.value, self.exact))
        if not (isinstance(res, L.LocationSolution) and isinstance(ref, S.SolutionSet)):
            return False
        ends = ((res.x_lower, ref.x_lo), (res.x_upper, ref.x_hi))
        return (same(sf, res.theta, ref.theta.value, self.exact)
                and all(same(sf, a, b, self.exact)
                        for mine, theirs in ends for a, b in zip(mine, theirs.column_values()))
                and all(S.contains(ref, general, LA.tvector(sf, mine)) for mine, _ in ends))


@dataclass
class OracleOp:
    """Solve, scan the grid with ``brute_force_min``, then ``contains`` every argmin."""

    inst: S.ProblemInstance
    grid: O.GridSpec | None  # None: default_grid (plus semifields)
    theta: float
    reason: str | None
    exact: bool = True
    kind: str = "oracle"

    def run(self):
        sol = S.solve_instance(self.inst)
        grid = self.grid if self.grid is not None else O.default_grid(self.inst)
        found = O.brute_force_min(self.inst, grid)
        members = []
        if isinstance(sol, S.SolutionSet):
            sf = self.inst.sf
            members = [S.contains(sol, self.inst, LA.tvector(sf, x)) for x in found.argmins]
        return sol, found, members

    def check(self, res) -> bool:
        sol, found, members = res
        if self.reason is not None:
            return (isinstance(sol, S.InfeasibilityReport) and sol.reason.value == self.reason
                    and found.empty)
        return (isinstance(sol, S.SolutionSet) and sol.theta.value == self.theta
                and not found.empty and found.min_value.eq(sol.theta)
                and len(members) > 0 and all(members))


@dataclass
class CliOp:
    """One ``tropt`` command through ``tropt.cli.main``, checked against expected output.

    ``expect`` holds the exit code and either the status and theta the JSON
    report must carry or the exact SVG text.
    """

    argv: list
    expect: dict
    kind: str
    exact: bool = True

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = CLI.main(self.argv)
        return code, out.getvalue()

    def check(self, res) -> bool:
        code, stdout = res
        want = self.expect
        if code != want["code"]:
            return False
        if "svg" in want:
            ET.fromstring(stdout)
            return stdout == want["svg"]
        report = json.loads(stdout)
        if report.get("status") != want["status"]:
            return False
        if "reason" in want and report.get("reason") != want["reason"]:
            return False
        got = report.get("solver_theta", report.get("theta"))
        return "theta" not in want or got == want["theta"]


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------


def _draw(rng, integer: bool, n: int, theta_hi: float, x_hi: float, slack_hi: float):
    if integer:
        theta = float(rng.integers(1, int(theta_hi) + 1))
        x = rng.integers(-int(x_hi), int(x_hi) + 1, size=n).astype(np.float64)
        delta = 1.0
    else:
        theta = rng.uniform(0.5, theta_hi)
        x = rng.uniform(-x_hi, x_hi, size=n)
        delta = rng.uniform(0.5, 2.0)
    return theta, x, slack_sampler(rng, integer, slack_hi), delta


def small_mixed(seed: int, workdir: str) -> list:
    """1600 operations: eight times every n in {2,3,4,6,8} x kind x semifield x (integer, real).

    The shape of each operation is fixed by its index, so only values depend
    on the seed.  Every eighth operation of a kind that can be infeasible
    (160 of 1600) is planted infeasible.  The pool is that large so that the
    share of real-valued operations that fail varies little from seed to seed.
    """
    rng = np.random.default_rng(seed)
    ns = (2, 3, 4, 6, 8)
    kinds = KINDS + ("location",)
    ops = []
    capable = 0
    for k in range(1600):
        i = k % 200
        n, kind = ns[i % 5], kinds[(i // 5) % 5]
        tag, integer = TAGS[(i // 25) % 4], i < 100
        reason = None
        if kind != "unconstrained":
            capable += 1
            if capable % 8 == 0:
                reason = {"linear": CYCLE, "box": BOUNDS}.get(kind, (CYCLE, BOUNDS)[capable // 8 % 2])
        theta, x, slack, delta = _draw(rng, integer, n, 5, 5, 3)
        parts = {
            "unconstrained": {},
            "linear": dict(B_density=0.5),
            "box": dict(g_density=1.0, with_h=True),
            "general": dict(B_density=0.5, g_density=0.7, with_h=i % 2 == 0),
            "location": dict(B_density=0.5, g_density=0.5, with_h=i % 2 == 0),
        }[kind]
        raw = plant(rng, x, theta, slack, infeasible=reason, delta=delta, **parts)
        if kind == "location":
            m = 3 + i % 3
            if integer:
                pts = rng.integers(-10, 11, size=(m, n)).astype(np.float64)
                w = rng.integers(1, 4, size=m).astype(np.float64)
            else:
                pts, w = rng.uniform(-10, 10, size=(m, n)), rng.uniform(0.5, 3, size=m)
            ops.append(LocationOp(L.LocationInstance(pts, w, B=raw.B, g=raw.g, h=raw.h),
                                  reason, integer))
            continue
        vals = raw.values(tag)
        ops.append(SolveOp(kind, instance(tag, vals), vals["theta"], reason, integer))
    return ops


def closure_large(seed: int, workdir: str) -> list:
    """100 general problems with dense B: 30 at n = 48, 59 at n = 64 and 11 at
    n = 96, alternating max-plus and min-plus.  Every fifth has one planted
    positive cycle (20%); those stop before ``star`` and run faster.  The
    shares put p50 among the feasible n = 64 problems and p90 on the
    fastest n = 96 problem, well apart from the n = 64 class; the n = 96
    class is kept small because it takes most of a round."""
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(100):
        n = 48 if k < 30 else 64 if k < 89 else 96
        tag = ("max-plus", "min-plus")[k % 2]
        reason = CYCLE if k % 5 == 4 else None
        theta, x, slack, delta = _draw(rng, True, n, 5, 20, 3)
        raw = plant(rng, x, theta, slack, B_density=1.0, g_density=1.0, with_h=True,
                    infeasible=reason, delta=delta)
        vals = raw.values(tag)
        ops.append(SolveOp("general", instance(tag, vals), vals["theta"], reason, True))
    return ops


def _times_grid(n: int, per_axis: int) -> O.GridSpec:
    return O.GridSpec(np.ones(n), np.full(n, float(per_axis)), 1.0)


# (semifield, kind, planted infeasibility) of the n = 2 oracle problems, in turn
_SMALL_ORACLE = (("max-plus", "unconstrained", None), ("min-plus", "box", None),
                 ("max-times", "linear", None), ("min-times", "general", None),
                 ("max-plus", "general", BOUNDS), ("min-plus", "linear", CYCLE),
                 ("max-times", "box", None), ("min-times", "unconstrained", None))


def oracle_verify(seed: int, workdir: str) -> list:
    """100 solve + brute-force + contains operations, by grid size:

    * 20 with n = 2 and up to 101^2 = 10201 points: every kind and
      semifield, a fifth planted infeasible;
    * 68 with n = 3 and 29^3 = 24389 points, B present, all semifields;
    * 12 with n = 3, B present, times semifields: 11 with 64^3 = 262144
      points and one with 100^3 = 10^6 points.

    The shares put p50 in the middle of the 29^3 class, whose cost varies
    with the number of argmins, and p90 inside the 64^3 class.  The
    10^6-point scan sets ``peak_rss_mb``; there is one, so that a round
    stays short and each operation gets about five tries in a run.
    Plus semifields use ``default_grid``: the largest magnitude is pinned to
    d = 8 (n = 2) or 2 (n = 3), so the grid has 12 d + 5 points per
    unbounded axis.  Times semifields use an explicit integer grid from 1
    that holds the planted powers-of-two optimizer.
    """
    rng = np.random.default_rng(seed)
    parts_of = {
        "unconstrained": {},
        "linear": dict(B_density=0.7),
        "box": dict(g_density=1.0, with_h=True),
        "general": dict(B_density=0.7, g_density=1.0, with_h=True),
    }
    slots = [(2, tag, parts_of[kind], reason, 8, 101)
             for tag, kind, reason in (_SMALL_ORACLE[k % 8] for k in range(20))]
    slots += [(3, TAGS[k % 4], dict(B_density=0.7), None, 2, 29) for k in range(68)]
    slots += [(3, ("max-times", "min-times")[k % 2], dict(B_density=0.7), None, None,
               64 if k < 11 else 100) for k in range(12)]
    ops = []
    for n, tag, parts, reason, d, per_axis in slots:
        if SF.by_tag(tag).times:
            raw = pow2_raw(rng, n, int(np.log2(per_axis)), tag, infeasible=reason, **parts)
            grid = _times_grid(n, per_axis)
        else:
            raw = bounded_raw(rng, n, d, infeasible=reason, **parts)
            grid = None
        vals = raw.values(tag)
        ops.append(OracleOp(instance(tag, vals), grid, vals["theta"], reason))
    return ops


# golden optima of the committed worked examples (the paper's 2-D instance)
GOLDEN = {"unconstrained": 9, "box": 14, "linear": 11, "general": 14, "location": 14}
CLI_COMMANDS = 100


def _json_num(v: float):
    if np.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return int(v) if v == int(v) else float(v)


def _write_problem(path: str, doc: dict) -> None:
    conv = lambda v: [_json_num(a) for a in v] if np.ndim(v) == 1 else [conv(r) for r in v]
    out = {k: (conv(v) if isinstance(v, np.ndarray) else v) for k, v in doc.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def _seeded_file(rng, k: int, workdir: str):
    """Seeded problem file number k; returns (path, n, theta, reason).

    Kinds and semifields go in turn; every seventh file is planted
    infeasible.  Data stay small so that ``verify`` grids hold at most
    about 10^4 (n = 2) or 41^3 = 68921 (n = 3) points.
    """
    kind = ("unconstrained", "linear", "box", "general", "location")[k % 5]
    tag = "max-plus" if kind == "location" else ("max-plus", "min-plus")[k // 5 % 2]
    reason = None
    if k % 7 == 6 and kind != "unconstrained":
        reason = {"linear": CYCLE, "box": BOUNDS}.get(kind, (CYCLE, BOUNDS)[k % 2])
    # a planted cycle can exceed the n = 3 magnitude cap, so those stay at n = 2
    n = 2 if kind == "location" or reason or k % 3 else 3
    parts = {"unconstrained": {}, "linear": dict(B_density=0.7),
             "box": dict(g_density=1.0, with_h=True),
             "general": dict(B_density=0.5, g_density=1.0, with_h=True),
             "location": dict(B_density=0.5, g_density=1.0, with_h=True)}[kind]
    if n == 3:
        raw = bounded_raw(rng, 3, 3, infeasible=reason, **parts)
    else:
        theta, x, slack, _ = _draw(rng, True, 2, 3, 4, 2)
        raw = plant(rng, x, theta, slack, infeasible=reason, **parts)
    path = os.path.join(workdir, f"seeded{k}.json")
    if kind == "location":
        loc = L.LocationInstance(rng.integers(-6, 7, size=(4, 2)).astype(np.float64),
                                 rng.integers(1, 3, size=4).astype(np.float64),
                                 B=raw.B, g=raw.g, h=raw.h)
        _write_problem(path, {"problem": "location", "points": loc.points,
                              "weights": loc.weights, "B": loc.B, "g": loc.g, "h": loc.h})
        # the expected answer comes from the general solver, not the location path
        ref = S.solve_instance(L.to_general_problem(loc))
        theta = None if reason else ref.theta.value
        return path, n, theta, reason
    vals = raw.values(tag)
    doc = {"problem": kind, "semifield": tag, "p": vals["p"], "q": vals["q"]}
    doc.update({key: vals[key] for key in ("g", "h", "B") if vals[key] is not None})
    _write_problem(path, doc)
    return path, n, None if reason else vals["theta"], reason


def cli(seed: int, workdir: str) -> list:
    """100 commands: solve, verify and plot each committed example, then solve,
    verify and (for feasible n = 2 files) plot seeded files until 100."""
    rng = np.random.default_rng(seed)
    files = [(os.path.join(ROOT, "problems", f"{k}.json"), 2, float(v), None)
             for k, v in GOLDEN.items()]
    ops = []
    k = 0
    while len(ops) < CLI_COMMANDS:
        if k >= len(files):
            files.append(_seeded_file(rng, k - len(GOLDEN), workdir))
        path, n, theta, reason = files[k]
        k += 1
        if reason is None:
            ops.append(CliOp(["solve", path], dict(code=0, status="optimal", theta=theta), "solve"))
            ops.append(CliOp(["verify", path], dict(code=0, status="agree", theta=theta), "verify"))
        else:
            ops.append(CliOp(["solve", path], dict(code=1, status="infeasible", reason=reason),
                             "solve"))
            ops.append(CliOp(["verify", path], dict(code=1, status="agree"), "verify"))
        if n == 2 and reason is None:
            parsed = PF.load_problem(path)
            svg = SVG.render_svg(parsed, PF.solve_parsed(parsed))
            ops.append(CliOp(["plot", path], dict(code=0, svg=svg), "plot"))
    return ops[:CLI_COMMANDS]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    warmup: Callable  # pool -> the operations run once, untimed, during set-up


def _first_of_each(key):
    def pick(ops):
        seen, out = set(), []
        for op in ops:
            if key(op) not in seen:
                seen.add(key(op))
                out.append(op)
        return out
    return pick


WORKLOADS = {
    w.name: w for w in (
        # the first 200 operations hold one of every shape
        Workload("small-mixed", small_mixed, lambda ops: ops[:200]),
        Workload("closure-large", closure_large, _first_of_each(lambda op: op.inst.n)),
        Workload("oracle-verify", oracle_verify,
                 _first_of_each(lambda op: (op.inst.n, op.grid is None))),
        Workload("cli", cli, _first_of_each(lambda op: op.kind)),
    )
}

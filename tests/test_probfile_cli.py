import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tropt as t
from tropt.cli import _build_parser, main
from tropt.errors import ProblemFileError
from tropt.probfile import (
    dump_json,
    load_problem,
    parse_problem,
    report_dict,
    solve_parsed,
)
from tropt.svg import render_svg

from conftest import PARTS, planted

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


class TestParsing:
    def test_all_shipped_files_parse(self):
        for path in sorted(PROBLEMS.glob("*.json")):
            parsed = load_problem(path)
            assert parsed.problem_type == path.stem

    def test_inf_literals(self):
        doc = {
            "problem": "general",
            "p": [0, 1],
            "q": [0, 0],
            "B": [["-inf", -2], [0, "-inf"]],
        }
        parsed = parse_problem(doc)
        assert parsed.instance.B[0, 0] == -math.inf

    def test_number_subclasses_are_numbers(self):
        # json gives plain ints and floats; a document built in Python may hold
        # their subclasses, which take the checked path
        Int, Float = type("Int", (int,), {}), type("Float", (float,), {})
        parsed = parse_problem({"problem": "unconstrained", "p": [Int(3), Float(0.5)],
                                "q": [0, 0]})
        assert parsed.instance.p.column_values().tolist() == [3.0, 0.5]

    def test_semifield_default_and_override(self):
        doc = {"problem": "unconstrained", "p": [1], "q": [-1]}
        assert parse_problem(doc).instance.sf is t.MAX_PLUS
        assert parse_problem(doc, semifield_override="min-plus").instance.sf is t.MIN_PLUS

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ([1, 2], "expected a JSON object"),
            ({"problem": "bogus"}, "field 'problem'"),
            ({"problem": "box", "p": [1], "q": [1], "g": [1]}, "'h': required"),
            ({"problem": "unconstrained", "p": [1], "q": [1], "B": [[0]]}, "not expected"),
            ({"problem": "unconstrained", "p": [1], "q": "x"}, "expected a non-empty array"),
            ({"problem": "unconstrained", "p": [1], "q": [True]}, "expected a number"),
            ({"problem": "unconstrained", "p": [1], "q": ["oops"]}, "expected a number"),
            ({"problem": "linear", "p": [1, 2], "q": [1, 2], "B": [[0, 0], [0]]}, "ragged"),
            ({"problem": "unconstrained", "semifield": "nope", "p": [1], "q": [1]}, "unknown tag"),
            ({"problem": "location", "semifield": "min-plus",
              "points": [[0, 0]], "weights": [1]}, "max-plus only"),
            ({"problem": "location", "points": [[0, 0]], "weights": [1, 2]},
             "one weight per point"),
            ({"problem": "box", "p": [1, 2], "q": [1], "g": [1, 2], "h": [1, 2]},
             "column vector of length"),
            ({"problem": "linear", "p": [1], "q": [1], "B": 0}, "'B': expected a non-empty array"),
        ],
    )
    def test_diagnostics(self, doc, fragment):
        with pytest.raises(ProblemFileError, match=re.escape(fragment)):
            parse_problem(doc)

    def test_invalid_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "problem": oops\n}\n')
        with pytest.raises(ProblemFileError, match="line 2"):
            load_problem(bad)


class TestReports:
    def test_solution_report(self):
        parsed = load_problem(PROBLEMS / "general.json")
        rep = report_dict(solve_parsed(parsed))
        assert rep["status"] == "optimal"
        assert rep["theta"] == 14
        assert rep["u_lo"].tolist() == [2, 0]
        assert rep["u_hi"].tolist() == [2, 6]

    def test_infeasible_report(self, mp):
        rep = report_dict(
            t.solve_box_constrained(
                t.tvector(mp, [0, 0]), t.tvector(mp, [0, 0]),
                t.tvector(mp, [3, 0]), t.tvector(mp, [1, 5]),
            )
        )
        assert rep == {"status": "infeasible", "reason": "BoundsIncompatible", "detail": 2}

    def test_json_rendering(self):
        text = dump_json({"a": -math.inf, "b": 2.0, "c": [True, 0.25], "d": 1e300})
        doc = json.loads(text)
        assert doc == {"a": "-inf", "b": 2, "c": [True, 0.25], "d": 1e300}
        assert '"b": 2,' in text  # integral floats drop the decimal point


class TestCliSolve:
    def test_solve_optimal(self, capsys):
        code = main(["solve", str(PROBLEMS / "general.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "optimal" and doc["theta"] == 14

    def test_solve_location(self, capsys):
        code = main(["solve", str(PROBLEMS / "location.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta"] == 14
        assert doc["p"] == [3, 14] and doc["q"] == [-12, -4]

    def test_solve_infeasible_exit_1(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({
            "problem": "box", "p": [0, 0], "q": [0, 0], "g": [3, 0], "h": [1, 5],
        }))
        code = main(["solve", str(f)])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["status"] == "infeasible"

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content, line", [
        (b'{"problem": "unconstrained", "p": [1' + b"0" * 400 + b'], "q": [0]}',
         "error: field 'p'[0]: integer outside the float range"),
        (b'\xff{"problem": "unconstrained", "p": [1], "q": [0]}',
         "error: {f}: not UTF-8 text at byte 0"),
        (b"[" * 100_000 + b"]" * 100_000, "error: {f}: JSON nested too deep"),
    ], ids=["integer-beyond-floats", "not-utf-8", "nested-too-deep"])
    def test_unreadable_file_exit_2(self, content, line, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_bytes(content)
        assert main(["solve", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [line.format(f=f)]

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"problem": "box"}')
        assert main(["solve", str(f)]) == 2
        assert "required" in capsys.readouterr().err

    def test_semifield_override(self, tmp_path, capsys):
        # the same numbers read as min-plus give a different optimum
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"problem": "unconstrained", "p": [3, 14], "q": [12, 4]}))
        assert main(["solve", str(f), "--semifield", "min-plus"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # min-plus theta: min over (q_i^-1 p_i) halved, here (3-12)/2 etc.
        assert doc["theta"] == -4.5

    def test_out_file(self, tmp_path):
        dest = tmp_path / "report.json"
        assert main(["solve", str(PROBLEMS / "box.json"), "--out", str(dest)]) == 0
        assert json.loads(dest.read_text())["theta"] == 14


# B, g and h meet only up to rounding: 0.1 + 0.2 - 0.3 is +5.55e-17 in floats
ROUNDING_MEETS = {
    "2-D box": {
        "problem": "location", "points": [[0, 0], [2, 1]], "weights": [1, 1],
        "B": [["-inf", 0.1], ["-inf", "-inf"]], "g": ["-inf", 0.2], "h": [0.3, 10],
    },
    "3-D cycle": {
        "problem": "location", "points": [[0, 0, 0], [2, 1, 3.1]], "weights": [1, 1],
        "B": [["-inf", 0.1, "-inf"], ["-inf", "-inf", 0.2], [-0.3, "-inf", "-inf"]],
    },
}


def _inf_literals(values):
    return [v if math.isfinite(v) else "-inf" for v in values]


def _random_location_file(rng):
    """An integer location document, with B, g and h each present or not."""
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    doc = {
        "problem": "location",
        "points": rng.integers(-6, 7, size=(m, n)).tolist(),
        "weights": rng.integers(0, 4, size=m).tolist(),
    }
    if rng.random() < 0.6:
        B = rng.integers(-6, 2, size=(n, n)).astype(float)
        B[rng.random((n, n)) < 0.5] = -math.inf
        doc["B"] = [_inf_literals(row) for row in B]
    if rng.random() < 0.5:
        g = rng.integers(-6, 4, size=n).astype(float)
        g[rng.random(n) < 0.3] = -math.inf
        doc["g"] = _inf_literals(g)
    if rng.random() < 0.5:
        doc["h"] = rng.integers(-3, 9, size=n).tolist()
    return doc


def _location_report(inst: t.LocationInstance) -> dict:
    """The report of the location module's own solver, in report_dict's layout."""
    sol = t.solve_location(inst)
    if isinstance(sol, t.InfeasibilityReport):
        return report_dict(sol)
    return {
        "status": "optimal", "theta": sol.theta, "p": sol.p, "q": sol.q,
        "u_lo": sol.u_lower, "u_hi": sol.u_upper, "x_lo": sol.x_lower, "x_hi": sol.x_upper,
        "generator": sol.closure,
    }


class TestLocationFiles:
    """Every command answers a location file with the general solver."""

    @pytest.mark.parametrize("doc", ROUNDING_MEETS.values(), ids=ROUNDING_MEETS.keys())
    def test_constraints_that_meet_up_to_rounding_are_feasible(self, doc, tmp_path, capsys):
        f = tmp_path / "loc.json"
        f.write_text(json.dumps(doc))
        assert main(["solve", str(f)]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert solved["status"] == "optimal" and solved["theta"] == 2.7
        assert main(["verify", str(f)]) == 2  # neither oracle holds the data
        assert "data too wide for an exact oracle" in capsys.readouterr().err
        if len(doc["points"][0]) == 2:
            assert main(["plot", str(f)]) == 0
            assert ET.fromstring(capsys.readouterr().out).tag.endswith("svg")

    def test_solve_prints_the_location_solvers_report(self, tmp_path, capsys):
        rng = np.random.default_rng(20)
        f = tmp_path / "loc.json"
        verdicts = set()
        for k in range(200):
            doc = _random_location_file(rng)
            f.write_text(json.dumps(doc))
            want = _location_report(load_problem(f).location)
            code = main(["solve", str(f)])
            assert capsys.readouterr().out == dump_json(want), (k, doc)
            assert code == (1 if want["status"] == "infeasible" else 0), (k, doc)
            verdicts.add(want.get("reason", "optimal"))
        assert verdicts == {"optimal", "TrExceedsOne", "BoundsIncompatible"}


class TestCliVerify:
    def test_verify_agrees(self, capsys):
        for name in ("unconstrained", "box", "linear", "general", "location"):
            code = main(["verify", str(PROBLEMS / f"{name}.json")])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0, name
            assert doc["status"] == "agree"
            assert doc["argmins_contained"] is True

    def test_verify_summary_line(self, capsys):
        main(["verify", str(PROBLEMS / "general.json")])
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == "agree: theta = 14"
        assert doc["argmin_count"] == 13

    def test_verify_infeasible_agreement(self, tmp_path, capsys):
        f = tmp_path / "inf.json"
        f.write_text(json.dumps({
            "problem": "box", "p": [0, 0], "q": [0, 0], "g": [3, 0], "h": [1, 5],
        }))
        code = main(["verify", str(f), "--grid-lo=-5,-5", "--grid-hi=5,5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["status"] == "agree"
        assert doc["summary"] == "agree: infeasible"

    def test_explicit_grid(self, capsys):
        code = main([
            "verify", str(PROBLEMS / "unconstrained.json"),
            "--grid-lo=-10,-10", "--grid-hi=10,10", "--grid-step", "0.5",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["summary"] == "agree: theta = 9"

    @pytest.mark.parametrize("doc, theta", [
        ({"problem": "location", "points": [[1], [-3]], "weights": [2.5, 1],
          "g": [-5], "h": [10]}, 3.75),
        ({"problem": "unconstrained", "semifield": "max-plus", "p": [-1], "q": [0.5]}, -0.75),
    ], ids=["location", "unconstrained"])
    def test_verify_agrees_on_half_integer_data(self, doc, theta, tmp_path, capsys):
        # The optimizers lie on the quarter lattice, off the default step 1/2.
        f = tmp_path / "half.json"
        f.write_text(json.dumps(doc))
        code = main(["verify", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out["status"] == "agree"
        assert out["oracle_min"] == out["solver_theta"] == theta

    def test_verify_scans_an_explicit_half_grid_as_given(self, tmp_path, capsys):
        # The optimum -0.75 lies off the half grid; with the grid given,
        # verify reports that grid's best value.  Without it, the file's
        # half-integer data go to the exact oracle.
        f = tmp_path / "half.json"
        f.write_text(json.dumps({"problem": "unconstrained", "semifield": "max-plus",
                                 "p": [-1], "q": [0.5]}))
        code = main(["verify", str(f), "--grid-lo=-4", "--grid-hi=4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["oracle_min"] == -0.5 and out["solver_theta"] == -0.75
        assert main(["verify", str(f)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"] == "exact" and out["oracle_min"] == -0.75

    def test_verify_keeps_the_grid_answer_past_the_refinement_guard(self, tmp_path, capsys):
        # The data need the lattice of 2^-9, too fine to scan around the
        # optimum; the step-1/2 grid attains it.
        f = tmp_path / "fine.json"
        f.write_text(json.dumps({"problem": "general", "semifield": "max-plus",
                                 "p": [0, 0], "q": [0, 0],
                                 "B": [["-inf", 3], [-10 + 2**-8, "-inf"]]}))
        code = main(["verify", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["status"] == "agree"
        assert out["oracle_min"] == out["solver_theta"] == 1.5

    def test_verify_agrees_when_no_half_grid_point_is_feasible(self, tmp_path, capsys):
        # The box [0, 1/4]^2 holds one point of the step-1/2 grid, the
        # origin, and x_0 >= x_1 + 1/8 cuts it off; the optimum 1/8 lies
        # on the lattice of 1/16.
        f = tmp_path / "fine.json"
        f.write_text(json.dumps({"problem": "general", "semifield": "max-plus",
                                 "p": [0, 0], "q": [0, 0], "g": [0, 0], "h": [0.25, 0.25],
                                 "B": [["-inf", 0.125], ["-inf", "-inf"]]}))
        code = main(["verify", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out["summary"] == "agree: theta = 0.125"

    def test_verify_summary_keeps_large_theta_in_exponent_form(self, tmp_path, capsys):
        f = tmp_path / "large.json"
        f.write_text(json.dumps({"problem": "unconstrained", "p": [2e15], "q": [0]}))
        code = main(["verify", str(f), "--grid-lo=1e15", "--grid-hi=1e15"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out["summary"] == "agree: theta = 1e+15"

    def test_verify_reports_a_theta_disagreement(self, capsys):
        # the box holds feasible points (x_1 >= 3) but none of the optimizers (x_1 = 2)
        code = main(["verify", str(PROBLEMS / "general.json"), "--grid-lo=3,0", "--grid-hi=6,8"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["status"] == "disagree" and doc["argmins_contained"] is False
        assert doc["summary"] == "disagree: solver theta = 14.0, oracle = 15.0"

    def test_verify_reports_an_infeasibility_disagreement(self, monkeypatch, capsys):
        wrong = t.InfeasibilityReport(t.InfeasibleReason.BOUNDS_INCOMPATIBLE, t.MAX_PLUS.scalar(1))
        monkeypatch.setattr("tropt.cli.solve_parsed", lambda parsed: wrong)
        code = main(["verify", str(PROBLEMS / "general.json")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["status"] == "disagree"
        found = doc["oracle_feasible_points"]
        assert found > 0
        assert doc["summary"] == f"disagree: solver infeasible but oracle found {found} feasible points"

    @pytest.mark.parametrize("doc, theta", [
        ({"problem": "unconstrained", "p": [9, 0, 0], "q": [0, 0, 0]}, 4.5),
        ({"problem": "general", "p": [0.5, "-inf"], "q": [0, 0]}, 0.25),
    ], ids=["grid-past-the-guard", "x_lo-holds-minus-inf"])
    def test_verify_agrees_through_the_exact_oracle(self, doc, theta, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        code = main(["verify", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out == {"status": "agree", "oracle": "exact", "solver_theta": theta,
                       "oracle_min": theta, "ends_agree": True,
                       "summary": f"agree: theta = {theta}"}

    def test_verify_takes_the_default_grid_at_n_4(self, tmp_path, capsys):
        # Integer data whose default grid passes the guard take the grid at
        # any n: here [g, h], padded where g is the semifield zero.
        f = tmp_path / "p.json"
        f.write_text(json.dumps({
            "problem": "general", "p": [3, 1, 0, 2], "q": [-1, 0, 2, 1],
            "g": [-3, "-inf", -2, -4], "h": [5, 4, 6, 3],
            "B": [[0, -2, "-inf", -1], [-3, 0, -1, "-inf"], ["-inf", -2, 0, -3],
                  [-1, "-inf", -2, 0]],
        }))
        code = main(["verify", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out == {"status": "agree", "grid_points": 17 * 47 * 17 * 15, "solver_theta": 2,
                       "oracle_min": 2, "argmin_count": 216, "argmins_contained": True,
                       "summary": "agree: theta = 2"}

    def test_verify_agrees_at_n_64(self, tmp_path, capsys):
        raw = planted(np.random.default_rng(64), 64, size=20)
        doc = {"problem": "general", **{k: raw[k].tolist() for k in PARTS}}
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        code = main(["verify", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["status"] == "agree" and out["oracle"] == "exact", out
        doc["B"][3][3] = 1  # a loop above one
        f.write_text(json.dumps(doc))
        assert main(["verify", str(f)]) == 1
        assert json.loads(capsys.readouterr().out)["summary"] == "agree: infeasible"

    def test_verify_agrees_on_a_planted_cycle_at_n_4(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({
            "problem": "general", "p": [3, 1, 0, 2], "q": [-1, 0, 2, 1],
            "B": [["-inf", 1, "-inf", "-inf"], ["-inf", "-inf", 0, "-inf"],
                  [0, "-inf", "-inf", -1], [-1, "-inf", -2, "-inf"]],
        }))
        code = main(["verify", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out == {"status": "agree", "oracle": "exact",
                       "solver": {"status": "infeasible", "reason": "TrExceedsOne", "detail": 1},
                       "summary": "agree: infeasible"}

    @pytest.mark.parametrize("doc, message", [
        (ROUNDING_MEETS["2-D box"], "data too wide for an exact oracle: scaled by 2^56 they "
                                    "reach 7.21e+17; pass --grid-lo and --grid-hi"),
        (ROUNDING_MEETS["3-D cycle"], "data too wide for an exact oracle: scaled by 2^56 they "
                                      "reach 2.95e+17; pass --grid-lo and --grid-hi"),
        ({"problem": "unconstrained", "p": [0.3], "q": [0.3]},
         "data too wide for an exact oracle: scaled by 2^55 they reach 1.08e+16; "
         "pass --grid-lo and --grid-hi"),
        ({"problem": "unconstrained", "semifield": "max-times", "p": [2, 4], "q": [1, 8]},
         "no default grid for max-times; pass --grid-lo and --grid-hi"),
    ], ids=["2-D box", "3-D cycle", "p-q-0.3", "max-times"])
    def test_verify_refuses_data_that_neither_oracle_holds(self, doc, message, tmp_path,
                                                          capsys):
        # Decimal data pass 2^53 once scaled to integers, and the times
        # semifields have no default grid: with no --grid-lo and --grid-hi,
        # verify answers neither.
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        assert main(["verify", str(f)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"

    def test_verify_reports_an_exact_disagreement(self, monkeypatch, tmp_path, capsys):
        f = tmp_path / "half.json"
        f.write_text(json.dumps({"problem": "unconstrained", "p": [-1], "q": [0.5]}))
        wrong = t.InfeasibilityReport(t.InfeasibleReason.BOUNDS_INCOMPATIBLE, t.MAX_PLUS.scalar(1))
        monkeypatch.setattr("tropt.cli.solve_parsed", lambda parsed: wrong)
        assert main(["verify", str(f)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == "disagree: solver infeasible but oracle found theta = -0.75"
        sol = t.solve_instance(t.problem(t.MAX_PLUS, [-1], [0.5]))
        shifted = dataclasses.replace(sol, x_hi=t.tvector(t.MAX_PLUS, [0]))
        monkeypatch.setattr("tropt.cli.solve_parsed", lambda parsed: shifted)
        assert main(["verify", str(f)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "disagree" and doc["ends_agree"] is False
        assert doc["oracle_min"] == doc["solver_theta"] == -0.75

    @pytest.mark.parametrize("bounds, message", [
        (["--grid-lo=a,b", "--grid-hi=6,8"], "--grid-lo: expected comma-separated numbers, got 'a,b'"),
        (["--grid-lo=1,2,3", "--grid-hi=6,8"], "--grid-lo: expected 2 values, got 3"),
        (["--grid-lo=1,2", "--grid-hi=6"], "--grid-hi: expected 2 values, got 1"),
    ])
    def test_bad_grid_bound_exit_2(self, bounds, message, capsys):
        assert main(["verify", str(PROBLEMS / "general.json"), *bounds]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_half_grid_exit_2(self, capsys):
        assert main(["verify", str(PROBLEMS / "box.json"), "--grid-lo", "0,0"]) == 2
        assert "together" in capsys.readouterr().err

    def test_grid_guard_exit_2(self, capsys):
        code = main([
            "verify", str(PROBLEMS / "unconstrained.json"),
            "--grid-lo=-1000,-1000", "--grid-hi=1000,1000", "--grid-step", "0.5",
        ])
        assert code == 2
        assert "limit" in capsys.readouterr().err

    def test_epsilon_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TROPT_EPSILON", "0.75")
        # a grid too coarse to hit the optimizer exactly still agrees
        # within the widened tolerance
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"problem": "unconstrained", "p": [1], "q": [-2]}))
        code = main(["verify", str(f), "--grid-lo=-4", "--grid-hi=4", "--grid-step", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["status"] == "agree"

    @pytest.mark.parametrize("flag, env", [
        ([], "abc"), (["--epsilon", "-5"], None), (["--epsilon", "nan"], None),
        (["--epsilon", "inf"], None), ([], "-1e-9"),
    ])
    def test_bad_epsilon_exit_2(self, flag, env, capsys, monkeypatch):
        if env is not None:
            monkeypatch.setenv("TROPT_EPSILON", env)
        assert main(["verify", str(PROBLEMS / "general.json"), *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("--epsilon" in err or "TROPT_EPSILON" in err)

    @pytest.mark.parametrize("args", [
        ["--grid-step", "1e-320"],
        ["--grid-lo=-1e308,-1e308", "--grid-hi=1e308,1e308"],
        ["--grid-step", "inf"],
    ])
    def test_unrepresentable_grid_exit_2(self, args, capsys):
        assert main(["verify", str(PROBLEMS / "general.json"), *args]) == 2
        assert capsys.readouterr().err.startswith("error: grid ")

    @pytest.mark.parametrize("command", ["solve", "plot"])
    def test_epsilon_is_a_verify_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, str(PROBLEMS / "general.json"), "--epsilon", "123"])
        assert exc.value.code == 2
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"problem": "box", "p": [3, 14], "q": [-12, -4], "g": [2, "-inf"], "h": [6, 8]},
        {"problem": "unconstrained", "p": [3, "-inf"], "q": [-12, -4]},
    ])
    def test_verify_checks_declared_type(self, doc, tmp_path, capsys):
        # verify solves with the declared type's solver, so it rejects what solve rejects
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        assert main(["solve", str(f)]) == 2
        solve_err = capsys.readouterr().err
        assert "must be regular" in solve_err
        assert main(["verify", str(f)]) == 2
        assert capsys.readouterr().err == solve_err


class TestParserReuse:
    """main() builds its parser once per process; no call leaves state for the next."""

    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_semifield_override_does_not_carry_over(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"problem": "unconstrained", "p": [3, 14], "q": [12, 4]}))
        plain = self.run(capsys, "solve", str(f))
        overridden = self.run(capsys, "solve", str(f), "--semifield", "min-plus")
        assert json.loads(overridden[1])["theta"] == -4.5
        assert json.loads(plain[1])["theta"] != -4.5
        assert self.run(capsys, "solve", str(f)) == plain

    def test_epsilon_does_not_carry_over(self, tmp_path, capsys, monkeypatch):
        # test_epsilon_env's coarse grid agrees only within the widened tolerance
        monkeypatch.delenv("TROPT_EPSILON", raising=False)
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"problem": "unconstrained", "p": [1], "q": [-2]}))
        grid = ["--grid-lo=-4", "--grid-hi=4", "--grid-step", "1"]
        assert self.run(capsys, "verify", str(f), *grid, "--epsilon", "0.75")[0] == 0
        code, out = self.run(capsys, "verify", str(f), *grid)
        assert code == 1 and json.loads(out)["status"] == "disagree"
        monkeypatch.setenv("TROPT_EPSILON", "0.75")
        assert self.run(capsys, "verify", str(f), *grid)[0] == 0
        monkeypatch.delenv("TROPT_EPSILON")
        assert self.run(capsys, "verify", str(f), *grid)[0] == 1

    def test_out_does_not_carry_over(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert self.run(capsys, "solve", str(PROBLEMS / "box.json"), "--out", str(dest)) == (0, "")
        written = dest.read_text()
        assert self.run(capsys, "solve", str(PROBLEMS / "box.json")) == (0, written)
        assert dest.read_text() == written

    def test_usage_error_then_golden_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(PROBLEMS / "general.json"), "--epsilon", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        expected = (GOLDEN / "general.solve.json").read_text(encoding="utf-8")
        assert self.run(capsys, "solve", str(PROBLEMS / "general.json")) == (0, expected)


# ``python -m tropt.cli COMMAND FILE``, which also writes the names in
# sys.modules at exit, as JSON, to the path given before COMMAND
_RUN_CLI_AND_LIST_MODULES = """
import atexit, json, runpy, sys
path = sys.argv.pop(1)
atexit.register(lambda: json.dump(sorted(sys.modules), open(path, "w")))
runpy.run_module("tropt.cli", run_name="__main__", alter_sys=True)
"""

# modules a command must not load: each imports only what it runs
_NOT_LOADED = {
    "solve": {"tropt.oracle", "tropt.svg", "tropt.systems", "tropt.location"},
    "verify": {"tropt.svg"},
}


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_fresh_process_golden_output(command, tmp_path):
    """``python -m tropt.cli`` in a new interpreter: the parser's first build,
    and the modules the command loads."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("TROPT_EPSILON", None)
    listing = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI_AND_LIST_MODULES, str(listing), command,
         str(PROBLEMS / "general.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    expected = (GOLDEN / f"general.{command}.json").read_text(encoding="utf-8")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        GOLDEN_CODES[f"general {command}"], expected, ""
    )
    loaded = set(json.loads(listing.read_text(encoding="utf-8")))
    assert {"tropt.probfile", "tropt.solve", "tropt.semifield"} <= loaded
    assert not loaded & _NOT_LOADED[command]


# ``from tropt import *`` before the package loaded its names on first
# access: every exported name, by the module that holds it, and the modules
_PUBLIC = {
    "errors": ["DimensionError", "DomainError", "GridGuardError", "ProblemFileError",
               "SemifieldMismatchError", "TroptError"],
    "linalg": ["TropicalMatrix", "identity", "tmatrix", "tvector", "zeros"],
    "location": ["LocationInstance", "LocationSolution", "build_pq", "chebyshev_distance",
                 "closure_entries", "solve_location", "to_general_problem"],
    "oracle": ["GridSpec", "OracleResult", "brute_force_min", "default_grid", "exact_min"],
    "semifield": ["MAX_PLUS", "MAX_TIMES", "MIN_PLUS", "MIN_TIMES", "SEMIFIELDS", "Semifield",
                  "TropicalScalar", "by_tag"],
    "solve": ["InfeasibilityReport", "InfeasibleReason", "ProblemInstance", "SolutionSet",
              "contains", "objective", "problem", "solve_box_constrained", "solve_general",
              "solve_instance", "solve_linear_constrained", "solve_unconstrained"],
    "systems": ["ConeSolution", "Infeasible", "UpperSolution", "solve_ax_le_d",
                "solve_ax_plus_b_le_x"],
}


def test_package_names_resolve_on_access(monkeypatch):
    import importlib

    public = {*_PUBLIC, *(name for names in _PUBLIC.values() for name in names)}
    assert len(public) == 55
    assert public <= set(dir(t))
    star: dict = {}
    exec("from tropt import *", star)
    assert set(star) - {"__builtins__"} == public
    for module, names in _PUBLIC.items():
        home = importlib.import_module(f"tropt.{module}")
        assert getattr(t, module) is home
        for name in names:
            assert getattr(t, name) is getattr(home, name)
    # looked up on every access, never stored: a rebinding and its undo show through
    assert "solve_general" not in vars(t)
    stand_in = object()
    monkeypatch.setattr(t.solve, "solve_general", stand_in)
    assert t.solve_general is stand_in
    monkeypatch.undo()
    assert t.solve_general is t.solve.solve_general
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        t.no_such_name
    with pytest.raises(ImportError):
        exec("from tropt import no_such_name", {})
    from tropt import _kernels

    assert _kernels is importlib.import_module("tropt._kernels")


def _svg_elements(text, cls):
    root = ET.fromstring(text)
    return [
        el for el in root.iter()
        if el.get("class") == cls
    ]


class TestCliPlot:
    def test_plot_writes_svg(self, tmp_path):
        dest = tmp_path / "plot.svg"
        assert main(["plot", str(PROBLEMS / "general.json"), "--out", str(dest)]) == 0
        text = dest.read_text()
        assert text.startswith("<?xml")
        ET.fromstring(text)  # well-formed

    def test_byte_stable(self):
        parsed = load_problem(PROBLEMS / "location.json")
        result = solve_parsed(parsed)
        assert render_svg(parsed, result) == render_svg(parsed, result)

    def test_geometry_carries_exact_values(self):
        parsed = load_problem(PROBLEMS / "general.json")
        result = solve_parsed(parsed)
        text = render_svg(parsed, result)

        (pq,) = _svg_elements(text, "pq-rect")
        assert [pq.get(k) for k in ("x", "y", "width", "height")] == ["-12", "-4", "15", "18"]

        (box,) = _svg_elements(text, "bounds-rect")
        assert [box.get(k) for k in ("x", "y", "width", "height")] == ["2", "-8", "4", "16"]

        (seg,) = _svg_elements(text, "solution-segment")
        assert [seg.get(k) for k in ("x1", "y1", "x2", "y2")] == ["2", "0", "2", "6"]

        lines = _svg_elements(text, "constraint-line")
        assert len(lines) == 2

    def test_location_plot_has_demand_points(self):
        parsed = load_problem(PROBLEMS / "location.json")
        result = solve_parsed(parsed)
        text = render_svg(parsed, result)
        pts = _svg_elements(text, "demand-point")
        assert [(el.get("cx"), el.get("cy")) for el in pts] == [
            ("-7", "12"), ("2", "10"), ("-10", "3"), ("-4", "4"), ("-4", "-3"),
        ]

    def test_point_solution_rendered_as_marker(self):
        parsed = parse_problem({
            "problem": "linear", "p": [3, 14], "q": [-12, -4],
            "B": [[0, -4], [-8, -6]],
        })
        text = render_svg(parsed, solve_parsed(parsed))
        (pt,) = _svg_elements(text, "solution-point")
        assert (pt.get("cx"), pt.get("cy")) == ("-1", "3")

    @pytest.mark.parametrize("B", [[[0, -4], [3, "-inf"]], [[0, "-inf"], ["-inf", "-inf"]]])
    def test_zero_entry_of_p_is_drawn_at_the_edge(self, B, tmp_path):
        # p need only be non-zero; its -inf entry, and a solution end that
        # inherits it (the second B), reach the viewport edge.
        src, dest = tmp_path / "p.json", tmp_path / "plot.svg"
        src.write_text(json.dumps(
            {"problem": "linear", "p": ["-inf", -5], "q": [-3.843, 1], "B": B}))
        assert main(["plot", str(src), "--out", str(dest)]) == 0
        text = dest.read_text()
        assert "inf" not in text and "nan" not in text
        ET.fromstring(text)

    def test_infeasible_prints_the_report_exit_1(self, tmp_path, capsys):
        src, dest = tmp_path / "bad.json", tmp_path / "plot.svg"
        src.write_text(json.dumps({
            "problem": "box", "p": [0, 0], "q": [0, 0], "g": [3, 0], "h": [1, 5],
        }))
        assert main(["plot", str(src), "--out", str(dest)]) == 1
        out = capsys.readouterr().out
        assert json.loads(out)["status"] == "infeasible"
        assert not dest.exists()
        assert main(["solve", str(src)]) == 1
        assert capsys.readouterr().out == out

    def test_rejects_wrong_dimension(self):
        parsed = parse_problem({"problem": "unconstrained", "p": [1, 2, 3], "q": [0, 0, 0]})
        with pytest.raises(t.DomainError):
            render_svg(parsed, solve_parsed(parsed))


@pytest.mark.parametrize("key", sorted(GOLDEN_CODES))
def test_golden_output(key, capsys):
    """stdout and exit code of each command on each worked example, byte for byte.

    The files under tests/golden/ hold the output of ``tropt <command>
    problems/<name>.json``: ``<name>.<command>.json``, or ``.svg`` for a
    plot, plus the exit codes in ``exit_codes.json``.
    """
    name, command = key.split()
    code = main([command, str(PROBLEMS / f"{name}.json")])
    out, err = capsys.readouterr()
    (expected,) = GOLDEN.glob(f"{name}.{command}.*")
    assert (code, err) == (GOLDEN_CODES[key], "")
    assert out == expected.read_text(encoding="utf-8")

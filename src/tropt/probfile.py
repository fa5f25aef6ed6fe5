"""Problem files and solution reports.

A problem file is a single JSON document.  The literal strings "-inf" and
"+inf" stand for the unbounded values (the semifield zero of max-plus and
min-plus respectively, and absent constraint entries).  Example:

    {
      "problem": "general",
      "semifield": "max-plus",
      "p": [3, 14], "q": [-12, -4],
      "g": [2, -8], "h": [6, 8],
      "B": [[0, -4], [-8, -6]]
    }

A location file replaces p/q with "points" and "weights" and is always
max-plus.  It is solved in its general form, and its report gives the
derived p and q after theta.  Numbers in reports are rendered with at
most 12 significant digits; integral values print without a decimal point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ProblemFileError, TroptError
from .semifield import MAX_PLUS, SEMIFIELDS, by_tag
from .solve import (
    InfeasibilityReport,
    ProblemInstance,
    SolutionSet,
    problem,
    solve_box_constrained,
    solve_general,
    solve_linear_constrained,
    solve_unconstrained,
)

if TYPE_CHECKING:  # a location file imports it when it is parsed
    from .location import LocationInstance

__all__ = [
    "ParsedProblem",
    "load_problem",
    "parse_problem",
    "solve_parsed",
    "report_dict",
    "dump_json",
]

PROBLEM_TYPES = ("unconstrained", "linear", "box", "general", "location")


@dataclass(frozen=True)
class ParsedProblem:
    """A validated problem file.

    ``instance`` is the general form of every file; for a location file it
    is the reduction ``to_general_problem(location)``, and ``location``
    keeps the points and weights (it is None for the other types).
    """

    problem_type: str
    instance: ProblemInstance
    location: LocationInstance | None = None


# ---------------------------------------------------------------------------
# number (de)serialization
# ---------------------------------------------------------------------------


_INFINITIES = {"-inf": float("-inf"), "+inf": float("inf")}


def _to_number(raw, where: str, i: int) -> float:
    """Entry i of the array at ``where`` as a float.

    A plain int or float is decided by its type alone (a bool is neither),
    and the entry's name is built only for an error.
    """
    if type(raw) in (int, float):
        return float(raw)
    if isinstance(raw, str):
        if raw in _INFINITIES:
            return _INFINITIES[raw]
        raise ProblemFileError(
            f"{where}[{i}]: expected a number or \"-inf\"/\"+inf\", got {raw!r}")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ProblemFileError(f"{where}[{i}]: expected a number, got {type(raw).__name__}")
    return float(raw)


def _vector(raw, where: str) -> list[float]:
    if not isinstance(raw, list) or not raw:
        raise ProblemFileError(f"{where}: expected a non-empty array")
    return [_to_number(v, where, i) for i, v in enumerate(raw)]


def _matrix(raw, where: str) -> list[list[float]]:
    if not isinstance(raw, list) or not raw:
        raise ProblemFileError(f"{where}: expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(raw):
        vals = _vector(row, f"{where}[{i}]")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ProblemFileError(f"{where}[{i}]: ragged row (expected {width} entries)")
        rows.append(vals)
    return rows


def _json_number(x: float):
    if x == float("-inf"):
        return "-inf"
    if x == float("inf"):
        return "+inf"
    if x == int(x) and abs(x) < 1e15:
        return int(x)
    return float(f"{x:.12g}")


def format_number(x: float) -> str:
    """x as text: integral values below 1e15 without a point, others to 12 digits."""
    if abs(x) < 1e15 and x == int(x):
        return str(int(x))
    return f"{x:.12g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, float, np.floating, np.integer)):
        return _json_number(float(obj))
    return obj


def dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_FIELDS = {
    "unconstrained": {"required": ("p", "q"), "optional": ()},
    "linear": {"required": ("B", "p", "q"), "optional": ()},
    "box": {"required": ("p", "q", "g", "h"), "optional": ()},
    "general": {"required": ("p", "q"), "optional": ("B", "g", "h")},
    "location": {"required": ("points", "weights"), "optional": ("B", "g", "h")},
}


def parse_problem(doc, *, semifield_override: str | None = None) -> ParsedProblem:
    """Validate a decoded JSON document and build the typed instance."""
    if not isinstance(doc, dict):
        raise ProblemFileError("top level: expected a JSON object")
    ptype = doc.get("problem")
    if ptype not in PROBLEM_TYPES:
        raise ProblemFileError(
            f"field 'problem': expected one of {', '.join(PROBLEM_TYPES)}, got {ptype!r}"
        )
    tag = semifield_override or doc.get("semifield", "max-plus")
    if tag not in SEMIFIELDS:
        raise ProblemFileError(f"field 'semifield': unknown tag {tag!r}")
    sf = by_tag(tag)
    if ptype == "location" and sf is not MAX_PLUS:
        raise ProblemFileError("field 'semifield': location problems are max-plus only")

    spec = _FIELDS[ptype]
    known = {"problem", "semifield", *spec["required"], *spec["optional"]}
    for key in doc:
        if key not in known:
            raise ProblemFileError(f"field {key!r}: not expected for problem {ptype!r}")
    for key in spec["required"]:
        if key not in doc or doc[key] is None:
            raise ProblemFileError(f"field {key!r}: required for problem {ptype!r}")

    def get_vec(name):
        raw = doc.get(name)
        return None if raw is None else _vector(raw, f"field '{name}'")

    def get_mat(name):
        raw = doc.get(name)
        return None if raw is None else _matrix(raw, f"field '{name}'")

    try:
        if ptype == "location":
            from .location import LocationInstance, to_general_problem

            pts = _matrix(doc["points"], "field 'points'")
            w = _vector(doc["weights"], "field 'weights'")
            if len(w) != len(pts):
                raise ProblemFileError("field 'weights': one weight per point required")
            loc = LocationInstance(
                np.array(pts), np.array(w),
                B=_opt_arr(get_mat("B")), g=_opt_arr(get_vec("g")), h=_opt_arr(get_vec("h")),
            )
            return ParsedProblem(ptype, to_general_problem(loc), loc)

        inst = problem(
            sf, get_vec("p"), get_vec("q"), g=get_vec("g"), h=get_vec("h"), B=get_mat("B")
        )
        return ParsedProblem(ptype, inst)
    except ProblemFileError:
        raise
    except TroptError as exc:
        raise ProblemFileError(str(exc)) from exc


def _opt_arr(v):
    return None if v is None else np.array(v, dtype=np.float64)


def load_problem(path, *, semifield_override: str | None = None) -> ParsedProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_problem(doc, semifield_override=semifield_override)


# ---------------------------------------------------------------------------
# solving and reporting
# ---------------------------------------------------------------------------


def solve_parsed(parsed: ParsedProblem):
    """Dispatch to the solver matching the declared problem type.

    A location file is solved in its general form, ``parsed.instance``.
    """
    inst = parsed.instance
    if parsed.problem_type == "unconstrained":
        return solve_unconstrained(inst.p, inst.q)
    if parsed.problem_type == "linear":
        return solve_linear_constrained(inst.B, inst.p, inst.q)
    if parsed.problem_type == "box":
        return solve_box_constrained(inst.p, inst.q, inst.g, inst.h)
    return solve_general(inst.B, inst.p, inst.q, inst.g, inst.h)


def report_dict(result, parsed: ParsedProblem | None = None) -> dict:
    """Solution or infeasibility as a JSON-ready dict (values verbatim).

    When ``parsed`` is a location file, a solution's report also gives the
    derived p and q of its general form, after theta.
    """
    if isinstance(result, InfeasibilityReport):
        return {
            "status": "infeasible",
            "reason": result.reason.value,
            "detail": result.detail.value,
        }
    if isinstance(result, SolutionSet):
        report = {"status": "optimal", "theta": result.theta.value}
        if parsed is not None and parsed.location is not None:
            report["p"] = parsed.instance.p.column_values()
            report["q"] = parsed.instance.q.column_values()
        report.update(
            u_lo=result.u_lo.column_values(),
            u_hi=result.u_hi.column_values(),
            x_lo=result.x_lo.column_values(),
            x_hi=result.x_hi.column_values(),
            generator=result.generator.data,
        )
        return report
    raise TypeError(f"cannot report {type(result).__name__}")

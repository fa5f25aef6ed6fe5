"""tropt: closed-form optimization over idempotent semifields.

Library layout:

* :mod:`tropt.semifield` -- scalar algebra of the four semifields, each built from its tag;
* :mod:`tropt.linalg`    -- matrices/vectors, Kleene star, cycle test, conjugation;
* :mod:`tropt.systems`   -- closed-form solutions of the linear inequalities;
* :mod:`tropt.solve`     -- the four minimax solvers;
* :mod:`tropt.oracle`    -- verification by a grid scan and by exact difference constraints;
* :mod:`tropt.location`  -- minimax Chebyshev facility location;
* :mod:`tropt.probfile`  -- JSON problem files and reports;
* :mod:`tropt.svg`       -- deterministic SVG plots;
* :mod:`tropt.cli`       -- the ``tropt`` command.

The names below are loaded on first access (PEP 562), so ``import tropt``
and each command import only the modules they use.  A name is looked up
in its module on every access and never stored here: whoever rebinds a
module's attribute, and later restores it, sees the package follow.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": ("DimensionError", "DomainError", "GridGuardError", "ProblemFileError",
               "SemifieldMismatchError", "TroptError"),
    "linalg": ("TropicalMatrix", "identity", "tmatrix", "tvector", "zeros"),
    "location": ("LocationInstance", "LocationSolution", "build_pq", "chebyshev_distance",
                 "closure_entries", "solve_location", "to_general_problem"),
    "oracle": ("GridSpec", "OracleResult", "brute_force_min", "default_grid", "exact_min"),
    "semifield": ("MAX_PLUS", "MAX_TIMES", "MIN_PLUS", "MIN_TIMES", "SEMIFIELDS", "Semifield",
                  "TropicalScalar", "by_tag"),
    "solve": ("InfeasibilityReport", "InfeasibleReason", "ProblemInstance", "SolutionSet",
              "contains", "objective", "problem", "solve_box_constrained", "solve_general",
              "solve_instance", "solve_linear_constrained", "solve_unconstrained"),
    "systems": ("ConeSolution", "Infeasible", "UpperSolution", "solve_ax_le_d",
                "solve_ax_plus_b_le_x"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the exported names and the modules that hold them
__all__ = sorted([*_HOME, *_EXPORTS])

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

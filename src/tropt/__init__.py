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
"""

from .errors import (
    DimensionError,
    DomainError,
    GridGuardError,
    ProblemFileError,
    SemifieldMismatchError,
    TroptError,
)
from .linalg import TropicalMatrix, identity, tmatrix, tvector, zeros
from .location import (
    LocationInstance,
    LocationSolution,
    build_pq,
    chebyshev_distance,
    closure_entries,
    solve_location,
    to_general_problem,
)
from .oracle import GridSpec, OracleResult, brute_force_min, default_grid, exact_min
from .semifield import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    SEMIFIELDS,
    Semifield,
    TropicalScalar,
    by_tag,
)
from .solve import (
    InfeasibilityReport,
    InfeasibleReason,
    ProblemInstance,
    SolutionSet,
    contains,
    objective,
    problem,
    solve_box_constrained,
    solve_general,
    solve_instance,
    solve_linear_constrained,
    solve_unconstrained,
)
from .systems import ConeSolution, Infeasible, UpperSolution, solve_ax_le_d, solve_ax_plus_b_le_x

__version__ = "0.1.0"

"""Closed-form minimax solvers.

All four solvers minimize the objective  conj(x) p  +  conj(q) x  over
regular vectors x, under increasingly rich constraint sets:

* :func:`solve_unconstrained`        -- no constraints;
* :func:`solve_linear_constrained`   -- B x <= x;
* :func:`solve_box_constrained`      -- g <= x <= h;
* :func:`solve_general`              -- B x + g <= x and x <= h.

Each solver returns the optimum together with the full parametric family
of optimizers {generator @ u : u_lo <= u <= u_hi}, or an
:class:`InfeasibilityReport` when the constraints admit no regular point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DimensionError, DomainError, SemifieldMismatchError, TroptError
from .linalg import TropicalMatrix, identity, tvector, zeros
from .semifield import Semifield, TropicalScalar
from .systems import Infeasible, solve_ax_plus_b_le_x

__all__ = [
    "InfeasibleReason",
    "InfeasibilityReport",
    "ProblemInstance",
    "SolutionSet",
    "problem",
    "objective",
    "solve_unconstrained",
    "solve_linear_constrained",
    "solve_box_constrained",
    "solve_general",
    "solve_instance",
    "contains",
]


class InfeasibleReason(enum.Enum):
    TR_EXCEEDS_ONE = "TrExceedsOne"
    BOUNDS_INCOMPATIBLE = "BoundsIncompatible"


@dataclass(frozen=True)
class InfeasibilityReport:
    """Why no regular feasible point exists, with the violating scalar.

    ``detail`` is the cycle-weight aggregate for TR_EXCEEDS_ONE and the
    value of conj(h) B* g for BOUNDS_INCOMPATIBLE; in both cases it
    strictly exceeds the semifield one.
    """

    reason: InfeasibleReason
    detail: TropicalScalar


@dataclass(frozen=True)
class SolutionSet:
    """Optimum theta plus the family {generator @ u : u_lo <= u <= u_hi}.

    x_lo and x_hi are the images of the u-box ends; when the generator is
    not the identity the solution set is the image of the box, not the
    x-box itself, so both coordinate systems are reported.
    """

    theta: TropicalScalar
    generator: TropicalMatrix
    u_lo: TropicalMatrix
    u_hi: TropicalMatrix
    x_lo: TropicalMatrix
    x_hi: TropicalMatrix


@dataclass(frozen=True)
class ProblemInstance:
    """One optimization problem: (p, q) plus optional B, g, h.

    Absent B means the zero matrix (no linear constraints); absent g the
    zero vector; absent h no upper bound.
    """

    sf: Semifield
    p: TropicalMatrix
    q: TropicalMatrix
    g: TropicalMatrix | None = None
    h: TropicalMatrix | None = None
    B: TropicalMatrix | None = None

    def __post_init__(self):
        n = self.p.rows
        if not self.p.is_column:
            raise DimensionError("p must be a column vector")
        for name in ("p", "q", "g", "h"):
            v = getattr(self, name)
            if v is None:
                continue
            if v.sf is not self.sf:
                raise SemifieldMismatchError(f"{name} has semifield {v.sf.tag}")
            if not v.is_column or v.rows != n:
                raise DimensionError(f"{name} must be a column vector of length {n}")
        if self.B is not None:
            if self.B.sf is not self.sf:
                raise SemifieldMismatchError(f"B has semifield {self.B.sf.tag}")
            if not self.B.is_square or self.B.rows != n:
                raise DimensionError(f"B must be {n}x{n}, got {self.B.shape}")

    @property
    def n(self) -> int:
        return self.p.rows

    def g_or_zero(self) -> TropicalMatrix:
        return self.g if self.g is not None else zeros(self.sf, self.n)

    def b_or_zero(self) -> TropicalMatrix:
        return self.B if self.B is not None else zeros(self.sf, self.n, self.n)


def problem(sf, p, q, g=None, h=None, B=None) -> ProblemInstance:
    """Build a ProblemInstance from plain lists."""
    from .linalg import tmatrix

    mk = lambda v: None if v is None else tvector(sf, v)
    return ProblemInstance(
        sf, tvector(sf, p), tvector(sf, q), g=mk(g), h=mk(h),
        B=None if B is None else tmatrix(sf, B),
    )


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def objective(p: TropicalMatrix, q: TropicalMatrix, x: TropicalMatrix) -> TropicalScalar:
    """Evaluate conj(x) p + conj(q) x at a regular x."""
    if not x.is_regular():
        raise DomainError("objective requires a regular x")
    a = (x.conj() @ p).as_scalar()
    b = (q.conj() @ x).as_scalar()
    return a + b


def _check_one(sf, value: TropicalScalar) -> bool:
    return value <= sf.scalar(sf.one)


def _h_conj(sf, h: TropicalMatrix | None, n: int) -> TropicalMatrix:
    """conj(h) as a row, with absent h contributing nothing to any sum."""
    if h is None:
        return zeros(sf, 1, n)
    if not h.is_regular():
        raise DomainError("h must be regular")
    return h.conj()


def _finish(sf, theta, gen, u_lo, u_hi) -> SolutionSet:
    if not u_lo.leq(u_hi):
        # The feasibility checks above rule this out mathematically; a
        # violation here means float drift, which must not pass silently.
        raise TroptError(
            f"internal: solution box collapsed, u_lo={u_lo.tolist()} u_hi={u_hi.tolist()}"
        )
    return SolutionSet(theta, gen, u_lo, u_hi, gen @ u_lo, gen @ u_hi)


# ---------------------------------------------------------------------------
# the four solvers
# ---------------------------------------------------------------------------


def solve_unconstrained(p: TropicalMatrix, q: TropicalMatrix) -> SolutionSet:
    """Minimize the objective with no constraints; p and q must be regular."""
    if not p.is_regular():
        raise DomainError("p must be regular")
    if not q.is_regular():
        raise DomainError("q must be regular")
    sf = p.sf
    theta = (q.conj() @ p).as_scalar().sqrt()
    u_lo = p.scale(theta.inv())
    u_hi = q.scale(theta)
    return _finish(sf, theta, identity(sf, p.rows), u_lo, u_hi)


def solve_linear_constrained(
    B: TropicalMatrix, p: TropicalMatrix, q: TropicalMatrix
) -> SolutionSet | InfeasibilityReport:
    """Minimize under B x <= x; p non-zero, q regular."""
    sf = p.sf
    if p.is_zero():
        raise DomainError("p must be non-zero")
    if not q.is_regular():
        raise DomainError("q must be regular")
    cone = solve_ax_plus_b_le_x(B, zeros(sf, p.rows))
    if isinstance(cone, Infeasible):
        return InfeasibilityReport(InfeasibleReason.TR_EXCEEDS_ONE, cone.power_trace)
    bstar = cone.generator
    qb = q.conj() @ bstar
    theta = (qb @ p).as_scalar().sqrt()
    u_lo = p.scale(theta.inv())
    u_hi = qb.conj().scale(theta)
    return _finish(sf, theta, bstar, u_lo, u_hi)


def solve_box_constrained(
    p: TropicalMatrix, q: TropicalMatrix, g: TropicalMatrix, h: TropicalMatrix
) -> SolutionSet | InfeasibilityReport:
    """Minimize under g <= x <= h; all four vectors regular."""
    sf = p.sf
    for name, v in (("p", p), ("q", q), ("g", g), ("h", h)):
        if not v.is_regular():
            raise DomainError(f"{name} must be regular")
    hc = h.conj()
    if not g.leq(h):
        return InfeasibilityReport(
            InfeasibleReason.BOUNDS_INCOMPATIBLE, (hc @ g).as_scalar()
        )
    qc = q.conj()
    theta = (qc @ p).as_scalar().sqrt() + (hc @ p).as_scalar() + (qc @ g).as_scalar()
    u_lo = g + p.scale(theta.inv())
    u_hi = (hc + qc.scale(theta.inv())).conj()
    return _finish(sf, theta, identity(sf, p.rows), u_lo, u_hi)


def solve_general(
    B: TropicalMatrix | None,
    p: TropicalMatrix,
    q: TropicalMatrix,
    g: TropicalMatrix | None = None,
    h: TropicalMatrix | None = None,
) -> SolutionSet | InfeasibilityReport:
    """Minimize under B x + g <= x and x <= h.

    p must be non-zero and q regular; h, when present, regular.  Absent
    parts default as in :class:`ProblemInstance`.  Feasibility requires
    the cycle condition on B and conj(h) B* g at most one.
    """
    sf = p.sf
    n = p.rows
    if p.is_zero():
        raise DomainError("p must be non-zero")
    if not q.is_regular():
        raise DomainError("q must be regular")
    if B is None:
        B = zeros(sf, n, n)
    if g is None:
        g = zeros(sf, n)
    cone = solve_ax_plus_b_le_x(B, g)
    if isinstance(cone, Infeasible):
        return InfeasibilityReport(InfeasibleReason.TR_EXCEEDS_ONE, cone.power_trace)
    bstar = cone.generator
    hc = _h_conj(sf, h, n)
    box_cond = (hc @ bstar @ g).as_scalar()
    if not _check_one(sf, box_cond):
        return InfeasibilityReport(InfeasibleReason.BOUNDS_INCOMPATIBLE, box_cond)
    qc = q.conj()
    qb = qc @ bstar
    hb = hc @ bstar
    theta = (qb @ p).as_scalar().sqrt() + (hb @ p).as_scalar() + (qb @ g).as_scalar()
    u_lo = g + p.scale(theta.inv())
    u_hi = ((hc + qc.scale(theta.inv())) @ bstar).conj()
    return _finish(sf, theta, bstar, u_lo, u_hi)


def solve_instance(inst: ProblemInstance) -> SolutionSet | InfeasibilityReport:
    """Solve an instance with whatever constraints it carries."""
    return solve_general(inst.B, inst.p, inst.q, inst.g, inst.h)


# ---------------------------------------------------------------------------
# membership and cross-checks
# ---------------------------------------------------------------------------


def contains(
    sol: SolutionSet,
    inst: ProblemInstance,
    x: TropicalMatrix,
    eps: float | None = None,
) -> bool:
    """Whether x is an optimizer of inst described by sol.

    Two independent tests are run: direct (x feasible and attains theta)
    and parametric (x lies in the image of the u-box).  They must agree;
    disagreement indicates numeric drift and raises.
    """
    if x.rows != inst.n or not x.is_column:
        raise DimensionError(f"x must be a column vector of length {inst.n}")
    sf = inst.sf

    direct = True
    if inst.B is not None and not (inst.B @ x).leq(x, eps):
        direct = False
    if direct and inst.g is not None and not inst.g.leq(x, eps):
        direct = False
    if direct and inst.h is not None and not x.leq(inst.h, eps):
        direct = False
    if direct and not objective(inst.p, inst.q, x).eq(sol.theta, eps):
        direct = False

    # x is in {gen @ u : u_lo <= u <= u_hi} iff gen @ x == x (so x itself
    # is a valid parameter) and x fits the u-box.
    parametric = (
        (sol.generator @ x).eq(x, eps)
        and sol.u_lo.leq(x, eps)
        and x.leq(sol.u_hi, eps)
    )

    if direct != parametric:
        raise TroptError(
            f"membership tests disagree at x={x.tolist()}: "
            f"direct={direct} parametric={parametric}"
        )
    return direct


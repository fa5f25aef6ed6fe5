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

One core, :func:`_solve`, evaluates the general closed form on the raw
arrays; the first three solvers are their precondition checks plus a call
to it, with the absent parts left out (an absent B makes B* the identity).
The inputs were validated when their matrices were built, so a solve
checks the carrier only on its results, as it wraps them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, DomainError, SemifieldMismatchError, TroptError
from .linalg import TropicalMatrix, conj_values, identity, tmatrix, tvector
from .semifield import Semifield, TropicalScalar

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

    ``detail`` is, for TR_EXCEEDS_ONE, the power trace of B: the heaviest
    closed walk of length at most n; for BOUNDS_INCOMPATIBLE, the value of
    conj(h) B* g.  In both cases it strictly exceeds the semifield one.
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
        _check_operands(self.sf, self.p, self.q, self.g, self.h, self.B)

    @property
    def n(self) -> int:
        return self.p.rows


def problem(sf, p, q, g=None, h=None, B=None) -> ProblemInstance:
    """Build a ProblemInstance from plain lists."""
    mk = lambda v: None if v is None else tvector(sf, v)
    return ProblemInstance(
        sf, tvector(sf, p), tvector(sf, q), g=mk(g), h=mk(h),
        B=None if B is None else tmatrix(sf, B),
    )


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def objective(p: TropicalMatrix, q: TropicalMatrix, x: TropicalMatrix) -> TropicalScalar:
    """Evaluate conj(x) p + conj(q) x at a regular column x."""
    p._same_sf(x)
    q._same_sf(x)
    if not (x.is_column and p.shape == q.shape == x.shape):
        raise DimensionError(
            f"p, q and x must be column vectors of one length, got {p.shape}, {q.shape}, {x.shape}"
        )
    return p.sf.scalar(_objectives(p.sf, p.data, q.data, x.data)[0])


def _objectives(sf, p, q, xs) -> np.ndarray:
    """conj(x) p + conj(q) x for each column x of the raw n x k array xs.

    p and q are raw columns.  The products of each term are written to k
    contiguous rows of n, each row reduced on its own, so every value
    keeps the bits of the vector form on its column: numpy reduces a
    contiguous run in an order of its own, which decides between -0.0 and
    +0.0 on a tie.  Both terms and their sum are checked in the carrier
    at once: in the times semifields a product of carrier values can
    overflow to +inf or underflow to 0.0.
    """
    if np.count_nonzero(xs == sf.zero):
        raise DomainError("objective requires a regular x")
    xt = xs.T
    terms = np.empty((2, *xt.shape))  # the products of conj(x) p and of conj(q) x, by columns
    sf.mul(sf._inv_unchecked(xt), p.T, out=terms[0])
    sf.mul(conj_values(sf, q.T), xt, out=terms[1])
    out = np.empty((3, xt.shape[0]))  # the two terms and their sum
    sf.add.reduce(terms, axis=2, out=out[:2])
    sf.add(out[0], out[1], out=out[2])
    sf.validate(out)
    return out[2]


def _check_operands(sf, p, q, g, h, B) -> None:
    """Every vector is a column of p's length over sf, and B is square to match."""
    n = p.rows
    if not p.is_column:
        raise DimensionError("p must be a column vector")
    for name, v in (("p", p), ("q", q), ("g", g), ("h", h)):
        if v is None:
            continue
        if v.sf is not sf:
            raise SemifieldMismatchError(f"{name} has semifield {v.sf.tag}")
        if not v.is_column or v.rows != n:
            raise DimensionError(f"{name} must be a column vector of length {n}")
    if B is not None:
        if B.sf is not sf:
            raise SemifieldMismatchError(f"B has semifield {B.sf.tag}")
        if not B.is_square or B.rows != n:
            raise DimensionError(f"B must be {n}x{n}, got {B.shape}")


def _require_regular(**vectors) -> None:
    for name, v in vectors.items():
        if not v.is_regular():
            raise DomainError(f"{name} must be regular")


def _require_nonzero(p: TropicalMatrix) -> None:
    if p.is_zero():
        raise DomainError("p must be non-zero")


def _solve(B, p, q, g, h) -> SolutionSet | InfeasibilityReport:
    """The general closed form; B, g and h may be None.

    With B* the Kleene star of B (the identity when B is absent):
    theta = sqrt(conj(q) B* p) + conj(h) B* p + conj(q) B* g, the u-box is
    g + p/theta <= u <= conj((conj(h) + conj(q)/theta) B*), and x = B* u.
    Feasible when the cycle condition holds and conj(h) B* g <= one.
    """
    sf = p.sf
    _check_operands(sf, p, q, g, h, B)

    if B is None:
        gen = bstar = None
    else:
        bstar, trace = _kernels.star_and_trace(B.data, sf)
        if bstar is None:
            return InfeasibilityReport(InfeasibleReason.TR_EXCEEDS_ONE, sf.scalar(trace))
        gen = TropicalMatrix(sf, bstar, _trusted=True)

    # Every solver has proved q and h regular, so they are inverted unchecked.
    qc = sf._inv_unchecked(q.data.T)
    hc = np.full_like(qc, sf.zero) if h is None else sf._inv_unchecked(h.data.T)
    rows = np.concatenate((qc, hc))  # conj(q) and conj(h), or that times B*
    if bstar is not None:
        rows = _kernels.matmul(rows, bstar, sf)
    cols = np.concatenate((p.data, np.full_like(p.data, sf.zero) if g is None else g.data), axis=1)
    terms = _kernels.matmul(rows, cols, sf)  # [[q- B* p, q- B* g], [h- B* p, h- B* g]]

    box = terms[1, 1]
    if not sf.leq(box, sf.one):
        return InfeasibilityReport(InfeasibleReason.BOUNDS_INCOMPATIBLE, sf.scalar(box))

    # Each result is checked in the carrier once, as soon as it is known: in
    # the times semifields a product of carrier values can overflow to +inf
    # or underflow to 0.0.
    theta = sf.scalar(sf.add(sf.add(sf.sqrt(terms[0, 0]), terms[1, 0]), terms[0, 1]))
    theta_inv = sf.inv(theta.value)
    lo = sf.mul(theta_inv, p.data)
    if g is not None:
        lo = sf.add(g.data, lo)
    hi_conj = sf.add(hc, sf.mul(theta_inv, qc))
    if bstar is not None:
        hi_conj = _kernels.matmul(hi_conj, bstar, sf)
    u = np.concatenate((lo, sf.inv(hi_conj).T), axis=1)  # the columns u_lo, u_hi
    return _finish(sf, theta, gen, u)


def _finish(sf, theta, gen, u) -> SolutionSet:
    """Wrap the u-box ends (the columns of u) and their images under gen.

    gen is B*, or None for the identity, whose images are u itself.  The
    box and its images are each checked in the carrier in one call, so
    their columns are wrapped as trusted.
    """
    sf.validate(u)
    u_lo, u_hi = (TropicalMatrix(sf, u[:, k], _trusted=True) for k in (0, 1))
    ordered = sf.leq(u[:, 0], u[:, 1])
    if np.count_nonzero(ordered) != ordered.size:
        # The feasibility checks above rule this out mathematically; a
        # violation here means float drift, which must not pass silently.
        raise TroptError(
            f"internal: solution box collapsed, u_lo={u_lo.tolist()} u_hi={u_hi.tolist()}"
        )
    if gen is None:
        return SolutionSet(theta, identity(sf, u.shape[0]), u_lo, u_hi, u_lo, u_hi)
    x = _kernels.matmul(gen.data, u, sf)
    sf.validate(x)
    x_lo, x_hi = (TropicalMatrix(sf, x[:, k], _trusted=True) for k in (0, 1))
    return SolutionSet(theta, gen, u_lo, u_hi, x_lo, x_hi)


# ---------------------------------------------------------------------------
# the four solvers
# ---------------------------------------------------------------------------


def solve_unconstrained(p: TropicalMatrix, q: TropicalMatrix) -> SolutionSet:
    """Minimize the objective with no constraints; p and q must be regular."""
    _require_regular(p=p, q=q)
    return _solve(None, p, q, None, None)


def solve_linear_constrained(
    B: TropicalMatrix, p: TropicalMatrix, q: TropicalMatrix
) -> SolutionSet | InfeasibilityReport:
    """Minimize under B x <= x; p non-zero, q regular."""
    _require_nonzero(p)
    _require_regular(q=q)
    return _solve(B, p, q, None, None)


def solve_box_constrained(
    p: TropicalMatrix, q: TropicalMatrix, g: TropicalMatrix, h: TropicalMatrix
) -> SolutionSet | InfeasibilityReport:
    """Minimize under g <= x <= h; all four vectors regular."""
    _require_regular(p=p, q=q, g=g, h=h)
    return _solve(None, p, q, g, h)


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
    _require_nonzero(p)
    _require_regular(q=q)
    if h is not None:
        _require_regular(h=h)
    return _solve(B, p, q, g, h)


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
    """Whether every column of x is an optimizer of inst described by sol.

    x is n x k, one point per column; a column vector is the case k = 1.
    Two independent tests run, each once over all k columns: direct (x
    feasible and attains theta) and parametric (x lies in the image of the
    u-box).  Every comparison is elementwise, so each column gets the
    verdict it gets alone.  The objective is evaluated only on the columns
    that pass the constraints, and raises on a non-regular one.  The two
    tests must agree on every column; a disagreement indicates numeric
    drift and raises, naming the first column that disagrees.

    Every order test of both runs in one ``sf.leq`` over stacked rows:
    the direct ``[B x | g | x] <= [x | x | h]``, then the parametric
    ``[G x | x | u_lo | x] <= [x | G x | x | u_hi]`` for the generator G.
    x is in {G u : u_lo <= u <= u_hi} iff G x == x (so x itself is a valid
    parameter) and x fits the u-box; ``G x == x`` is tested as the order
    both ways, which accepts exactly the pairs that ``sf.eq`` accepts, its
    tolerance being symmetric.
    """
    if x.rows != inst.n:
        raise DimensionError(f"x must have {inst.n} rows, one column per point")
    inst.p._same_sf(x)
    sf, xs = inst.sf, x.data

    n, k = xs.shape
    gen = sol.generator.data
    stacked = gen if inst.B is None else np.concatenate((inst.B.data, gen))
    products = _kernels.matmul(stacked, xs, sf)  # B x over G x: each row keeps its bits
    gx = products[-n:]
    blocks = []  # (left, right): the direct test's, then the parametric test's
    if inst.B is not None:
        blocks.append((products[:n], xs))
    if inst.g is not None:
        blocks.append((inst.g.data, xs))
    if inst.h is not None:
        blocks.append((xs, inst.h.data))
    split = len(blocks) * n
    blocks += [(gx, xs), (xs, gx), (sol.u_lo.data, xs), (xs, sol.u_hi.data)]
    sides = list(zip(*blocks))
    if k > 1:  # the vectors repeat across the columns
        sides = [[np.broadcast_to(v, xs.shape) for v in side] for side in sides]
    ok = sf.leq(np.concatenate(sides[0]), np.concatenate(sides[1]), eps)
    direct, parametric = ok[:split].all(axis=0), ok[split:].all(axis=0)

    hits = np.count_nonzero(direct)
    if hits:
        values = _objectives(sf, inst.p.data, inst.q.data, xs if hits == k else xs[:, direct])
        direct[direct] = sf.eq(values, sol.theta.value, eps)

    disagree = direct != parametric
    if np.count_nonzero(disagree):
        j = int(np.argmax(disagree))
        raise TroptError(
            f"membership tests disagree at column {j}, x={xs[:, [j]].tolist()}: "
            f"direct={direct[j]} parametric={parametric[j]}"
        )
    return bool(np.count_nonzero(direct) == k)

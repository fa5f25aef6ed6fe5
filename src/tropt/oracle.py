"""Brute-force verification of solver results on small instances.

The oracle evaluates the objective at every point of a finite grid that
satisfies the constraints, and returns the best value with all attaining
grid points.  It shares no formulas with the closed-form solvers, so an
agreement between the two is meaningful evidence.

The default grid step is 1/2: the closed-form optimum involves a square
root that halves an integer, so for integer instances the optimizers lie
on the half-integer lattice and the oracle is exact, not approximate.
Data that are all multiples of 2^-k put the optimizers on the lattice of
step 2^-(k+1) in the same way.  When that lattice is finer than a grid
of step 1/2 or less, the oracle scans it as well, wherever a point could
beat the best point of the grid (see :func:`brute_force_min`).  A coarser
grid is approximate by choice and is scanned as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError, GridGuardError
from .solve import ProblemInstance
from .semifield import TropicalScalar

__all__ = ["GridSpec", "OracleResult", "default_grid", "brute_force_min"]

MAX_POINTS = 10**6
# Data need at most this many binary digits after the point for the
# oracle to scan their finer lattice; real-valued data need ~50.
MAX_FRACTION_BITS = 8


@dataclass(frozen=True, eq=False)
class GridSpec:
    """A rectangular grid: per-dimension bounds plus a common step.

    Two grids are equal when their bounds and steps are.
    """

    lower: np.ndarray
    upper: np.ndarray
    step: float = 0.5

    _counts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DomainError("grid bounds must be flat vectors of equal length")
        if not np.isfinite(lower).all() or not np.isfinite(upper).all():
            raise DomainError("grid bounds must be finite")
        if (lower > upper).any():
            raise DomainError("grid lower bound exceeds upper bound")
        if not 0 < self.step < np.inf:
            raise DomainError(f"grid step must be positive and finite, got {self.step}")
        # The counts stay floats until they pass the guard: a span that
        # overflows, or a tiny step, gives an infinite count.
        with np.errstate(over="ignore"):
            counts = np.floor((upper - lower) / self.step + 1e-9) + 1
        total = float(np.prod(counts))
        if not total <= MAX_POINTS:
            raise GridGuardError(
                f"grid would hold {total:.15g} points (limit {MAX_POINTS}); "
                f"increase the step (currently {self.step})"
            )
        object.__setattr__(self, "_counts", tuple(int(c) for c in counts))

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return (self.step == other.step and np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper))

    def __hash__(self):
        return hash((tuple(self.lower.tolist()), tuple(self.upper.tolist()), self.step))

    def axis(self, i: int) -> np.ndarray:
        return self.lower[i] + self.step * np.arange(self._counts[i])

    def point_count(self) -> int:
        return math.prod(self._counts)

    def points(self) -> np.ndarray:
        """Grid points in lexicographic order, one per row."""
        axes = [self.axis(i) for i in range(len(self.lower))]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


@dataclass(frozen=True)
class OracleResult:
    """Best objective over the feasible grid, or empty when none is feasible."""

    min_value: TropicalScalar | None
    argmins: list = field(default_factory=list)
    feasible_count: int = 0

    @property
    def empty(self) -> bool:
        return self.min_value is None


def default_grid(inst: ProblemInstance, step: float = 0.5) -> GridSpec:
    """Grid bounds that provably contain the optimizer family.

    Bounded dimensions use [g, h] directly.  Unbounded ones get symmetric
    padding derived from the magnitudes of all finite inputs: the optimum
    never exceeds twice the largest magnitude D, so every optimizer
    coordinate lies within 3D of the origin.  When the data's lattice is
    finer than the step (see :func:`brute_force_min`), the padding 3D + 1
    is rounded up to a multiple of the step, so that those dimensions
    hold multiples of the step, as they do for integer data.  Only the
    additive semifields have a natural real grid; pass an explicit
    GridSpec for the multiplicative ones.
    """
    if inst.sf.times:
        raise DomainError("no default grid for multiplicative semifields; pass a GridSpec")
    finite = _finite_data(inst)
    d = float(np.abs(finite).max()) if finite.size else 1.0
    pad = 3.0 * d + 1.0
    if pad % step and _fine_step(finite, step) is not None:
        pad = step * float(np.ceil(pad / step))
    lower = np.full(inst.n, -pad)
    upper = np.full(inst.n, pad)
    if inst.g is not None:
        gv = inst.g.data.reshape(-1)
        mask = np.isfinite(gv)
        if inst.sf.minimize:
            upper[mask] = np.minimum(upper[mask], gv[mask])
        else:
            lower[mask] = np.maximum(lower[mask], gv[mask])
    if inst.h is not None:
        hv = inst.h.data.reshape(-1)
        mask = np.isfinite(hv)
        if inst.sf.minimize:
            lower[mask] = np.maximum(lower[mask], hv[mask])
        else:
            upper[mask] = np.minimum(upper[mask], hv[mask])
    return GridSpec(lower, np.maximum(lower, upper), step)


def _finite_data(inst):
    """The finite entries of p, q, g, h and B, flattened."""
    pools = [inst.p.data, inst.q.data]
    if inst.g is not None:
        pools.append(inst.g.data)
    if inst.h is not None:
        pools.append(inst.h.data)
    if inst.B is not None:
        pools.append(inst.B.data)
    finite = np.concatenate([p.reshape(-1) for p in pools])
    return finite[np.isfinite(finite)]


def _fine_step(values, step):
    """2^-(k+1) for the least k at which every value is a multiple of
    2^-k, when that is finer than ``step``; None past ``MAX_FRACTION_BITS``.

    A float's ratio has a power of two for its denominator: 2^k for the
    least such k.
    """
    k = max((x.as_integer_ratio()[1] for x in values.tolist()), default=1).bit_length() - 1
    fine = 2.0 ** -(k + 1)
    return fine if k <= MAX_FRACTION_BITS and fine < step else None


def brute_force_min(
    inst: ProblemInstance,
    grid: GridSpec | None = None,
    eps: float | None = None,
) -> OracleResult:
    """Exhaustively minimize the objective over the feasible grid points.

    Only dimensions up to 3 are supported; the point count is capped by
    the GridSpec guard.  Argmins are reported in lexicographic order.

    The grid is scanned from its axes (:func:`_kernels.grid_scan`), without
    building a point; the axes are validated, which checks every value a
    point can hold.  Memory is O(N) for N points: a feasibility flag and an
    objective value per point, then the values of the feasible points, and
    the tolerance test of those near the best only (:func:`_near_best`).

    On the additive semifields the scan is then refined.  When every
    finite input is a multiple of 2^-k, for the least k up to
    ``MAX_FRACTION_BITS``, the optimizers lie on the lattice of multiples
    of 2^-(k+1); if that is finer than the grid's step, and the step is at
    most 1/2 (the step that is exact on integer data), it is scanned too,
    within the grid's bounds, where a point could beat the grid's best
    value v.  Such a point beats v in each objective term, which bounds
    every coordinate to an open interval: ``p_i - x_i < v`` and
    ``x_i - q_i < v`` in max-plus, reversed in min-plus.  When the fine
    lattice's best value beats v beyond the tolerance, its minimum and
    argmins are the result; otherwise the grid's own are.  The grid's
    feasible count is reported either way.  A refinement that would hold
    more than ``MAX_POINTS`` points is not made, and the grid's answer
    stands, as it does for data with no such lattice.  With no feasible
    grid point, v is the top of the order, so the whole box is scanned on
    the fine lattice, and its minimum, argmins and feasible count are the
    result.  Integer data on a step-1/2 grid need no refinement.
    """
    sf = inst.sf
    if inst.n > 3:
        raise DomainError(f"oracle supports dimension <= 3, got {inst.n}")
    if grid is None:
        grid = default_grid(inst)
    if len(grid.lower) != inst.n:
        raise DomainError(f"grid dimension {len(grid.lower)} != instance dimension {inst.n}")

    B = inst.B.data if inst.B is not None else None
    g = inst.g.data.reshape(-1) if inst.g is not None else None
    h = inst.h.data.reshape(-1) if inst.h is not None else None
    qc = inst.q.conj().data.reshape(-1)
    p = inst.p.data.reshape(-1)

    def scan(axes):  # (best, argmins, feasible count), best None when none is feasible
        sf.validate(np.concatenate(axes))
        feas, vals = _kernels.grid_scan(axes, B, g, h, p, qc, sf)
        fvals = vals[feas]
        del vals
        if fvals.size == 0:
            return None, [], 0
        best = float(fvals.max() if sf.minimize else fvals.min())
        hit = np.flatnonzero(feas)[_near_best(fvals, best, eps, sf)]
        index = np.unravel_index(hit, tuple(len(v) for v in axes))
        argmins = np.stack([axes[i][k] for i, k in enumerate(index)], axis=1)
        return best, list(argmins), int(fvals.size)

    best, argmins, count = scan([grid.axis(i) for i in range(inst.n)])
    if not sf.times and grid.step <= 0.5 and (best is None or math.isfinite(best)):
        axes = _improving_axes(inst, grid, p, qc, -sf.zero if best is None else best)
        if axes is not None:
            fine_best, fine_argmins, fine_count = scan(axes)
            if best is None:
                best, argmins, count = fine_best, fine_argmins, fine_count
            elif fine_best is not None and not sf.eq(fine_best, best, eps):
                best, argmins = fine_best, fine_argmins
    if best is None:
        return OracleResult(None, [], 0)
    return OracleResult(TropicalScalar(best, sf), argmins, count)


def _near_best(vals, best, eps, sf):
    """Indices of the ``vals`` that ``sf.eq`` accepts as equal to ``best``, their best.

    ``sf.eq`` tests its tolerance in several passes, so one comparison
    first keeps the band where it can accept a value: within 2 eps of
    ``best`` in the plus semifields and within 2 eps best in the times
    ones, on the side of ``best`` where the values lie.  ``eq`` rejects
    every value beyond it.  In the plus semifields such a difference
    rounds to 2 eps or more.  In the times ones, for eps <= 1/4, an
    accepted value lies within a factor 2 of ``best``, so its difference
    from ``best`` is exact and at most eps times the larger of the two,
    rounded, which the rounded ``eps (2 best)`` bounds.  There is no band
    for eps = 0, where ``eq`` is one comparison, for a looser eps, or for
    an infinite ``best``.
    """
    if eps is None:
        eps = sf.default_eps
    if 0 < eps <= 0.25 and math.isfinite(best):
        if sf.times:
            bound = best - eps * (2 * best) if sf.minimize else best + eps * (2 * best)
        else:
            bound = best - 2 * eps if sf.minimize else best + 2 * eps
        near = np.flatnonzero(vals >= bound if sf.minimize else vals <= bound)
        return near[np.asarray(sf.eq(vals[near], best, eps))]
    return np.flatnonzero(sf.eq(vals, best, eps))


def _improving_axes(inst, grid, p, qc, v):
    """Per axis, the points of the data's fine lattice within the grid's
    bounds at which both objective terms beat v.

    The terms of coordinate i are ``p_i - x_i`` and ``x_i + qc_i``.  Each
    is monotone in x_i, so both beat v (are less in max-plus, greater in
    min-plus) on the open interval between ``p_i - v`` and ``v - qc_i``.
    The lattice is the multiples of :func:`_fine_step`'s step.  None when
    an interval is empty, as no point can then beat v, when the data have
    no lattice finer than the grid, or when the box of the intervals would
    hold more than ``MAX_POINTS`` of its points.
    """
    sf = inst.sf
    lo, hi = (v - qc, p - v) if sf.minimize else (p - v, v - qc)  # lo may be -inf, hi +inf
    if not (lo < hi).all():  # the usual case once the grid attains the optimum
        return None
    fine = _fine_step(_finite_data(inst), grid.step)
    if fine is None:
        return None
    first = np.ceil(np.maximum(grid.lower, lo) / fine)
    last = np.floor(np.minimum(grid.upper, hi) / fine)
    if not (first <= last).all() or np.prod(last - first + 1) > MAX_POINTS:
        return None
    beats = np.greater if sf.minimize else np.less
    axes = []
    for i in range(len(first)):
        axis = fine * np.arange(first[i], last[i] + 1)
        axis = axis[beats(p[i] - axis, v) & beats(axis + qc[i], v)]
        if axis.size == 0:
            return None
        axes.append(axis)
    return axes

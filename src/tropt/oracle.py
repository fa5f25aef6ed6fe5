"""Independent verification of solver results, by two oracles that share
no formulas with the closed-form solvers.

:func:`brute_force_min` evaluates the objective at every feasible point
of a finite grid, at any n, and returns the best value with all
attaining points.  Its default step 1/2 is exact on integer instances:
the closed-form optimum halves an integer, so the optimizers lie on the
half-integer lattice.  Any other grid is scanned as it is.
:func:`exact_min` solves a max-plus or min-plus instance at any n as
difference constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError, GridGuardError
from .solve import ProblemInstance
from .semifield import TropicalScalar

__all__ = ["GridSpec", "OracleResult", "default_grid", "brute_force_min", "exact_min"]

MAX_POINTS = 10**6


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
            counts = (np.floor((upper - lower) / self.step + 1e-9) + 1).tolist()
        total = math.prod(counts)
        if not total <= MAX_POINTS:
            raise GridGuardError(
                f"grid would hold {total:.15g} points (limit {MAX_POINTS}); "
                f"increase the step (currently {self.step})"
            )
        object.__setattr__(self, "_counts", tuple(map(int, counts)))

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return (self.step == other.step and np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper))

    def __hash__(self):
        return hash((tuple(self.lower.tolist()), tuple(self.upper.tolist()), self.step))

    def axes(self) -> list:
        """Every axis, ``lower_i + step * k`` for k below its count, from one run of
        step multiples."""
        steps = self.step * np.arange(max(self._counts, default=0))
        return [lo + steps[:c] for lo, c in zip(self.lower.tolist(), self._counts)]

    def point_count(self) -> int:
        return math.prod(self._counts)

    def points(self) -> np.ndarray:
        """Grid points in lexicographic order, one per row."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


@dataclass(frozen=True)
class OracleResult:
    """The best objective value and its argmins, or empty when nothing is feasible.

    From :func:`brute_force_min`, the argmins are every attaining grid
    point and ``feasible_count`` counts the feasible ones.  From
    :func:`exact_min`, they are the least and the greatest optimizer, and
    the count is 0.
    """

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
    coordinate lies within 3D of the origin.  Only the additive
    semifields have a natural real grid; pass an explicit GridSpec for
    the multiplicative ones.
    """
    if inst.sf.times:
        raise DomainError("no default grid for multiplicative semifields; pass a GridSpec")
    finite = _finite_data(inst)
    d = float(np.abs(finite).max()) if finite.size else 1.0
    pad = 3.0 * d + 1.0
    # Every finite entry lies within d < pad, so the box takes the finite
    # entries of g and h as they are, in the semifield's order, and the pad
    # where they are absent or the semifield zero.
    below, above = (inst.h, inst.g) if inst.sf.minimize else (inst.g, inst.h)
    lower, upper = (np.full(inst.n, end) if v is None
                    else np.where(np.isfinite(v.data[:, 0]), v.data[:, 0], end)
                    for v, end in ((below, -pad), (above, pad)))
    return GridSpec(lower, np.maximum(lower, upper), step)


def _finite_data(inst):
    """The finite entries of p, q, g, h and B, flattened."""
    parts = (inst.p, inst.q, inst.g, inst.h, inst.B)
    finite = np.concatenate([v.data.reshape(-1) for v in parts if v is not None])
    return finite[np.isfinite(finite)]


def brute_force_min(
    inst: ProblemInstance,
    grid: GridSpec | None = None,
    eps: float | None = None,
) -> OracleResult:
    """Exhaustively minimize the objective over the feasible grid points.

    Any dimension is scanned; the GridSpec guard caps the point count.
    Argmins are reported in lexicographic order.  conj(q) is formed here,
    so that the oracle shares no conjugate with the solver or ``contains``.

    The grid is scanned from its axes (:func:`_kernels.grid_scan`), without
    building a point; the axes are validated, which checks every value a
    point can hold.  Memory is O(N) for the N points of the scanned box: a
    flag per box point and a value per feasible point, with the scan's slab
    on top; the tolerance test of the values near the best only
    (:func:`_near_best`), and box indices for the argmins only
    (:func:`_kernels.nth_true`), read on the axes cut to the box.
    """
    sf = inst.sf
    if grid is None:
        grid = default_grid(inst)
    if len(grid.lower) != inst.n:
        raise DomainError(f"grid dimension {len(grid.lower)} != instance dimension {inst.n}")

    B = None if inst.B is None else inst.B.data
    g, h = (None if v is None else v.data[:, 0] for v in (inst.g, inst.h))
    q = inst.q.data[:, 0]
    nonzero = q != sf.zero
    if not nonzero.any():
        raise DomainError("conjugate of the all-zero vector is undefined")
    with np.errstate(divide="ignore"):
        qc = np.where(nonzero, 1.0 / q if sf.times else -q, q)

    axes = grid.axes()
    sf.validate(np.concatenate(axes))
    feas, (box, fvals) = _kernels.grid_scan(axes, B, g, h, inst.p.data[:, 0], qc, sf)
    if fvals.size == 0:
        return OracleResult(None, [], 0)
    axes = [v[s] for v, s in zip(axes, box)]
    best = float(fvals.max() if sf.minimize else fvals.min())
    hit = _kernels.nth_true(feas, _near_best(fvals, best, eps, sf))
    index = np.unravel_index(hit, tuple(len(v) for v in axes))
    argmins = np.stack([axes[i][k] for i, k in enumerate(index)], axis=1)
    return OracleResult(TropicalScalar(best, sf), list(argmins), int(fvals.size))


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


def exact_min(inst: ProblemInstance) -> OracleResult:
    """The exact optimum of a max-plus or min-plus instance, at any n.

    Every condition is a difference constraint on x and a node n with
    ``x_n = 0`` (Cormen et al., *Introduction to Algorithms*, §24.4).  In
    max-plus, objective <= t and g <= x <= h give the edges n -> i of weight
    ``min(q_i + t, h_i)`` and i -> n of weight ``min(t - p_i, -g_i)``, and
    ``b_ij + x_j <= x_i`` the edge i -> j of weight ``-b_ij``.  Theta is the
    least t with no negative cycle.  A simple cycle holds at most two t
    edges, so with the data scaled by a power of two to even integers,
    theta is an integer, found by bisection.  At theta the distances from
    node n are the greatest optimizer, and minus those to it the least:
    the argmins ``x_lo`` and ``x_hi``.  An infeasible instance has a
    negative cycle at every t, and an empty result.  Min-plus runs on the
    negated data.  Raises DomainError for the times semifields and for
    data whose scaled sums could leave the integers a float64 holds.
    """
    sf, n = inst.sf, inst.n
    if sf.times:
        raise DomainError(f"exact_min supports max-plus and min-plus, got {sf.tag}")
    finite = _finite_data(inst)
    e = max((x.as_integer_ratio()[1] for x in finite.tolist()), default=1).bit_length()
    with np.errstate(over="ignore"):
        m = float(np.ldexp(np.abs(finite).max(initial=0.0), e))  # the largest scaled magnitude
    if not (n + 2) ** 2 * m <= 2.0**53:
        raise DomainError(f"data too wide for an exact oracle: scaled by 2^{e} they reach {m:.3g}")
    s = -1.0 if sf.minimize else 1.0  # p, q, g, h and w: max-plus values in units of 2^-e
    p, q, g, h = (np.full(n, absent) if v is None else np.ldexp(s * v.data.reshape(-1), e)
                  for v, absent in ((inst.p, 0), (inst.q, 0), (inst.g, -np.inf), (inst.h, np.inf)))
    if not ((q > -np.inf).all() and (p > -np.inf).any() and (h > -np.inf).all()):
        raise DomainError("exact_min needs p non-zero and q and h regular")
    w = np.full((n + 1, n + 1), np.inf)
    if inst.B is not None:
        w[:n, :n] = -np.ldexp(s * inst.B.data, e)

    def distances(t):  # from node n at the integer t, or None on a negative cycle
        w[n, :n] = np.minimum(q + t, h)
        w[:n, n] = np.minimum(t - p, -g)
        return _shortest(w, n)

    hi = (n + 1) * int(m)  # no simple cycle's root lies above it
    if distances(hi) is None:
        return OracleResult(None)
    lo = int(np.max((p - q)[p > -np.inf])) // 2  # 2 t >= p_i - q_i
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if distances(mid) is None else (lo, mid)
    x_hi = np.ldexp(s * distances(lo)[:n], -e)
    x_lo = np.ldexp(-s * _shortest(w.T, n)[:n], -e)
    return OracleResult(TropicalScalar(float(np.ldexp(s * lo, -e)), sf), [x_lo, x_hi])


def _shortest(w, source):
    """Bellman-Ford from ``source`` over the edges u -> v of weight ``w[u, v]``:
    the distances, or None on a reachable negative cycle.  Each pass relaxes
    every edge; a pass past the longest simple path changes them only on a
    negative cycle, and one through the source shows sooner, below 0 there.
    """
    d = np.full(len(w), np.inf)
    d[source] = 0.0
    for _ in range(len(w)):
        nxt = np.minimum(d, (d[:, None] + w).min(axis=0))
        if nxt[source] < 0:
            return None
        if np.array_equal(nxt, d):
            return d
        d = nxt
    return None

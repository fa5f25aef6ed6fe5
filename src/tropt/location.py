"""Constrained minimax Chebyshev single-facility location.

The problem: place one facility x in R^n minimizing the largest weighted
Chebyshev distance to m demand points, subject to relational constraints
x_j + b_ij <= x_i and box constraints g <= x <= h.

Everything in this module is stated and computed in ordinary arithmetic.
:func:`to_general_problem` gives the equivalent max-plus instance, which
the CLI solves; :func:`solve_location` is the independent check of that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import TropicalMatrix
from .semifield import MAX_PLUS
from .solve import InfeasibleReason, InfeasibilityReport, ProblemInstance

__all__ = [
    "LocationInstance",
    "LocationSolution",
    "chebyshev_distance",
    "build_pq",
    "to_general_problem",
    "closure_entries",
    "solve_location",
]

_NEG_INF = float("-inf")


def chebyshev_distance(r, s) -> float:
    """max_i |r_i - s_i| (chessboard metric)."""
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if r.shape != s.shape or r.ndim != 1:
        raise DimensionError(f"vectors of equal length required, got {r.shape} and {s.shape}")
    return float(np.abs(r - s).max())


def build_pq(points, weights):
    """Derived corner vectors: p_i = max_j(r_ij + w_j), q_i = min_j(r_ij - w_j)."""
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if pts.ndim != 2 or w.ndim != 1 or pts.shape[0] != w.shape[0] or w.shape[0] < 1:
        raise DimensionError("need m >= 1 points (m x n) and m weights")
    p = (pts + w[:, None]).max(axis=0)
    q = (pts - w[:, None]).min(axis=0)
    return p, q


def _frozen_copy(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LocationInstance:
    """Demand points with weights, plus the optional constraint data.

    Absent entries of B are -inf (no constraint between that pair of
    coordinates); g entries may be -inf and h may be None (no bound).
    """

    points: np.ndarray
    weights: np.ndarray
    B: np.ndarray | None = None
    g: np.ndarray | None = None
    h: np.ndarray | None = None

    def __post_init__(self):
        # Every array is kept as a read-only copy, so the checks below hold
        # for as long as the instance lives, whatever the caller does to
        # the arrays it passed in.
        pts = _frozen_copy(self.points)
        w = _frozen_copy(self.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DimensionError("points must be a non-empty m x n array")
        if w.shape != (pts.shape[0],):
            raise DimensionError("one weight per point required")
        if not np.isfinite(pts).all() or not np.isfinite(w).all():
            raise DomainError("points and weights must be finite")
        n = pts.shape[1]
        for name, want in (("B", (n, n)), ("g", (n,)), ("h", (n,))):
            v = getattr(self, name)
            if v is None:
                continue
            arr = _frozen_copy(v)
            object.__setattr__(self, name, arr)
            if arr.shape != want:
                raise DimensionError(f"{name} must have shape {want}, got {arr.shape}")
            if np.isnan(arr).any() or np.isposinf(arr).any():
                raise DomainError(f"{name} entries must be real or -inf")
            if name == "h" and np.isneginf(arr).any():
                raise DomainError("h entries must be finite")

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class LocationSolution:
    """Optimum and optimizer family in ordinary arithmetic.

    Every optimizer is x_i = max_j(closure_ij + u_j) for some u between
    u_lower and u_upper; x_lower/x_upper are the images of the box ends.
    """

    theta: float
    closure: np.ndarray
    u_lower: np.ndarray
    u_upper: np.ndarray
    x_lower: np.ndarray
    x_upper: np.ndarray
    p: np.ndarray
    q: np.ndarray


def to_general_problem(inst: LocationInstance) -> ProblemInstance:
    """The equivalent max-plus instance of the combined-constraints problem.

    Its objective at any x equals max_j (w_j + chebyshev_distance(r_j, x)).
    The instance has checked its read-only copies of B, g and h, so they
    are wrapped as trusted; p and q, whose sums can overflow, are checked
    in one call.
    """
    p, q = build_pq(inst.points, inst.weights)
    MAX_PLUS.validate(np.concatenate((p, q)))
    wrap = lambda v: TropicalMatrix(MAX_PLUS, v, _trusted=True)
    g = None
    if inst.g is not None and np.count_nonzero(inst.g != _NEG_INF):
        g = wrap(inst.g)
    h = None if inst.h is None else wrap(inst.h)
    B = None
    if inst.B is not None and np.count_nonzero(inst.B != _NEG_INF):
        B = wrap(inst.B)
    return ProblemInstance(MAX_PLUS, wrap(p), wrap(q), g=g, h=h, B=B)


def _maxplus_power(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, :, None] + b[None, :, :]).max(axis=1)


def _best_walks(B: np.ndarray, length: int):
    """Entrywise best walk weights over lengths 1..length, and B^length.

    From length - 1 max-plus products; for length 0 the weights are all
    -inf and the power is None.
    """
    beta = np.full(B.shape, _NEG_INF)
    power = None
    for _ in range(length):
        power = B if power is None else _maxplus_power(power, B)
        beta = np.maximum(beta, power)
    return beta, power


def _clamp_diagonal(beta: np.ndarray) -> np.ndarray:
    out = beta.copy()
    idx = np.arange(beta.shape[0])
    out[idx, idx] = np.maximum(beta[idx, idx], 0.0)
    return out


def closure_entries(B) -> np.ndarray:
    """Path-closure matrix: best path weights with the diagonal clamped at 0.

    Off the diagonal the entry is the best total weight over paths of
    length 1..n-1; on the diagonal it is that value or 0, whichever is
    larger.  Computed by iterated max-plus matrix powers rather than
    literal path enumeration.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DimensionError(f"B must be square, got {B.shape}")
    return _clamp_diagonal(_best_walks(B, B.shape[0] - 1)[0])


def solve_location(inst: LocationInstance) -> LocationSolution | InfeasibilityReport:
    """Solve the location problem in ordinary arithmetic.

    Requires every cyclic sum of B entries to be at most 0 and, when both
    bounds are present, max_ij(closure_ij - h_i + g_j) <= 0.
    """
    n = inst.n
    B = inst.B if inst.B is not None else np.full((n, n), _NEG_INF)

    # cycle condition: best cycle weight over lengths 1..n; the walks of
    # lengths 1..n-1 also give the closure, and one more product B^n
    beta, power = _best_walks(B, n - 1)
    longest = B if power is None else _maxplus_power(power, B)
    cycle_best = max(float(np.diagonal(beta).max()), float(np.diagonal(longest).max()))
    if cycle_best > 0:
        return InfeasibilityReport(
            InfeasibleReason.TR_EXCEEDS_ONE, MAX_PLUS.scalar(cycle_best)
        )

    bstar = _clamp_diagonal(beta)
    g = inst.g if inst.g is not None else np.full(n, _NEG_INF)
    if inst.h is not None:
        box_cond = float((bstar - inst.h[:, None] + g[None, :]).max())
        if box_cond > 0:
            return InfeasibilityReport(
                InfeasibleReason.BOUNDS_INCOMPATIBLE, MAX_PLUS.scalar(box_cond)
            )

    p, q = build_pq(inst.points, inst.weights)
    theta = float(((bstar - q[:, None] + p[None, :]) / 2.0).max())
    if inst.h is not None:
        theta = max(theta, float((bstar - inst.h[:, None] + p[None, :]).max()))
    theta = max(theta, float((bstar - q[:, None] + g[None, :]).max()))

    u_lower = np.maximum(g, p - theta)
    u_upper = theta - (bstar - q[:, None]).max(axis=0)
    if inst.h is not None:
        u_upper = np.minimum(u_upper, -(bstar - inst.h[:, None]).max(axis=0))
    x_lower = (bstar + u_lower[None, :]).max(axis=1)
    x_upper = (bstar + u_upper[None, :]).max(axis=1)
    return LocationSolution(theta, bstar, u_lower, u_upper, x_lower, x_upper, p, q)

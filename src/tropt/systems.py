"""Closed-form solutions of the two linear vector inequalities.

``solve_ax_le_d`` characterizes all regular x with A x <= d as the points
below an explicit upper bound.  ``solve_ax_plus_b_le_x`` characterizes all
regular x with A x + b <= x as a cone {A* u : u >= b}, or reports that no
regular solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import DimensionError, DomainError
from .linalg import TropicalMatrix
from .semifield import TropicalScalar

__all__ = ["UpperSolution", "ConeSolution", "Infeasible", "solve_ax_le_d", "solve_ax_plus_b_le_x"]


@dataclass(frozen=True)
class UpperSolution:
    """All regular solutions are {x : x <= bound}."""

    bound: TropicalMatrix


@dataclass(frozen=True)
class ConeSolution:
    """All regular solutions are {generator @ u : u >= lower, u regular}."""

    generator: TropicalMatrix
    lower: TropicalMatrix


@dataclass(frozen=True)
class Infeasible:
    """No regular solution exists.

    ``power_trace`` is the heaviest closed walk of A of length at most n,
    which exceeds the semifield one.
    """

    power_trace: TropicalScalar


def solve_ax_le_d(A: TropicalMatrix, d: TropicalMatrix) -> UpperSolution:
    """Solve A x <= d for regular x.

    Requires a column-regular A and a regular d.  The returned bound is
    the conjugate of (conj(d) @ A); a regular x satisfies the inequality
    exactly when x <= bound.
    """
    if not d.is_column or A.rows != d.rows:
        raise DimensionError(f"incompatible shapes: A {A.shape}, d {d.shape}")
    if not A.is_column_regular():
        raise DomainError("A must be column-regular")
    if not d.is_regular():
        raise DomainError("d must be regular")
    return UpperSolution((d.conj() @ A).conj())


def solve_ax_plus_b_le_x(A: TropicalMatrix, b: TropicalMatrix) -> ConeSolution | Infeasible:
    """Solve A x + b <= x for regular x.

    Feasible exactly when power_trace(A) is at most the semifield one; the
    solutions then form the cone {A* u : u >= b}.  One elimination decides
    (:func:`tropt._kernels.star_and_trace`), and A* comes with the verdict.
    """
    if not A.is_square:
        raise DimensionError(f"A must be square, got {A.shape}")
    if not b.is_column or b.rows != A.rows:
        raise DimensionError(f"incompatible shapes: A {A.shape}, b {b.shape}")
    star, trace = _kernels.star_and_trace(A.data, A.sf)
    if star is None:
        return Infeasible(TropicalScalar(trace, A.sf))
    return ConeSolution(TropicalMatrix(A.sf, star, _trusted=True), b)

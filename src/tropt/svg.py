"""Deterministic SVG rendering of two-dimensional instances.

The drawing is emitted in data coordinates inside a single transformed
group, so the geometry attributes of every element (rectangle corners,
segment endpoints, marker centers) carry the exact problem values.  The
viewport is fitted to the data bounding box with a 10% margin and the
y-axis is flipped to mathematical orientation.  Output is byte-stable for
identical input.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .probfile import ParsedProblem, format_number as _fmt

__all__ = ["render_svg"]

_SIZE = 600.0


def render_svg(parsed: ParsedProblem, result) -> str:
    """Render one 2-D instance plus its solution as an SVG document."""
    inst = parsed.instance
    if inst.n != 2:
        raise DomainError(f"plotting supports dimension 2 only, got {inst.n}")

    p_vec, q_vec, g, h = (
        None if v is None else v.column_values() for v in (inst.p, inst.q, inst.g, inst.h)
    )
    B = None if inst.B is None else inst.B.data
    x_lo, x_hi = result.x_lo.column_values(), result.x_hi.column_values()
    points = () if parsed.location is None else parsed.location.points

    # the data bounding box: per axis, over the finite coordinates shown
    shown = np.array([v for v in (p_vec, q_vec, g, h, x_lo, x_hi, *points) if v is not None])
    finite = np.isfinite(shown)
    if not finite.any(axis=0).all():
        raise DomainError("nothing finite to plot")
    lo = np.where(finite, shown, np.inf).min(axis=0)
    hi = np.where(finite, shown, -np.inf).max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    lo = lo - 0.1 * span
    hi = hi + 0.1 * span
    width = hi[0] - lo[0]
    height = hi[1] - lo[1]
    scale = _SIZE / max(width, height)
    tx = -lo[0] * scale
    ty = hi[1] * scale
    # an infinite coordinate (a zero entry of p, or an end it reaches) is
    # drawn at the viewport edge; finite ones lie inside and stay as they are
    p_vec, q_vec, x_lo, x_hi = (np.clip(v, lo, hi) for v in (p_vec, q_vec, x_lo, x_hi))

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_SIZE)}" '
        f'height="{_fmt(_SIZE)}" viewBox="0 0 {_fmt(_SIZE)} {_fmt(_SIZE)}">'
    )
    out.append(
        f'<g transform="translate({_fmt(tx)} {_fmt(ty)}) scale({_fmt(scale)} -{_fmt(scale)})" '
        'fill="none" stroke-linecap="round">'
    )

    def rect(cls, a, b, stroke, dash=None):
        x0, x1 = sorted((float(a[0]), float(b[0])))
        y0, y1 = sorted((float(a[1]), float(b[1])))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<rect class="{cls}" x="{_fmt(x0)}" y="{_fmt(y0)}" '
            f'width="{_fmt(x1 - x0)}" height="{_fmt(y1 - y0)}" '
            f'stroke="{stroke}" stroke-width="1.5" vector-effect="non-scaling-stroke"{extra}/>'
        )

    def line(cls, a, b, stroke, width_px="1.5"):
        out.append(
            f'<line class="{cls}" x1="{_fmt(float(a[0]))}" y1="{_fmt(float(a[1]))}" '
            f'x2="{_fmt(float(b[0]))}" y2="{_fmt(float(b[1]))}" '
            f'stroke="{stroke}" stroke-width="{width_px}" vector-effect="non-scaling-stroke"/>'
        )

    def marker(cls, c, fill):
        out.append(
            f'<circle class="{cls}" cx="{_fmt(float(c[0]))}" cy="{_fmt(float(c[1]))}" '
            f'r="{_fmt(4.0 / scale)}" fill="{fill}" stroke="none"/>'
        )

    # axes through the origin when visible
    if lo[0] < 0 < hi[0]:
        line("axis", (0.0, lo[1]), (0.0, hi[1]), "#cccccc", "1")
    if lo[1] < 0 < hi[1]:
        line("axis", (lo[0], 0.0), (hi[0], 0.0), "#cccccc", "1")

    # enclosing rectangle spanned by q and p
    rect("pq-rect", q_vec, p_vec, "#888888")

    # boundaries of the half-planes x_j + b_ij <= x_i
    if B is not None:
        b12 = float(B[0][1])
        b21 = float(B[1][0])
        if np.isfinite(b12):
            line("constraint-line", (lo[1] + b12, lo[1]), (hi[1] + b12, hi[1]), "#2266bb")
        if np.isfinite(b21):
            line("constraint-line", (lo[0], lo[0] + b21), (hi[0], hi[0] + b21), "#2266bb")

    # feasible box
    if g is not None and h is not None and np.isfinite(g).all() and np.isfinite(h).all():
        rect("bounds-rect", g, h, "#22aa55", dash="4 3")

    for r in points:
        marker("demand-point", r, "#000000")

    if float(x_lo[0]) == float(x_hi[0]) and float(x_lo[1]) == float(x_hi[1]):
        marker("solution-point", x_lo, "#cc2222")
    else:
        line("solution-segment", x_lo, x_hi, "#cc2222", "4")

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"

"""Deterministic SVG rendering of contour systems and point markers.

Output is plain text with fixed float formatting, so repeated runs on the
same input produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .regions import ContourSystem, arc_points

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
MARKER_COLOR = "#000000"
STROKE_WIDTH = 0.01
# the points of each arc that the view box holds
_BOX_FRACTIONS = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _arc_path(c: complex, r: float, t0: float, t1: float) -> str:
    """SVG path fragment; math y is negated, so ccw math arcs use sweep 0."""
    pieces = []
    # SVG elliptical arcs cannot span a full circle in one command
    sub = [(t0, t1)]
    if abs(t1 - t0) > 1.5 * math.pi:
        mid_angle = t0 + (t1 - t0) / 2.0
        sub = [(t0, mid_angle), (mid_angle, t1)]
    p0 = arc_points(c, r, *sub[0], 0.0)
    pieces.append(f"M {_fmt(p0.real)} {_fmt(-p0.imag)}")
    # a split half spans pi at most, so only an unsplit arc can be large
    large = 1 if len(sub) == 1 and abs(t1 - t0) > math.pi else 0
    for s0, s1 in sub:
        sweep_flag = 0 if s1 > s0 else 1
        p1 = arc_points(c, r, s0, s1, 1.0)
        pieces.append(
            f"A {_fmt(r)} {_fmt(r)} 0 {large} {sweep_flag} "
            f"{_fmt(p1.real)} {_fmt(-p1.imag)}"
        )
    return " ".join(pieces)


def render_svg(
    contours: list[ContourSystem],
    markers: list[complex],
    direction_ticks: bool = False,
) -> str:
    """SVG document string for a list of contour systems plus root markers."""
    xs: list[float] = []
    ys: list[float] = []
    for c in contours:
        p = arc_points(c.center, c.radius, c.start, c.end, _BOX_FRACTIONS)
        xs += p.real.ravel().tolist()
        ys += (-p.imag).ravel().tolist()
    for m in markers:
        xs.append(m.real)
        ys.append(-m.imag)
    if not xs:
        xs = [-1.0, 1.0]
        ys = [-1.0, 1.0]
    pad = 0.1 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">',
    ]
    for idx, c in enumerate(contours):
        color = PALETTE[idx % len(PALETTE)]
        for arc in c.rows():
            lines.append(
                f'<path d="{_arc_path(*arc)}" fill="none" stroke="{color}" '
                f'stroke-width="{_fmt(STROKE_WIDTH)}"/>'
            )
            if direction_ticks:
                center, radius, t0, t1 = arc
                mid = complex(arc_points(*arc, 0.5))
                # tangent of the traversal at the midpoint
                normal = (mid - center) / radius
                tangent = 1j * normal * (1 if t1 > t0 else -1)
                tick = 0.03 * max(w, h)
                tip = mid + tick * tangent
                barb = tip - tick * 0.5 * tangent * complex(
                    math.cos(0.5), math.sin(0.5)
                )
                lines.append(
                    f'<path d="M {_fmt(mid.real)} {_fmt(-mid.imag)} '
                    f'L {_fmt(tip.real)} {_fmt(-tip.imag)} '
                    f'L {_fmt(barb.real)} {_fmt(-barb.imag)}" fill="none" '
                    f'stroke="{color}" stroke-width="{_fmt(STROKE_WIDTH)}"/>'
                )
    mr = 0.012 * max(w, h)
    for m in markers:
        lines.append(
            f'<circle cx="{_fmt(m.real)}" cy="{_fmt(-m.imag)}" r="{_fmt(mr)}" '
            f'fill="{MARKER_COLOR}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(
    contours: list[ContourSystem],
    markers: list[complex],
    path: str | Path,
) -> None:
    """Write the rendering to `path`; deterministic for fixed input."""
    Path(path).write_text(render_svg(contours, markers))

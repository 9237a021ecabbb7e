"""Deterministic SVG rendering of contour systems and point markers.

Output is plain text with fixed float formatting, so repeated runs on the
same input produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

from .regions import Arc, ContourSystem

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
MARKER_COLOR = "#000000"
STROKE_WIDTH = 0.01


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _arc_path(arc: Arc) -> str:
    """SVG path fragment; math y is negated, so ccw math arcs use sweep 0."""
    pieces = []
    # SVG elliptical arcs cannot span a full circle in one command
    sub = [arc]
    if abs(arc.sweep) > 1.5 * math.pi:
        mid_angle = arc.start_angle + arc.sweep / 2.0
        sub = [
            Arc(arc.circle, arc.start_angle, mid_angle, arc.ccw),
            Arc(arc.circle, mid_angle, arc.end_angle, arc.ccw),
        ]
    p0 = sub[0].start_point
    pieces.append(f"M {_fmt(p0.real)} {_fmt(-p0.imag)}")
    for a in sub:
        r = a.circle.radius
        large = 1 if abs(a.sweep) > math.pi else 0
        sweep_flag = 0 if a.sweep > 0 else 1
        p1 = a.end_point
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
        for a in c.arcs:
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                p = a.point(t)
                xs.append(p.real)
                ys.append(-p.imag)
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
        for a in c.arcs:
            lines.append(
                f'<path d="{_arc_path(a)}" fill="none" stroke="{color}" '
                f'stroke-width="{_fmt(STROKE_WIDTH)}"/>'
            )
            if direction_ticks:
                mid = a.point(0.5)
                # tangent of the traversal at the midpoint
                normal = (mid - a.circle.center) / a.circle.radius
                tangent = 1j * normal * (1 if a.sweep > 0 else -1)
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

"""Disk-arrangement regions and their oriented circular-arc boundaries.

The regions built here are monotone boolean combinations (unions and
intersections, never complements) of open disks around the roots of A and B:

  region around the roots of A:  intersection over roots b of B of the union
      over roots a of A of D(a, |b - a| / 3)
  root-size region:              union over roots a of D(a, 3|a|/4)
  refined contour:               boundary of (root-size region AND the first)

Because the combination is monotone, the region always lies locally on the
inner side of every boundary circle, so orienting every kept arc
counterclockwise around its own circle yields the positively oriented
boundary: winding +1 at interior points, 0 outside. Construction splits every
circle of the arrangement at all pairwise intersections and keeps a sub-arc
iff a probe just inside the circle is in the region while the matching probe
just outside is not. It works on arrays: all circle pairs, all cut angles and
all candidate arcs at once, with the stored angles and endpoints rounded
exactly as the scalar complex expressions that define them.

Winding numbers are computed exactly per arc: the argument increment along an
arc equals the principal angle of the chord plus a +-2*pi correction when the
query point lies in the circular segment between chord and arc. No quadrature
or subdivision is involved. The queries run on a table of arc parameters, all
arcs against all query points in one pass (winding_numbers).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ContourNestingError,
    DegenerateArrangement,
    OnContourError,
    OriginInRegionError,
    OriginTooClose,
)
from .roots import RootSet
from .sylvester import Pair

TANGENCY_TOL = 1e-12
POINT_TOL = 1e-9
PROBE_OFFSET = 1e-7
WINDING_INT_TOL = 1e-6


class RegionKind(str, Enum):
    E_A = "E_A"
    E_B = "E_B"
    D_A = "D_A"
    GAMMA1 = "D_A&E_A"
    GAMMA1_INVERTED = "inverted"


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class Arc:
    """Circular arc from start_angle to end_angle on `circle`.

    For ccw arcs end_angle > start_angle; for cw arcs end_angle < start_angle.
    The signed sweep is end_angle - start_angle in both cases.
    """

    circle: Disk
    start_angle: float
    end_angle: float
    ccw: bool = True

    @property
    def sweep(self) -> float:
        return self.end_angle - self.start_angle

    @property
    def length(self) -> float:
        return self.circle.radius * abs(self.sweep)

    def point(self, t: float) -> complex:
        theta = self.start_angle + t * self.sweep
        return self.circle.center + self.circle.radius * cmath.exp(1j * theta)

    @property
    def start_point(self) -> complex:
        return self.point(0.0)

    @property
    def end_point(self) -> complex:
        return self.point(1.0)

    @property
    def is_full_circle(self) -> bool:
        return abs(abs(self.sweep) - 2 * math.pi) < 1e-12

    def reversed(self) -> "Arc":
        return Arc(self.circle, self.end_angle, self.start_angle, not self.ccw)

    def to_json_dict(self) -> dict:
        return {
            "center": [self.circle.center.real, self.circle.center.imag],
            "radius": self.circle.radius,
            "start_angle": self.start_angle,
            "end_angle": self.end_angle,
            "ccw": self.ccw,
        }


@dataclass
class ContourSystem:
    arcs: list[Arc]
    loops: list[int]
    total_length: float
    orientation_certificate: dict[complex, int] = field(default_factory=dict)
    scale: float = 1.0

    @property
    def n_loops(self) -> int:
        return max(self.loops) + 1 if self.loops else 0

    def loop_arcs(self, i: int) -> list[Arc]:
        return [a for a, l in zip(self.arcs, self.loops) if l == i]

    def to_json_dict(self) -> dict:
        return {
            "arcs": [a.to_json_dict() for a in self.arcs],
            "loops": list(self.loops),
            "total_length": self.total_length,
            "n_loops": self.n_loops,
        }


# ---------------------------------------------------------------------------
# membership predicates


def membership(kind: RegionKind, rootsA: RootSet, rootsB: RootSet, z):
    """Pointwise region predicate; `z` may be a scalar or an ndarray."""
    alphas = np.asarray(rootsA.roots)
    betas = np.asarray(rootsB.roots)
    zz = np.asarray(z, dtype=complex)

    def distances(centers):
        # filled one center at a time: a broadcast difference would hold a
        # complex temporary twice the size of the result
        out = np.empty(zz.shape + centers.shape)
        for i, a in enumerate(centers):
            out[..., i] = np.abs(zz - a)
        return out

    def e_region(centers, others):
        # every root b of `others` needs a center a with |z - a| < |b - a| / 3
        dist = distances(centers)
        ok = np.ones(zz.shape, dtype=bool)
        for radii in np.abs(others[:, None] - centers[None, :]) / 3.0:
            ok &= np.any(dist < radii, axis=-1)
        return ok

    def d_region(centers):
        return np.any(distances(centers) < 0.75 * np.abs(centers), axis=-1)

    if kind == RegionKind.E_A:
        res = e_region(alphas, betas)
    elif kind == RegionKind.E_B:
        res = e_region(betas, alphas)
    elif kind == RegionKind.D_A:
        res = d_region(alphas)
    elif kind == RegionKind.GAMMA1:
        res = e_region(alphas, betas) & d_region(alphas)
    elif kind == RegionKind.GAMMA1_INVERTED:
        safe = np.abs(zz) > 1e-300
        inv = np.where(safe, 1.0 / np.where(safe, zz, 1.0), 0.0)
        res = membership(RegionKind.GAMMA1, rootsA, rootsB, inv) & safe
    else:
        raise ValueError(f"unknown region kind {kind}")
    if np.isscalar(z) or np.asarray(z).shape == ():
        return bool(res)
    return res


def _circles_for(kind: RegionKind, alphas, betas, scale: float) -> list[Disk]:
    circles: list[Disk] = []
    if kind in (RegionKind.E_A, RegionKind.GAMMA1):
        for b in betas:
            for a in alphas:
                r = abs(b - a) / 3.0
                if r <= 0:
                    raise DegenerateArrangement(
                        "coincident roots of A and B give a radius-0 disk"
                    )
                circles.append(Disk(a, r))
    if kind == RegionKind.E_B:
        for a in alphas:
            for b in betas:
                r = abs(a - b) / 3.0
                if r <= 0:
                    raise DegenerateArrangement(
                        "coincident roots of A and B give a radius-0 disk"
                    )
                circles.append(Disk(b, r))
    if kind in (RegionKind.D_A, RegionKind.GAMMA1):
        for a in alphas:
            if abs(a) < 1e-12 * scale:
                raise DegenerateArrangement(
                    "a root of A lies at the origin; use the Sylvester backend"
                )
            circles.append(Disk(a, 0.75 * abs(a)))
    return circles


# ---------------------------------------------------------------------------
# complex arithmetic on (real, imaginary) arrays
#
# Arc angles and endpoints are stored, so they must round exactly as the
# scalar complex expressions that define them (Arc.point). CPython promotes
# the float in `float * complex` and `complex / float` to a complex with a
# zero imaginary part, and those zero products keep their signs; `abs` of a
# complex is hypot. numpy's complex multiply, divide and abs round
# differently, so the products are spelled out here.


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _scaled(f, re, im):
    """f * (re + i im) for real f."""
    return f * re - 0.0 * im, f * im + 0.0 * re


def _divided(re, im, f):
    """(re + i im) / f for real f > 0."""
    return (re + im * 0.0) / f, (im - re * 0.0) / f


def _on_circle(cx, cy, radius, theta):
    """center + radius * exp(i theta)."""
    e = np.exp(1j * theta)
    re, im = _scaled(radius, e.real, e.imag)
    return cx + re, cy + im


# ---------------------------------------------------------------------------
# arrangement: circles, cuts, candidate arcs


def _dedupe_circles(circles: list[Disk], tol: float) -> list[Disk]:
    """The circles in order, without those within tol (center and radius) of
    an earlier kept circle."""
    c = np.array([d.center for d in circles], dtype=complex)
    r = np.array([d.radius for d in circles], dtype=float)
    dc = c[:, None] - c[None, :]
    near = (np.hypot(dc.real, dc.imag) <= tol) & (np.abs(r[:, None] - r) <= tol)
    near = np.tril(near, -1)
    keep = ~near.any(axis=1)
    # a repeat is dropped only when a circle it repeats was kept
    for i in np.flatnonzero(~keep):
        keep[i] = not np.any(near[i, :i] & keep[:i])
    return [d for d, k in zip(circles, keep) if k]


def _circle_intersections(cx, cy, radii, scale: float):
    """Transversal intersection points of all circle pairs i < j, as arrays
    (owner, x, y): each pair lists its two points for circle i, then for
    circle j, pairs in row-major order. Raises DegenerateArrangement at the
    first (near-)tangent pair in that order."""
    i, j = np.triu_indices(len(radii), 1)
    dx, dy = cx[j] - cx[i], cy[j] - cy[i]
    d = np.hypot(dx, dy)
    r1, r2 = radii[i], radii[j]
    disc = np.minimum(r1 + r2 - d, d - np.abs(r1 - r2))
    tangent = np.abs(disc) < TANGENCY_TOL * scale
    if tangent.any():
        k = int(np.argmax(tangent))
        c1, c2 = complex(cx[i[k]], cy[i[k]]), complex(cx[j[k]], cy[j[k]])
        raise DegenerateArrangement(f"tangent circles at centers {c1:.6g}, {c2:.6g}")
    meet = ~(disc < 0)
    i, j, dx, dy, d = i[meet], j[meet], dx[meet], dy[meet], d[meet]
    # r**2 as Python's float power rounds it
    rsq = np.array([r**2 for r in radii.tolist()])
    ex, ey = _divided(dx, dy, d)
    a = (d * d + rsq[i] - rsq[j]) / (2 * d)
    hsq = rsq[i] - a * a
    h = np.sqrt(np.where(0.0 > hsq, 0.0, hsq))
    bx, by = _scaled(a, ex, ey)
    bx, by = cx[i] + bx, cy[i] + by
    # off = (1j * h) * e
    hr, hi = 0.0 * h - 0.0, 0.0 + h
    ox, oy = hr * ex - hi * ey, hr * ey + hi * ex
    owner = np.array([i, i, j, j]).T.ravel()
    x = np.array([bx + ox, bx - ox, bx + ox, bx - ox]).T.ravel()
    y = np.array([by + oy, by - oy, by + oy, by - oy]).T.ravel()
    return owner, x, y


def _group_edges(owner):
    """Masks of the first and the last entry of each run of equal owners."""
    first = np.ones(len(owner), dtype=bool)
    last = np.ones(len(owner), dtype=bool)
    first[1:] = last[:-1] = owner[1:] != owner[:-1]
    return first, last


def _split_angles(owner, angle, radii, chord_tol: float):
    """Cut angles per circle, sorted, with near-duplicates merged: an angle
    within chord_tol / radius of the last kept one on its circle is dropped,
    and so is the last one when it comes that close to the first one a turn
    later. Takes and returns (owner, angle) arrays grouped by owner."""
    order = np.argsort(angle, kind="stable")
    order = order[np.argsort(owner[order], kind="stable")]
    owner, angle = owner[order], angle[order]
    tol = chord_tol / radii[owner]
    keep, _ = _group_edges(owner)
    keep[1:] |= angle[1:] - angle[:-1] > tol[1:]
    # circles with close cuts: keep an angle only if it clears the last kept
    for ci in np.unique(owner[~keep]):
        rows = np.flatnonzero(owner == ci)
        prev = angle[rows[0]]
        for row in rows[1:]:
            keep[row] = angle[row] - prev > tol[row]
            if keep[row]:
                prev = angle[row]
    owner, angle, tol = owner[keep], angle[keep], tol[keep]
    first, last = _group_edges(owner)
    starts, ends = np.flatnonzero(first), np.flatnonzero(last)
    wrap = (ends > starts) & (angle[starts] + 2 * math.pi - angle[ends] <= tol[ends])
    keep = np.ones(len(owner), dtype=bool)
    keep[ends[wrap]] = False
    return owner[keep], angle[keep]


def _candidate_arcs(n_circles: int, owner, angle):
    """Arcs between consecutive cuts around each circle as (owner, start,
    end) arrays, by circle and then by angle; a circle without cuts gives
    one full arc from -pi to pi."""
    first, last = _group_edges(owner)
    end = np.empty_like(angle)
    end[:-1] = angle[1:]
    end[last] = angle[first] + 2 * math.pi
    ok = end - angle > 1e-14
    uncut = np.flatnonzero(np.bincount(owner, minlength=n_circles) == 0)
    owner = np.concatenate([owner[ok], uncut])
    start = np.concatenate([angle[ok], np.full(len(uncut), -math.pi)])
    end = np.concatenate([end[ok], np.full(len(uncut), math.pi)])
    order = np.argsort(owner, kind="stable")
    return owner[order], start[order], end[order]


_CLEARANCE_BLOCK = 64


def _probe_clearance(mx, my, owner, cx, cy, radii, scale: float, limit):
    """Per candidate, the distance |abs(mid - c) - r| from its midpoint to
    the nearest circle other than its own where that is at most `limit`, and
    inf where a screen shows it is larger. The screen works in units of
    `scale` with sqrt(dx^2 + dy^2), within 1e-14 * scale of the exact form
    and several times faster than hypot. Candidates go in blocks: candidates
    x circles at once would hold a matrix several times the size of the
    arrangement."""
    sx, sy, sr = cx / scale, cy / scale, radii / scale
    smx, smy = mx / scale, my / scale
    out = np.full(len(owner), math.inf)
    for lo in range(0, len(owner), _CLEARANCE_BLOCK):
        rows = np.arange(lo, min(lo + _CLEARANCE_BLOCK, len(owner)))
        dx, dy = smx[rows, None] - sx, smy[rows, None] - sy
        gap = np.abs(np.sqrt(dx * dx + dy * dy) - sr)
        gap[np.arange(len(rows)), owner[rows]] = math.inf
        rows = rows[~(gap.min(axis=1, initial=math.inf) > limit[rows] / scale + 1e-12)]
        gap = np.abs(np.hypot(mx[rows, None] - cx, my[rows, None] - cy) - radii)
        gap[np.arange(len(rows)), owner[rows]] = math.inf
        out[rows] = gap.min(axis=1, initial=math.inf)
    return out


# ---------------------------------------------------------------------------
# exact winding accumulation, all arcs against all query points


class _ArcTable(NamedTuple):
    """Arc parameters as arrays, one entry per arc; the start, end and
    midpoints round as Arc.point gives them."""

    center: np.ndarray
    radius: np.ndarray
    start: np.ndarray
    end: np.ndarray
    full: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    mid: np.ndarray


def _arc_table(arcs: list[Arc]) -> _ArcTable:
    rows = np.array(
        [(a.circle.center, a.circle.radius, a.start_angle, a.end_angle) for a in arcs],
        dtype=complex,
    ).reshape(-1, 4)
    return _table(rows[:, 0], rows[:, 1].real, rows[:, 2].real, rows[:, 3].real)


def _table(center, radius, start, end) -> _ArcTable:
    sweep = end - start
    # start, end and midpoint, as Arc.point(0.0), point(1.0) and point(0.5)
    theta = start + np.array([[0.0], [1.0], [0.5]]) * sweep
    p0, p1, mid = _complex(*_on_circle(center.real, center.imag, radius, theta))
    full = np.abs(np.abs(sweep) - 2 * math.pi) < 1e-12
    return _ArcTable(center, radius, start, end, full, p0, p1, mid)


def _hypot(z):
    return np.hypot(z.real, z.imag)


def _delta_args(t: _ArcTable, z: np.ndarray) -> np.ndarray:
    """Continuous increment of arg(zeta - z) along each arc (columns) for each
    point (rows): the principal chord angle, plus a full turn in the
    direction of the sweep when z sits inside the circular segment between
    chord and arc; full circles add a turn about interior points."""
    zc = z[:, None]
    turn = np.copysign(2 * math.pi, t.end - t.start)
    inside = _hypot(zc - t.center) < t.radius
    with np.errstate(divide="ignore", invalid="ignore"):
        principal = np.angle((t.p1 - zc) / (t.p0 - zc))
    chord = np.conj(t.p1 - t.p0)
    side_z = (chord * (zc - t.p0)).imag
    side_m = (chord * (t.mid - t.p0)).imag
    segment = inside & (side_z * side_m > 0)
    return np.where(
        t.full, np.where(inside, turn, 0.0), principal + np.where(segment, turn, 0.0)
    )


_TURN_SHIFTS = np.array([-2 * math.pi, 0.0, 2 * math.pi])


def _distances(t: _ArcTable, z: np.ndarray) -> np.ndarray:
    """Distance from each point (rows) to each arc (columns)."""
    v = z[:, None] - t.center
    radial = np.abs(_hypot(v) - t.radius)
    phi = np.arctan2(v.imag, v.real)[..., None] + _TURN_SHIFTS
    lo = np.minimum(t.start, t.end)[:, None]
    hi = np.maximum(t.start, t.end)[:, None]
    on_span = t.full | np.any((lo <= phi) & (phi <= hi), axis=-1)
    ends = np.minimum(_hypot(z[:, None] - t.p0), _hypot(z[:, None] - t.p1))
    return np.where(on_span, radial, ends)


def contour_distance(arcs: list[Arc], z: complex) -> float:
    return float(np.min(_distances(_arc_table(arcs), np.array([z], dtype=complex))))


def winding_of_arcs(arcs: list[Arc], z: complex) -> float:
    deltas = _delta_args(_arc_table(arcs), np.array([z], dtype=complex))
    return float(np.sum(deltas) / (2 * math.pi))


def _integer_windings(table: _ArcTable, scale: float, points):
    """Integer winding numbers about the points up to the first point that
    has none, plus the error for that point (None when every point has one):
    OnContourError within POINT_TOL * scale of the arcs, else ArithmeticError
    when the accumulation is not within WINDING_INT_TOL of an integer."""
    points = list(points)
    z = np.array(points, dtype=complex).reshape(-1)
    near = np.min(_distances(table, z), axis=1) <= POINT_TOL * scale
    w = np.sum(_delta_args(table, z), axis=1) / (2 * math.pi)
    k = np.round(w)
    bad = near | ~(np.abs(w - k) <= WINDING_INT_TOL)
    n = int(np.argmax(bad)) if bad.any() else len(points)
    ks = k[:n].astype(int)
    if n == len(points):
        return ks, None
    if near[n]:
        return ks, OnContourError(f"point {points[n]:.6g} lies on the contour")
    return ks, ArithmeticError(
        f"winding accumulation {float(w[n])} is not close to an integer"
    )


def winding_numbers(contour: ContourSystem, points) -> np.ndarray:
    """Integer winding numbers of the whole system about each point, all arcs
    against all points at once. Raises for the first point that lies on the
    contour (OnContourError) or gets a non-integer accumulation."""
    ks, err = _integer_windings(_arc_table(contour.arcs), contour.scale, points)
    if err is not None:
        raise err
    return ks


def _first_winding_mismatch(
    contour: ContourSystem, points, expected, table: _ArcTable | None = None
) -> tuple[int, int] | None:
    """(index, winding) of the first point whose winding number is not the
    expected one, or None. A point without a winding number raises instead
    when it comes first, so checking point after point fails the same way.
    `table` is the contour's arc table when the caller has it."""
    if table is None:
        table = _arc_table(contour.arcs)
    ks, err = _integer_windings(table, contour.scale, points)
    for i, (w, want) in enumerate(zip(ks.tolist(), expected)):
        if w != want:
            return i, w
    if err is not None:
        raise err
    return None


# ---------------------------------------------------------------------------
# construction


def _chain_loops(start, end, tol: float) -> tuple[list[int], list[int]]:
    """Order arcs into closed loops by matching endpoints within tol.

    Takes the start and end points of the arcs and returns the arc indices
    so that each loop is a contiguous block in traversal order, plus the loop
    index per arc. Each step takes the unused arc whose start is nearest to
    the current end, the last such arc on ties.
    """
    n = len(start)
    gap = np.hypot(
        start.real[None, :] - end.real[:, None], start.imag[None, :] - end.imag[:, None]
    )
    used = np.zeros(n, dtype=bool)
    order: list[int] = []
    loop_ids: list[int] = []
    loop_id = 0
    for seed in range(n):
        if used[seed]:
            continue
        used[seed] = True
        chain = [seed]
        while True:
            last = chain[-1]
            closed = gap[last, seed] <= tol
            if closed and len(chain) > 1:
                break
            row = np.where(used, math.inf, gap[last])
            best = n - 1 - int(np.argmin(row[::-1]))
            if not row[best] <= tol:
                # single full-circle arcs close onto themselves
                if closed:
                    break
                raise DegenerateArrangement(
                    f"open arc chain near {complex(end[last]):.6g}; loop did not close"
                )
            used[best] = True
            chain.append(best)
        order.extend(chain)
        loop_ids.extend([loop_id] * len(chain))
        loop_id += 1
    return order, loop_ids


def _check_loop_consistency(table: _ArcTable, loops: list[int], scale: float) -> None:
    """Every loop must see total winding 1 just inside itself and 0 just
    outside. Holes (nested loops bounding a complement component) satisfy
    this automatically under the per-arc ccw orientation; anything else is an
    unsupported nesting structure."""
    n_loops = max(loops) + 1 if loops else 0
    first = [loops.index(li) for li in range(n_loops)]
    c, r = table.center[first], table.radius[first]
    u = (table.mid[first] - c) / r
    h = np.minimum(PROBE_OFFSET * scale, 0.3 * r)
    # per loop, the probe inside and then the one outside its first arc
    probes = np.stack([c + (r - h) * u, c + (r + h) * u], axis=1).ravel()
    expected = [1, 0] * n_loops
    windings = np.sum(_delta_args(table, probes), axis=1) / (2 * math.pi)
    for k, (w, want) in enumerate(zip(windings.tolist(), expected)):
        w = round(w)
        if w != want:
            raise ContourNestingError(
                f"loop {k // 2} winding probe at {probes[k]:.6g} gives {w}, "
                f"expected {want}; unsupported nesting structure"
            )


def build_region(
    kind: RegionKind, rootsA: RootSet, rootsB: RootSet
) -> ContourSystem:
    """Oriented boundary of the requested region as chained circular arcs.

    Every circle of the arrangement is split at all pairwise intersection
    points; a sub-arc survives iff its midpoint offset inward lies in the
    region and offset outward does not. Kept arcs run counterclockwise around
    their own circles, which orients the boundary positively (interior
    winding +1). Identical circles (symmetric configurations produce them)
    are merged before intersection tests. The construction works on arrays
    (all circle pairs, all cuts, all candidate arcs at once), and its arcs
    round exactly as the scalar expressions that define them.
    """
    if kind == RegionKind.GAMMA1_INVERTED:
        inner = build_region(RegionKind.GAMMA1, rootsA, rootsB)
        try:
            inverted = invert_contour(inner)
        except OriginTooClose as exc:
            raise OriginInRegionError(str(exc)) from exc
        probes = {}
        for a in rootsA.roots:
            probes[1.0 / a] = 1
        for b in rootsB.roots:
            probes[1.0 / b] = 0
        _certify(inverted, probes)
        return inverted

    alphas = list(rootsA.roots)
    betas = list(rootsB.roots)
    scale = 1.0 + max(abs(r) for r in alphas + betas)
    circles = _dedupe_circles(
        _circles_for(kind, alphas, betas, scale), POINT_TOL * scale
    )
    centers = np.array([c.center for c in circles], dtype=complex)
    cx, cy = centers.real, centers.imag
    radii = np.array([c.radius for c in circles], dtype=float)

    owner, px, py = _circle_intersections(cx, cy, radii, scale)
    # math.atan2, not np.arctan2: the two differ in the last bit
    angle = np.fromiter(
        map(math.atan2, py - cy[owner], px - cx[owner]), dtype=float, count=len(owner)
    )
    owner, angle = _split_angles(owner, angle, radii, POINT_TOL * scale)
    owner, t0, t1 = _candidate_arcs(len(circles), owner, angle)

    ox, oy, r = cx[owner], cy[owner], radii[owner]
    mx, my = _on_circle(ox, oy, r, t0 + 0.5 * (t1 - t0))
    ux, uy = _divided(mx - ox, my - oy, np.hypot(mx - ox, my - oy))
    # probes must not jump across another circle that passes close to this
    # arc (near-tangent configurations), so the offset shrinks below the
    # local clearance
    h = np.minimum(PROBE_OFFSET * scale, 0.3 * r)
    clearance = _probe_clearance(mx, my, owner, cx, cy, radii, scale, 4.0 * h)
    h = np.minimum(h, 0.25 * clearance)
    h = np.maximum(h, 64.0 * np.finfo(float).eps * scale)
    inner_outer = np.concatenate([
        _complex(ox + dx, oy + dy)
        for dx, dy in (_scaled(r - h, ux, uy), _scaled(r + h, ux, uy))
    ])
    mem_in, mem_out = np.split(membership(kind, rootsA, rootsB, inner_outer), 2)
    kept = np.flatnonzero(mem_in & ~mem_out)

    if not len(kept):
        raise DegenerateArrangement("region boundary is empty")

    owner = owner[kept]
    table = _table(centers[owner], radii[owner], t0[kept], t1[kept])
    order, loops = _chain_loops(table.p0, table.p1, POINT_TOL * scale)
    owner, table = owner[order], _ArcTable(*(col[order] for col in table))
    arcs = [
        Arc(circles[o], t_0, t_1)
        for o, t_0, t_1 in zip(owner.tolist(), table.start.tolist(), table.end.tolist())
    ]
    _check_loop_consistency(table, loops, scale)
    total_length = sum(a.length for a in arcs)

    contour = ContourSystem(
        arcs=arcs, loops=loops, total_length=total_length, scale=scale
    )
    probes: dict[complex, int] = {}
    if kind in (RegionKind.E_A, RegionKind.D_A, RegionKind.GAMMA1):
        for a in alphas:
            probes[complex(a)] = 1
    if kind == RegionKind.E_B:
        for b in betas:
            probes[complex(b)] = 1
        for a in alphas:
            probes[complex(a)] = 0
    if kind in (RegionKind.E_A, RegionKind.GAMMA1):
        for b in betas:
            probes[complex(b)] = 0
    _certify(contour, probes, table)
    return contour


def _certify(
    contour: ContourSystem, probes: dict[complex, int], table: _ArcTable | None = None
) -> None:
    mismatch = _first_winding_mismatch(contour, probes, probes.values(), table)
    if mismatch is not None:
        i, w = mismatch
        z, expected = list(probes.items())[i]
        raise DegenerateArrangement(
            f"winding certificate failed at {z:.6g}: got {w}, "
            f"expected {expected}"
        )
    contour.orientation_certificate = dict(probes)


# ---------------------------------------------------------------------------
# inversion z -> 1/z


def _invert_arc(arc: Arc, scale: float) -> Arc:
    c, r = arc.circle.center, arc.circle.radius
    q = abs(c) ** 2 - r * r
    if abs(q) < 1e-12 * scale * scale:
        raise OriginTooClose(
            "parent circle passes through the origin; image would be a line"
        )
    m = c.conjugate() / q
    rho = r / abs(q)
    img = Disk(m, rho)

    if arc.is_full_circle:
        w0 = 1.0 / arc.point(0.0)
        wq = 1.0 / arc.point(0.25)
        phi0 = cmath.phase(w0 - m)
        phiq = cmath.phase((wq - m) / (w0 - m))
        ccw = phiq > 0
        end = phi0 + (2 * math.pi if ccw else -2 * math.pi)
        return Arc(img, phi0, end, ccw)

    w0 = 1.0 / arc.start_point
    w1 = 1.0 / arc.end_point
    wm = 1.0 / arc.point(0.5)
    phi0 = cmath.phase(w0 - m)
    phi1 = cmath.phase(w1 - m)
    phim = cmath.phase(wm - m)
    ccw_sweep = (phi1 - phi0) % (2 * math.pi)
    mid_ccw = (phim - phi0) % (2 * math.pi)
    if mid_ccw <= ccw_sweep:
        return Arc(img, phi0, phi0 + ccw_sweep, True)
    cw_sweep = (phi0 - phi1) % (2 * math.pi)
    return Arc(img, phi0, phi0 - cw_sweep, False)


def invert_contour(contour: ContourSystem) -> ContourSystem:
    """Image of the contour under z -> 1/z (circles map to circles).

    Requires the origin to be strictly off the arcs; parent circles through
    the origin would invert to lines and are rejected. Inversion is conformal
    away from 0, so loops not enclosing the origin keep their windings at
    image points. A loop that does enclose the origin has every image winding
    shifted by its winding about 0 (Delta arg(1/z - 1/z0) = Delta arg(z0 - z)
    - Delta arg(z)); such loops are flipped so their bounded side winds +1.
    """
    tol = POINT_TOL * contour.scale
    if contour_distance(contour.arcs, 0.0) <= tol:
        raise OriginTooClose("origin lies on (or within tolerance of) the contour")
    arcs: list[Arc] = []
    loops: list[int] = []
    n_loops = max(contour.loops) + 1 if contour.loops else 0
    for li in range(n_loops):
        block = contour.loop_arcs(li)
        image = [_invert_arc(a, contour.scale) for a in block]
        w0 = round(winding_of_arcs(block, 0.0))
        if w0 != 0:
            image = [a.reversed() for a in reversed(image)]
        arcs.extend(image)
        loops.extend([li] * len(image))
    total_length = sum(a.length for a in arcs)
    pts = [a.start_point for a in arcs] + [a.end_point for a in arcs]
    scale = 1.0 + max(abs(p) for p in pts)
    return ContourSystem(
        arcs=arcs,
        loops=loops,
        total_length=total_length,
        orientation_certificate={},
        scale=scale,
    )


# ---------------------------------------------------------------------------
# metrics


@dataclass
class ContourMetrics:
    total_length: float
    log_derivative_integral: float  # integral of |du| / |u|
    min_abs_a: float
    min_abs_b: float
    bound_log_integral: float  # 6 pi N^(K+1)
    lower_a: float  # min(C5 * norm(A) / 2^N, delta / 3^N)
    lower_b: float  # delta / 3^K
    c5: float
    c5_formula: str
    a_bound_ok: bool
    b_bound_ok: bool
    log_integral_ok: bool

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    (leggauss solves an eigenproblem each call) and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _arc_quadrature_real(arc: Arc, f, start_order: int = 16, tol: float = 1e-9) -> float:
    """Integral of f(zeta) * |dzeta| over the arc with order doubling."""
    c, r = arc.circle.center, arc.circle.radius
    t0, t1 = arc.start_angle, arc.end_angle
    lo, hi = min(t0, t1), max(t0, t1)
    prev = None
    order = start_order
    while order <= 2048:
        nodes, weights = gauss_legendre(order)
        theta = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        vals = f(c + r * np.exp(1j * theta))
        total = float(np.sum(weights * vals) * 0.5 * (hi - lo) * r)
        if prev is not None and abs(total - prev) <= tol * (1.0 + abs(total)):
            return total
        prev = total
        order *= 2
    return prev


def contour_metrics(
    contour: ContourSystem, pair: Pair, delta_value: float
) -> ContourMetrics:
    """Length, the scale-invariant integral of |du|/|u|, and the lower bounds
    on |A| and |B| along the contour. Violated bounds are reported, not
    raised; they validate the theory rather than gate the build."""
    A, B, n, k = pair.A, pair.B, pair.N, pair.K

    log_int = sum(
        _arc_quadrature_real(a, lambda z: 1.0 / np.abs(z)) for a in contour.arcs
    )

    # m midpoint samples per arc, at least 16 and 64 per half turn
    table = _arc_table(contour.arcs)
    sweep = table.end - table.start
    m = np.maximum(16, (64 * np.abs(sweep) / math.pi).astype(int))
    arc = np.repeat(np.arange(len(m)), m)
    sample = np.arange(len(arc)) - np.repeat(np.cumsum(m) - m, m)
    theta = table.start[arc] + (sample + 0.5) / m[arc] * sweep[arc]
    center = table.center[arc]
    zs = _complex(*_on_circle(center.real, center.imag, table.radius[arc], theta))
    min_a = float(np.min(np.abs(A(zs)), initial=math.inf))
    min_b = float(np.min(np.abs(B(zs)), initial=math.inf))

    eps = 1.0 / (4.0 * (n + k + 2.0))
    c5 = min(1.0, eps**n)
    lower_a = min(c5 * A.norm() / 2.0**n, delta_value / 3.0**n)
    lower_b = delta_value / 3.0**k
    bound_log = 6.0 * math.pi * n ** (k + 1)
    tol = 1e-9 * (1.0 + max(min_a, min_b))
    return ContourMetrics(
        total_length=contour.total_length,
        log_derivative_integral=log_int,
        min_abs_a=min_a,
        min_abs_b=min_b,
        bound_log_integral=bound_log,
        lower_a=lower_a,
        lower_b=lower_b,
        c5=c5,
        c5_formula="min(1, eps^N) with eps = 1/(4(N+K+2)), from Cauchy "
        "coefficient estimates on |z| <= eps",
        a_bound_ok=min_a >= lower_a - tol,
        b_bound_ok=min_b >= lower_b - tol,
        log_integral_ok=log_int <= bound_log + 1e-9 * bound_log,
    )


def build_region_with_jitter(
    kind: RegionKind,
    rootsA: RootSet,
    rootsB: RootSet,
) -> ContourSystem:
    """build_region, retrying degenerate arrangements up to 4 times with tiny
    root jitter.

    Jitter only perturbs the contour; any admissible contour is equally valid
    for winding and quadrature purposes, and 1e-9 offsets cannot move a
    winding number.
    """
    from dataclasses import replace

    last: DegenerateArrangement | None = None
    ra, rb = rootsA, rootsB
    for attempt in range(4):
        try:
            return build_region(kind, ra, rb)
        except DegenerateArrangement as exc:
            last = exc
            scale = 1.0 + max(
                abs(r) for r in rootsA.roots + rootsB.roots
            )
            step = 1e-9 * scale * (attempt + 1)
            ra = replace(
                rootsA,
                roots=tuple(
                    r + step * cmath.exp(2j * math.pi * (i + 0.21 * attempt) / 7.3)
                    for i, r in enumerate(rootsA.roots)
                ),
            )
            rb = replace(
                rootsB,
                roots=tuple(
                    r + step * cmath.exp(2j * math.pi * (i + 0.37 * attempt) / 5.1)
                    for i, r in enumerate(rootsB.roots)
                ),
            )
    raise last

"""Disk-arrangement regions and their oriented circular-arc boundaries.

The regions built here are monotone boolean combinations (unions and
intersections, never complements) of open disks around the roots of A and B.
Each kind is stated once: `_region_disks` gives its disks and `region_probes`
the winding number its boundary must have about each root. The circles of
the arrangement, the arcs it keeps and every orientation certificate read
these two.

Because the combination is monotone, the region always lies locally on the
inner side of every boundary circle, so orienting every kept arc
counterclockwise around its own circle puts the region on its left. Windings
add over arcs, so the kept arcs together wind +1 about every interior point
and 0 about every exterior point, however their loops nest; the winding
certificate about the roots is the one check a build makes of its result.

Construction first drops the circles that cannot carry the boundary: those
whose band of half-width m = LIVE_MARGIN * scale lies inside one disk of
every row of `_region_disks`, or misses every disk of some row. Near such a
dead circle the region does not depend on that circle's disks, so dropping
it moves no kept arc: the contour is the one all circles give. The band lies
wholly inside or wholly outside the region, so no point where another circle
touches a dead one is on the contour, and tangency is checked only among the
live circles. Each live circle is then split at its intersections with the
other live circles. No live circle crosses a sub-arc between two
consecutive cuts, so the disk inequalities at its midpoint decide it
exactly: the sub-arc is kept iff the midpoint is in the region with the
arc's own disks counted as holding it, and out of the region with them
counted as missing it. The construction works on numpy arrays: all circle
pairs, all cut angles and all candidate arcs at once.

A ContourSystem is one table of arcs: arrays of centers, radii, start and end
angles, plus a loop index per arc. Everything that reads a contour (windings,
certificates, inversion, SVG, and backends' quadrature and metrics) reads
these arrays, or their rows as Python numbers. This module is geometry on
root sets alone: it imports nothing from sylvester or backends.

Winding numbers are computed exactly per arc: the argument increment along an
arc equals the principal angle of the chord plus a +-2*pi correction when the
query point lies in the circular segment between chord and arc. No quadrature
or subdivision is involved. The queries take the contour's endpoints and
midpoints (ContourSystem.table, derived once per contour) and run all arcs
against all query points in one pass (winding_numbers); a build checks its
certificate in one such pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateArrangement,
    OnContourError,
    OriginInRegionError,
    OriginTooClose,
)
from .roots import RootSet

TANGENCY_TOL = 1e-12
POINT_TOL = 1e-9
LIVE_MARGIN = 1e-6
WINDING_INT_TOL = 1e-6


class RegionKind(str, Enum):
    E_A = "E_A"
    E_B = "E_B"
    D_A = "D_A"
    GAMMA1 = "D_A&E_A"
    GAMMA1_INVERTED = "inverted"


class _ArcTable(NamedTuple):
    """What the winding and distance queries derive from a contour's arcs,
    one entry per arc: whether it is a full circle, and its start, end and
    midpoint (the points at fractions 0, 1 and 0.5 of the arc)."""

    full: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    mid: np.ndarray


@dataclass(eq=False)
class ContourSystem:
    """Oriented circular arcs as one table: arc i runs on the circle
    (center[i], radius[i]) from angle start[i] to end[i], counterclockwise
    when end[i] > start[i] (the sweep's sign is the direction), and belongs
    to loop loops[i]. Each loop is a contiguous block in traversal order."""

    center: np.ndarray
    radius: np.ndarray
    start: np.ndarray
    end: np.ndarray
    loops: list[int]
    scale: float = 1.0
    orientation_certificate: dict[complex, int] = field(default_factory=dict)

    @property
    def n_loops(self) -> int:
        return max(self.loops) + 1 if self.loops else 0

    @property
    def total_length(self) -> float:
        """Sum of radius * |sweep| over the arcs, in arc order."""
        return float(np.sum(self.radius * np.abs(self.end - self.start)))

    @cached_property
    def table(self) -> _ArcTable:
        return _table(self.center, self.radius, self.start, self.end)

    def rows(self):
        """(center, radius, start, end) per arc, in order, as Python numbers."""
        return zip(
            self.center.tolist(), self.radius.tolist(),
            self.start.tolist(), self.end.tolist(),
        )

    def to_json_dict(self) -> dict:
        return {
            "arcs": [
                {"center": [c.real, c.imag], "radius": r, "start_angle": t0,
                 "end_angle": t1, "ccw": t1 > t0}
                for c, r, t0, t1 in self.rows()
            ],
            "loops": list(self.loops),
            "total_length": self.total_length,
            "n_loops": self.n_loops,
        }


def arc_points(center, radius, start, end, t):
    """The point at fraction t of the arc from start to end on the circle
    (center, radius), for scalars or arrays of arcs; t may be a column of
    fractions, one row of points each."""
    return center + radius * np.exp(1j * (start + t * (end - start)))


# ---------------------------------------------------------------------------
# the regions: their disks and the windings their boundaries certify


def _region_disks(
    kind: RegionKind, rootsA: RootSet, rootsB: RootSet
) -> tuple[np.ndarray, np.ndarray]:
    """The region as (centers, radii): z lies in it when every row i of radii
    has a column j with |z - centers[j]| < radii[i, j].

    E_A has one row per root b of B, with radii |b - a| / 3 around the roots
    a of A; E_B is the same with A and B swapped; D_A is one row with radii
    3|a| / 4; GAMMA1 is the rows of E_A and then the row of D_A."""
    if kind not in (RegionKind.E_A, RegionKind.E_B, RegionKind.D_A, RegionKind.GAMMA1):
        raise ValueError(f"unknown region kind {kind}")
    centers = np.array(rootsA.roots, dtype=complex)
    others = np.array(rootsB.roots, dtype=complex)
    if kind == RegionKind.E_B:
        centers, others = others, centers
    rows = np.abs(others[:, None] - centers) / 3
    d_row = 0.75 * np.abs(centers)[None, :]
    if kind == RegionKind.D_A:
        rows = d_row
    elif kind == RegionKind.GAMMA1:
        rows = np.concatenate([rows, d_row])
    return centers, rows


def region_probes(
    kind: RegionKind, rootsA: RootSet, rootsB: RootSet
) -> dict[complex, int]:
    """The winding number the region's boundary must have about each root: 1
    about the roots the region holds and 0 about those it excludes (D_A names
    only the roots of A). The inverted region names 1/root, for each root
    but those at 0: their image is the point at infinity, about which every
    bounded loop winds 0."""
    inside, outside = rootsA.roots, rootsB.roots
    if kind == RegionKind.E_B:
        inside, outside = outside, inside
    elif kind == RegionKind.D_A:
        outside = ()
    probes = {complex(r): 1 for r in inside} | {complex(r): 0 for r in outside}
    if kind == RegionKind.GAMMA1_INVERTED:
        return {1.0 / z: w for z, w in probes.items() if z != 0}
    return probes


# ---------------------------------------------------------------------------
# arrangement: circles, cuts, candidate arcs


def _distinct_circles(c: np.ndarray, r: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the circles (centers c, radii r) to keep: all but those within
    tol (center and radius) of an earlier kept circle."""
    near = (np.abs(c[:, None] - c) <= tol) & (np.abs(r[:, None] - r) <= tol)
    near = np.tril(near, -1)
    keep = ~near.any(axis=1)
    # a repeat is dropped only when a circle it repeats was kept
    for i in np.flatnonzero(~keep):
        keep[i] = not np.any(near[i, :i] & keep[:i])
    return keep


def _live_circles(centers, radii, region, margin: float) -> np.ndarray:
    """Mask of the circles (centers, radii) that can carry the region's
    boundary. A circle is dead when the band of half-width `margin` around it
    lies inside one disk of every row of the region (all of it is interior)
    or misses every disk of some row (none of it is). The circle's own disks
    neither hold the band nor belong to a row that misses it, so within the
    band the region does not depend on them: dropping the circle moves no
    kept arc, and no circle that touches it there touches the contour. All
    circles against all rows and centers in one broadcast: circle x row x
    center."""
    disk_c, disk_r = region
    d = np.abs(centers[:, None] - disk_c)[:, None, :]
    r = radii[:, None, None]
    inside = d + (r + margin) <= disk_r
    clear = np.abs(d - r) >= disk_r + margin
    return ~(inside.any(axis=2).all(axis=1) | clear.all(axis=2).any(axis=1))


def _circle_intersections(centers, radii, scale: float):
    """Transversal intersection points of the circle pairs i < j, as arrays
    (owner, point): each pair lists its two points for circle i, then for
    circle j, pairs in row-major order. Raises DegenerateArrangement at the
    first (near-)tangent pair in that order."""
    # the pairs as np.triu_indices(n, 1) orders them, at a fraction of its cost
    idx = np.arange(len(radii))
    i, j = np.nonzero(idx[:, None] < idx)
    dc = centers[j] - centers[i]
    d = np.abs(dc)
    r1, r2 = radii[i], radii[j]
    disc = np.minimum(r1 + r2 - d, d - np.abs(r1 - r2))
    tangent = np.abs(disc) < TANGENCY_TOL * scale
    if tangent.any():
        k = int(np.argmax(tangent))
        c1, c2 = complex(centers[i[k]]), complex(centers[j[k]])
        raise DegenerateArrangement(f"tangent circles at centers {c1:.6g}, {c2:.6g}")
    meet = ~(disc < 0)
    i, j, dc, d = i[meet], j[meet], dc[meet], d[meet]
    rsq = radii * radii
    a = (d * d + rsq[i] - rsq[j]) / (2 * d)
    h = np.sqrt(np.maximum(rsq[i] - a * a, 0.0))
    e = dc / d
    base = centers[i] + a * e
    off = 1j * h * e
    owner = np.array([i, i, j, j]).T.ravel()
    point = np.array([base + off, base - off, base + off, base - off]).T.ravel()
    return owner, point


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
    order = np.lexsort((angle, owner))
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


def _crosses(region, mid, owner, centers, radii, tol: float) -> np.ndarray:
    """Whether each candidate arc, on the circle (centers, radii)[owner] with
    midpoint mid, lies on the region's boundary: the midpoint is in the
    region when the arc's own disks (center and radius within tol of its
    circle) count as holding it, and out of it when they count as missing
    it. Every other disk is tested with the strict `<`. All candidates
    against all rows and centers in one broadcast: candidate x row x center
    (the own disks go circle x row x center first, then to the candidates)."""
    disk_c, disk_r = region
    own = (np.abs(centers[:, None] - disk_c) <= tol)[:, None, :] & (
        np.abs(radii[:, None, None] - disk_r) <= tol
    )
    own = own[owner]
    hit = np.abs(mid[:, None] - disk_c)[:, None, :] < disk_r
    held = (hit | own).any(axis=2).all(axis=1)
    hit &= ~own
    return held & ~hit.any(axis=2).all(axis=1)


# ---------------------------------------------------------------------------
# exact winding accumulation, all arcs against all query points

_TABLE_FRACTIONS = np.array([[0.0], [1.0], [0.5]])


def _table(center, radius, start, end) -> _ArcTable:
    # start, end and midpoint: the points at t = 0, 1 and 0.5
    p0, p1, mid = arc_points(center, radius, start, end, _TABLE_FRACTIONS)
    full = np.abs(np.abs(end - start) - 2 * math.pi) < 1e-12
    return _ArcTable(full, p0, p1, mid)


def _delta_args(contour: ContourSystem, z: np.ndarray) -> np.ndarray:
    """Continuous increment of arg(zeta - z) along each arc (columns) for each
    point (rows): the principal chord angle, plus a full turn in the
    direction of the sweep when z sits inside the circular segment between
    chord and arc; full circles add a turn about interior points."""
    c, t = contour, contour.table
    zc = z[:, None]
    turn = np.copysign(2 * math.pi, c.end - c.start)
    inside = np.abs(zc - c.center) < c.radius
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


def _distances(contour: ContourSystem, z: np.ndarray) -> np.ndarray:
    """Distance from each point (rows) to each arc (columns)."""
    c, t = contour, contour.table
    v = z[:, None] - c.center
    radial = np.abs(np.abs(v) - c.radius)
    phi = np.arctan2(v.imag, v.real)[..., None] + _TURN_SHIFTS
    lo = np.minimum(c.start, c.end)[:, None]
    hi = np.maximum(c.start, c.end)[:, None]
    on_span = t.full | np.any((lo <= phi) & (phi <= hi), axis=-1)
    ends = np.minimum(np.abs(z[:, None] - t.p0), np.abs(z[:, None] - t.p1))
    return np.where(on_span, radial, ends)


def _windings(contour: ContourSystem, points) -> tuple[np.ndarray, np.ndarray]:
    """The winding accumulation about each point, all arcs against all
    points at once, and whether the point lies within POINT_TOL * scale of
    the arcs."""
    z = np.array(points, dtype=complex).reshape(-1)
    tol = POINT_TOL * contour.scale
    # no arc is nearer to a point than its circle, so the arc distances are
    # needed only when some point is that near a circle
    circle = np.abs(np.abs(z[:, None] - contour.center) - contour.radius)
    near = np.min(circle, axis=1) <= tol
    if near.any():
        near = np.min(_distances(contour, z), axis=1) <= tol
    return np.sum(_delta_args(contour, z), axis=1) / (2 * math.pi), near


def _integer_windings(points: list, w: np.ndarray, near: np.ndarray):
    """Integer winding numbers from _windings up to the first point that has
    none, plus the error for that point (None when every point has one):
    OnContourError when it is near the arcs, else ArithmeticError when the
    accumulation is not within WINDING_INT_TOL of an integer."""
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
    points = list(points)
    ks, err = _integer_windings(points, *_windings(contour, points))
    if err is not None:
        raise err
    return ks


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
    gap = np.abs(start - end[:, None])
    # per arc, the (index, gap) of the starts within tol of its end, by index
    near: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    ends, starts = np.nonzero(gap <= tol)
    for e, s, g in zip(ends.tolist(), starts.tolist(), gap[ends, starts].tolist()):
        near[e].append((s, g))
    used = [False] * n
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
            closed = any(s == seed for s, _ in near[last])
            if closed and len(chain) > 1:
                break
            best, best_gap = -1, math.inf
            for s, g in near[last]:
                if not used[s] and g <= best_gap:
                    best, best_gap = s, g
            if best < 0:
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


def _scale(rootsA: RootSet, rootsB: RootSet) -> float:
    """1 + the largest root modulus: the length scale of the arrangement."""
    return 1.0 + max(abs(r) for r in rootsA.roots + rootsB.roots)


def build_region(
    kind: RegionKind, rootsA: RootSet, rootsB: RootSet
) -> ContourSystem:
    """Oriented boundary of the requested region as chained circular arcs.

    Only the live circles go on (_live_circles with margin
    m = LIVE_MARGIN * scale): near a dead one the region does not depend on
    its disks, so it can own or end no kept arc. Identical live circles
    (symmetric configurations produce them) are merged. A (near-)tangent
    pair of live circles raises DegenerateArrangement. Every live circle is
    split at its intersections with the other live circles, and a sub-arc
    survives iff its midpoint lies on the region's boundary (_crosses): in
    the region with the arc's own disks counted as holding it, out of it
    with them counted as missing it. Kept arcs run counterclockwise around their
    own circles, so the boundary winds +1 about interior points and 0 about
    exterior ones whatever its loops' nesting; the winding certificate about
    the roots (_certify) is the build's last step. The construction works on
    arrays.
    """
    if kind == RegionKind.GAMMA1_INVERTED:
        inner = build_region(RegionKind.GAMMA1, rootsA, rootsB)
        try:
            inverted = invert_contour(inner)
        except OriginTooClose as exc:
            raise OriginInRegionError(str(exc)) from exc
        _certify(inverted, region_probes(kind, rootsA, rootsB))
        return inverted

    scale = _scale(rootsA, rootsB)
    tol = POINT_TOL * scale
    region = _region_disks(kind, rootsA, rootsB)
    centers, radii = region
    d_row = kind in (RegionKind.D_A, RegionKind.GAMMA1)
    if (radii[: len(radii) - d_row] <= 0).any():
        raise DegenerateArrangement("coincident roots of A and B give a radius-0 disk")
    if d_row and any(abs(a) < 1e-12 * scale for a in rootsA.roots):
        raise DegenerateArrangement(
            "a root of A lies at the origin; use the Sylvester backend"
        )
    # the circles row by row
    centers, radii = np.broadcast_to(centers, radii.shape).ravel(), radii.ravel()
    live = _live_circles(centers, radii, region, LIVE_MARGIN * scale)
    centers, radii = centers[live], radii[live]
    keep = _distinct_circles(centers, radii, tol)
    centers, radii = centers[keep], radii[keep]
    owner, point = _circle_intersections(centers, radii, scale)
    owner, angle = _split_angles(owner, np.angle(point - centers[owner]), radii, tol)
    owner, t0, t1 = _candidate_arcs(len(radii), owner, angle)

    arcs = centers[owner], radii[owner], t0, t1
    mid = arc_points(*arcs, 0.5)
    kept = np.flatnonzero(_crosses(region, mid, owner, centers, radii, tol))

    if not len(kept):
        raise DegenerateArrangement("region boundary is empty")

    table = _table(*(col[kept] for col in arcs))
    order, loops = _chain_loops(table.p0, table.p1, tol)
    contour = ContourSystem(*(col[kept[order]] for col in arcs), loops, scale)
    contour.table = _ArcTable(*(col[order] for col in table))
    _certify(contour, region_probes(kind, rootsA, rootsB))
    return contour


def _certify(contour: ContourSystem, probes: dict[complex, int]) -> None:
    """Record probes (point -> winding) as the contour's orientation
    certificate once each point has that winding number. Raises
    DegenerateArrangement at the first point with another winding number,
    unless a point before it has none (the error of _integer_windings)."""
    points = list(probes)
    ks, err = _integer_windings(points, *_windings(contour, points))
    for (z, expected), k in zip(probes.items(), ks.tolist()):
        if k != expected:
            raise DegenerateArrangement(
                f"winding certificate failed at {z:.6g}: got {k}, "
                f"expected {expected}"
            )
    if err is not None:
        raise err
    contour.orientation_certificate = dict(probes)


# ---------------------------------------------------------------------------
# inversion z -> 1/z


# the arc's start, end, midpoint and (read for full circles) quarter point
_INVERT_FRACTIONS = np.array([0.0, 1.0, 0.5, 0.25])


def _invert_arc(c: complex, r: float, t0: float, t1: float, scale: float):
    """The image (center, radius, start, end) of one arc under z -> 1/z."""
    q = abs(c) ** 2 - r * r
    if abs(q) < 1e-12 * scale * scale:
        raise OriginTooClose(
            "parent circle passes through the origin; image would be a line"
        )
    m = c.conjugate() / q
    rho = r / abs(q)
    points = arc_points(c, r, t0, t1, _INVERT_FRACTIONS).tolist()
    w0, w1, wm, wq = [1.0 / p for p in points]

    if abs(abs(t1 - t0) - 2 * math.pi) < 1e-12:
        phi0 = cmath.phase(w0 - m)
        phiq = cmath.phase((wq - m) / (w0 - m))
        return m, rho, phi0, phi0 + (2 * math.pi if phiq > 0 else -2 * math.pi)

    phi0 = cmath.phase(w0 - m)
    phi1 = cmath.phase(w1 - m)
    phim = cmath.phase(wm - m)
    ccw_sweep = (phi1 - phi0) % (2 * math.pi)
    mid_ccw = (phim - phi0) % (2 * math.pi)
    if mid_ccw <= ccw_sweep:
        return m, rho, phi0, phi0 + ccw_sweep
    return m, rho, phi0, phi0 - (phi0 - phi1) % (2 * math.pi)


def invert_contour(contour: ContourSystem) -> ContourSystem:
    """Image of the contour under z -> 1/z (circles map to circles).

    Requires the origin to be strictly off the arcs; parent circles through
    the origin would invert to lines and are rejected. Inversion is conformal
    away from 0, so loops not enclosing the origin keep their windings at
    image points. A loop that does enclose the origin has every image winding
    shifted by its winding about 0 (Delta arg(1/z - 1/z0) = Delta arg(z0 - z)
    - Delta arg(z)); such loops are flipped so their bounded side winds +1.
    """
    origin = np.zeros(1, dtype=complex)
    if np.min(_distances(contour, origin)) <= POINT_TOL * contour.scale:
        raise OriginTooClose("origin lies on (or within tolerance of) the contour")
    about_origin = _delta_args(contour, origin)[0]
    rows = list(contour.rows())
    loop_of = np.array(contour.loops)
    image, loops = [], []
    for li in range(contour.n_loops):
        block = np.flatnonzero(loop_of == li)
        arcs = [_invert_arc(*rows[i], contour.scale) for i in block.tolist()]
        if round(float(np.sum(about_origin[block]) / (2 * math.pi))) != 0:
            arcs = [(m, rho, t1, t0) for m, rho, t0, t1 in reversed(arcs)]
        image += arcs
        loops += [li] * len(arcs)
    arcs = [np.array(col) for col in zip(*image)]
    # abs() of Python complex numbers: np.abs rounds some moduli differently
    ends = arc_points(*arcs, _TABLE_FRACTIONS[:2]).ravel().tolist()
    scale = 1.0 + max(map(abs, ends))
    return ContourSystem(*arcs, loops, scale)


def build_region_with_jitter(
    kind: RegionKind,
    rootsA: RootSet,
    rootsB: RootSet,
) -> ContourSystem:
    """build_region, retrying degenerate arrangements up to 4 times with tiny
    root jitter.

    Jitter only perturbs the contour; any admissible contour is equally valid
    for winding and quadrature purposes. A retried contour is certified again
    against the caller's roots, so every certificate names them; a wrong
    winding there fails the attempt.
    """
    last: DegenerateArrangement | None = None
    ra, rb = rootsA, rootsB
    for attempt in range(4):
        try:
            contour = build_region(kind, ra, rb)
            if attempt:
                _certify(contour, region_probes(kind, rootsA, rootsB))
            return contour
        except DegenerateArrangement as exc:
            last = exc
            step = 1e-9 * _scale(rootsA, rootsB) * (attempt + 1)
            ra, rb = (
                replace(roots, roots=tuple(
                    r + step * cmath.exp(2j * math.pi * (i + turn * attempt) / period)
                    for i, r in enumerate(roots.roots)
                ))
                for roots, turn, period in ((rootsA, 0.21, 7.3), (rootsB, 0.37, 5.1))
            )
    raise last

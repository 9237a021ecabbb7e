"""Disk-arrangement regions and their oriented circular-arc boundaries.

The regions built here are monotone boolean combinations (unions and
intersections, never complements) of open disks around the roots of A and B.
Each kind is stated once: `_region_disks` gives its disks and `region_probes`
the winding number its boundary must have about each root. Membership, the
circles of the arrangement and every orientation certificate read these two.

Because the combination is monotone, the region always lies locally on the
inner side of every boundary circle, so orienting every kept arc
counterclockwise around its own circle yields the positively oriented
boundary: winding +1 at interior points, 0 outside. Construction first drops
the circles that cannot carry the boundary: those whose band of half-width
m = 10 * PROBE_OFFSET * scale lies inside one disk of every row of
`_region_disks`, or misses every disk of some row. It splits each live circle
at its intersections with the other live circles and keeps a sub-arc iff a
probe just inside the circle is in the region while the matching probe just
outside is not. A dead circle is at least m from the boundary, and m exceeds
the probes' clearance window (4h) plus their offset h <= PROBE_OFFSET * scale,
so dropping it moves no kept arc, endpoint, clearance or probe: the contour
is the one all circles give. Tangency is still checked on all circles, so an
arrangement that was degenerate stays so. The construction works on arrays:
all circle pairs, all cut angles and all candidate arcs at once, with the
stored angles and endpoints rounded exactly as the scalar complex expressions
that define them (arc_point).

A ContourSystem is one table of arcs: arrays of centers, radii, start and end
angles, plus a loop index per arc. Everything that reads a contour (windings,
certificates, inversion, metrics, quadrature, SVG) reads these arrays, or
their rows as Python numbers.

Winding numbers are computed exactly per arc: the argument increment along an
arc equals the principal angle of the chord plus a +-2*pi correction when the
query point lies in the circular segment between chord and arc. No quadrature
or subdivision is involved. The queries take the contour's endpoints and
midpoints (ContourSystem.table, derived once per contour) and run all arcs
against all query points in one pass (winding_numbers); a build checks its
loops' nesting and its certificate in one such pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
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


class _ArcTable(NamedTuple):
    """What the winding and distance queries derive from a contour's arcs,
    one entry per arc: whether it is a full circle, and its start, end and
    midpoint, rounded as arc_point gives them."""

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
        return sum((self.radius * np.abs(self.end - self.start)).tolist())

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


def arc_point(center: complex, radius: float, start: float, end: float,
              t: float) -> complex:
    """The point at fraction t of the arc from start to end on the circle."""
    return center + radius * cmath.exp(1j * (start + t * (end - start)))


# ---------------------------------------------------------------------------
# the regions: their disks and the windings their boundaries certify


def _region_disks(
    kind: RegionKind, rootsA: RootSet, rootsB: RootSet
) -> tuple[np.ndarray, np.ndarray]:
    """The region as (centers, radii): z lies in it when every row i of radii
    has a column j with |z - centers[j]| < radii[i, j].

    E_A has one row per root b of B, with radii |b - a| / 3 around the roots
    a of A; E_B is the same with A and B swapped; D_A is one row with radii
    3|a| / 4; GAMMA1 is the rows of E_A and then the row of D_A. The radii
    are Python abs values, which the arcs built on them inherit."""
    if kind not in (RegionKind.E_A, RegionKind.E_B, RegionKind.D_A, RegionKind.GAMMA1):
        raise ValueError(f"unknown region kind {kind}")
    centers, others = rootsA.roots, rootsB.roots
    if kind == RegionKind.E_B:
        centers, others = others, centers
    rows = []
    if kind != RegionKind.D_A:
        rows = [[abs(b - a) / 3.0 for a in centers] for b in others]
    if kind in (RegionKind.D_A, RegionKind.GAMMA1):
        rows.append([0.75 * abs(a) for a in centers])
    return np.array(centers, dtype=complex), np.array(rows, dtype=float)


def region_probes(
    kind: RegionKind, rootsA: RootSet, rootsB: RootSet
) -> dict[complex, int]:
    """The winding number the region's boundary must have about each root: 1
    about the roots the region holds and 0 about those it excludes (D_A names
    only the roots of A). The inverted region names 1/root."""
    inside, outside = rootsA.roots, rootsB.roots
    if kind == RegionKind.E_B:
        inside, outside = outside, inside
    elif kind == RegionKind.D_A:
        outside = ()
    probes = {complex(r): 1 for r in inside} | {complex(r): 0 for r in outside}
    if kind == RegionKind.GAMMA1_INVERTED:
        return {1.0 / z: w for z, w in probes.items()}
    return probes


def membership(kind: RegionKind, rootsA: RootSet, rootsB: RootSet, z):
    """Pointwise region predicate; `z` may be a scalar or an ndarray."""
    zz = np.asarray(z, dtype=complex)
    if kind == RegionKind.GAMMA1_INVERTED:
        safe = np.abs(zz) > 1e-300
        inv = np.where(safe, 1.0 / np.where(safe, zz, 1.0), 0.0)
        res = membership(RegionKind.GAMMA1, rootsA, rootsB, inv) & safe
    else:
        res = _inside(_region_disks(kind, rootsA, rootsB), zz)
    return bool(res) if zz.shape == () else res


def _inside(region: tuple[np.ndarray, np.ndarray], z: np.ndarray) -> np.ndarray:
    """Whether each point lies in the region given by _region_disks."""
    centers, radii = region
    # filled one center at a time: a broadcast difference would hold a
    # complex temporary twice the size of the result
    dist = np.empty(z.shape + centers.shape)
    for j, c in enumerate(centers):
        dist[..., j] = np.abs(z - c)
    res = np.ones(z.shape, dtype=bool)
    for row in radii:
        res &= np.any(dist < row, axis=-1)
    return res


# ---------------------------------------------------------------------------
# complex arithmetic on (real, imaginary) arrays
#
# Arc angles and endpoints are stored, so they must round exactly as the
# scalar complex expressions that define them (arc_point). CPython promotes
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


def _distinct_circles(c: np.ndarray, r: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the circles (centers c, radii r) to keep: all but those within
    tol (center and radius) of an earlier kept circle."""
    dc = c[:, None] - c[None, :]
    near = (np.hypot(dc.real, dc.imag) <= tol) & (np.abs(r[:, None] - r) <= tol)
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
    or misses every disk of some row (none of it is). All circles against
    all rows and centers in one broadcast: circle x row x center."""
    disk_c, disk_r = region
    d = np.abs(centers[:, None] - disk_c)[:, None, :]
    r = radii[:, None, None]
    inside = d + (r + margin) <= disk_r
    clear = np.abs(d - r) >= disk_r + margin
    return ~(inside.any(axis=2).all(axis=1) | clear.all(axis=2).any(axis=1))


def _circle_intersections(cx, cy, radii, scale: float, live):
    """Transversal intersection points of the live circle pairs i < j (`live`
    masks the circles), as arrays (owner, x, y): each pair lists its two
    points for circle i, then for circle j, pairs in row-major order, with
    owners numbered among the live circles. Raises DegenerateArrangement at
    the first (near-)tangent pair of all the circles, live or not, in that
    order."""
    # the pairs as np.triu_indices(n, 1) orders them, at a fraction of its cost
    idx = np.arange(len(radii))
    i, j = np.nonzero(idx[:, None] < idx)
    dx, dy = cx[j] - cx[i], cy[j] - cy[i]
    d = np.hypot(dx, dy)
    r1, r2 = radii[i], radii[j]
    disc = np.minimum(r1 + r2 - d, d - np.abs(r1 - r2))
    tangent = np.abs(disc) < TANGENCY_TOL * scale
    if tangent.any():
        k = int(np.argmax(tangent))
        c1, c2 = complex(cx[i[k]], cy[i[k]]), complex(cx[j[k]], cy[j[k]])
        raise DegenerateArrangement(f"tangent circles at centers {c1:.6g}, {c2:.6g}")
    meet = ~(disc < 0) & live[i] & live[j]
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
    owner = (np.cumsum(live) - 1)[np.array([i, i, j, j]).T.ravel()]
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


_CLEARANCE_BLOCK = 4096


def _probe_clearance(mx, my, owner, cx, cy, radii, scale: float, limit):
    """Per candidate, the distance |abs(mid - c) - r| from its midpoint to
    the nearest circle other than its own where that is at most `limit`, and
    inf where a screen shows it is larger. The screen works in units of
    `scale` with sqrt(dx^2 + dy^2), within 1e-14 * scale of the exact form
    and several times faster than hypot. Candidates go in blocks: candidates
    x circles at once would hold a matrix several times the size of the
    arrangement, so a block holds at most _CLEARANCE_BLOCK candidate-circle
    entries."""
    sx, sy, sr = cx / scale, cy / scale, radii / scale
    smx, smy = mx / scale, my / scale
    out = np.full(len(owner), math.inf)
    block = max(1, _CLEARANCE_BLOCK // max(1, len(radii)))
    for lo in range(0, len(owner), block):
        rows = np.arange(lo, min(lo + block, len(owner)))
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


def _table(center, radius, start, end) -> _ArcTable:
    sweep = end - start
    # start, end and midpoint, as arc_point at t = 0, 1 and 0.5
    theta = start + np.array([[0.0], [1.0], [0.5]]) * sweep
    p0, p1, mid = _complex(*_on_circle(center.real, center.imag, radius, theta))
    return _ArcTable(np.abs(np.abs(sweep) - 2 * math.pi) < 1e-12, p0, p1, mid)


def _hypot(z):
    return np.hypot(z.real, z.imag)


def _delta_args(contour: ContourSystem, z: np.ndarray) -> np.ndarray:
    """Continuous increment of arg(zeta - z) along each arc (columns) for each
    point (rows): the principal chord angle, plus a full turn in the
    direction of the sweep when z sits inside the circular segment between
    chord and arc; full circles add a turn about interior points."""
    c, t = contour, contour.table
    zc = z[:, None]
    turn = np.copysign(2 * math.pi, c.end - c.start)
    inside = _hypot(zc - c.center) < c.radius
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
    radial = np.abs(_hypot(v) - c.radius)
    phi = np.arctan2(v.imag, v.real)[..., None] + _TURN_SHIFTS
    lo = np.minimum(c.start, c.end)[:, None]
    hi = np.maximum(c.start, c.end)[:, None]
    on_span = t.full | np.any((lo <= phi) & (phi <= hi), axis=-1)
    ends = np.minimum(_hypot(z[:, None] - t.p0), _hypot(z[:, None] - t.p1))
    return np.where(on_span, radial, ends)


def _windings(contour: ContourSystem, points) -> tuple[np.ndarray, np.ndarray]:
    """The winding accumulation about each point, all arcs against all
    points at once, and whether the point lies within POINT_TOL * scale of
    the arcs."""
    z = np.array(points, dtype=complex).reshape(-1)
    near = np.min(_distances(contour, z), axis=1) <= POINT_TOL * contour.scale
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
    gap = np.hypot(
        start.real[None, :] - end.real[:, None], start.imag[None, :] - end.imag[:, None]
    )
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


def _loop_probes(contour: ContourSystem) -> np.ndarray:
    """Per loop, the point just inside and then the one just outside the
    midpoint of its first arc."""
    loops = contour.loops
    first = [loops.index(li) for li in range(contour.n_loops)]
    c, r = contour.center[first], contour.radius[first]
    u = (contour.table.mid[first] - c) / r
    h = np.minimum(PROBE_OFFSET * contour.scale, 0.3 * r)
    return np.stack([c + (r - h) * u, c + (r + h) * u], axis=1).ravel()


def _check_loop_consistency(probes: np.ndarray, windings: np.ndarray) -> None:
    """Every loop must see total winding 1 just inside itself and 0 just
    outside, at its _loop_probes. Holes (nested loops bounding a complement
    component) satisfy this automatically under the per-arc ccw orientation;
    anything else is an unsupported nesting structure."""
    expected = [1, 0] * (len(probes) // 2)
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

    Identical circles (symmetric configurations produce them) are merged,
    and any (near-)tangent pair among the rest raises DegenerateArrangement.
    Only the live circles go on (_live_circles with margin
    m = 10 * PROBE_OFFSET * scale): a dead one is at least m from the
    boundary, beyond the 4h clearance window plus the probe offset h, so it
    can own, end or disturb no kept arc. Every live circle is split at its
    intersections with the other live circles; a sub-arc survives iff its
    midpoint offset inward lies in the region and offset outward does not.
    Kept arcs run counterclockwise around their own circles, which orients
    the boundary positively (interior winding +1). The construction works on
    arrays, and its arcs round exactly as the scalar expressions that define
    them.
    """
    if kind == RegionKind.GAMMA1_INVERTED:
        inner = build_region(RegionKind.GAMMA1, rootsA, rootsB)
        try:
            inverted = invert_contour(inner)
        except OriginTooClose as exc:
            raise OriginInRegionError(str(exc)) from exc
        _certify(inverted, region_probes(kind, rootsA, rootsB))
        return inverted

    scale = 1.0 + max(abs(r) for r in rootsA.roots + rootsB.roots)
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
    keep = _distinct_circles(centers, radii, POINT_TOL * scale)
    centers, radii = centers[keep], radii[keep]
    live = _live_circles(centers, radii, region, 10.0 * PROBE_OFFSET * scale)
    owner, px, py = _circle_intersections(
        centers.real, centers.imag, radii, scale, live
    )
    centers, radii = centers[live], radii[live]
    cx, cy = centers.real, centers.imag

    # math.atan2, not np.arctan2: the two differ in the last bit
    angle = np.fromiter(
        map(math.atan2, py - cy[owner], px - cx[owner]), dtype=float, count=len(owner)
    )
    owner, angle = _split_angles(owner, angle, radii, POINT_TOL * scale)
    owner, t0, t1 = _candidate_arcs(len(radii), owner, angle)

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
    mem_in, mem_out = np.split(_inside(region, inner_outer), 2)
    kept = np.flatnonzero(mem_in & ~mem_out)

    if not len(kept):
        raise DegenerateArrangement("region boundary is empty")

    owner = owner[kept]
    arcs = centers[owner], radii[owner], t0[kept], t1[kept]
    table = _table(*arcs)
    order, loops = _chain_loops(table.p0, table.p1, POINT_TOL * scale)
    contour = ContourSystem(*(col[order] for col in arcs), loops, scale)
    contour.table = _ArcTable(*(col[order] for col in table))
    # the loop probes and the certificate's probes in one winding pass
    nesting = _loop_probes(contour)
    probes = region_probes(kind, rootsA, rootsB)
    w, near = _windings(contour, [*nesting, *probes])
    _check_loop_consistency(nesting, w[: len(nesting)])
    _record_certificate(contour, probes, w[len(nesting):], near[len(nesting):])
    return contour


def _certify(contour: ContourSystem, probes: dict[complex, int]) -> None:
    """Record probes (point -> winding) as the contour's orientation
    certificate once each point has that winding number. Raises
    DegenerateArrangement at the first point with another winding number,
    unless a point before it has none (the error of _integer_windings)."""
    _record_certificate(contour, probes, *_windings(contour, list(probes)))


def _record_certificate(contour, probes, w, near) -> None:
    """_certify, given the _windings of the probes."""
    ks, err = _integer_windings(list(probes), w, near)
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


def _invert_arc(c: complex, r: float, t0: float, t1: float, scale: float):
    """The image (center, radius, start, end) of one arc under z -> 1/z."""
    q = abs(c) ** 2 - r * r
    if abs(q) < 1e-12 * scale * scale:
        raise OriginTooClose(
            "parent circle passes through the origin; image would be a line"
        )
    m = c.conjugate() / q
    rho = r / abs(q)

    if abs(abs(t1 - t0) - 2 * math.pi) < 1e-12:
        w0 = 1.0 / arc_point(c, r, t0, t1, 0.0)
        wq = 1.0 / arc_point(c, r, t0, t1, 0.25)
        phi0 = cmath.phase(w0 - m)
        phiq = cmath.phase((wq - m) / (w0 - m))
        return m, rho, phi0, phi0 + (2 * math.pi if phiq > 0 else -2 * math.pi)

    w0, w1, wm = (1.0 / arc_point(c, r, t0, t1, t) for t in (0.0, 1.0, 0.5))
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
    scale = 1.0 + max(abs(arc_point(*arc, t)) for t in (0.0, 1.0) for arc in image)
    return ContourSystem(*map(np.array, zip(*image)), loops, scale)


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


def _arc_quadrature_real(
    c: complex, r: float, t0: float, t1: float, f,
    start_order: int = 16, tol: float = 1e-9,
) -> float:
    """Integral of f(zeta) * |dzeta| over the arc (c, r, t0, t1) with order
    doubling."""
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
        _arc_quadrature_real(*row, lambda z: 1.0 / np.abs(z)) for row in contour.rows()
    )

    # m midpoint samples per arc, at least 16 and 64 per half turn
    sweep = contour.end - contour.start
    m = np.maximum(16, (64 * np.abs(sweep) / math.pi).astype(int))
    arc = np.repeat(np.arange(len(m)), m)
    sample = np.arange(len(arc)) - np.repeat(np.cumsum(m) - m, m)
    theta = contour.start[arc] + (sample + 0.5) / m[arc] * sweep[arc]
    center = contour.center[arc]
    zs = _complex(*_on_circle(center.real, center.imag, contour.radius[arc], theta))
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
            scale = 1.0 + max(abs(r) for r in rootsA.roots + rootsB.roots)
            step = 1e-9 * scale * (attempt + 1)
            ra, rb = (
                replace(roots, roots=tuple(
                    r + step * cmath.exp(2j * math.pi * (i + turn * attempt) / period)
                    for i, r in enumerate(roots.roots)
                ))
                for roots, turn, period in ((rootsA, 0.21, 7.3), (rootsB, 0.37, 5.1))
            )
    raise last

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
just outside is not.

Winding numbers are computed exactly per arc: the argument increment along an
arc equals the principal angle of the chord plus a +-2*pi correction when the
query point lies in the circular segment between chord and arc. No quadrature
or subdivision is involved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    ContourNestingError,
    DegenerateArrangement,
    OnContourError,
    OriginInRegionError,
    OriginTooClose,
)
from .poly import Polynomial
from .roots import RootSet

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

    def e_region(centers, others):
        ok = np.ones(zz.shape, dtype=bool)
        for b in others:
            radii = np.abs(b - centers) / 3.0
            hit = np.zeros(zz.shape, dtype=bool)
            for a, r in zip(centers, radii):
                hit |= np.abs(zz - a) < r
            ok &= hit
        return ok

    def d_region(centers):
        hit = np.zeros(zz.shape, dtype=bool)
        for a in centers:
            hit |= np.abs(zz - a) < 0.75 * abs(a)
        return hit

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
                    "a root of A lies at the origin; translate the pair first"
                )
            circles.append(Disk(a, 0.75 * abs(a)))
    return circles


def _dedupe_circles(circles: list[Disk], tol: float) -> list[Disk]:
    kept: list[Disk] = []
    for c in circles:
        dup = any(
            abs(c.center - k.center) <= tol and abs(c.radius - k.radius) <= tol
            for k in kept
        )
        if not dup:
            kept.append(c)
    return kept


def _circle_intersections(c1: Disk, c2: Disk, scale: float) -> list[complex]:
    """The two transversal intersection points, [] when the circles do not
    meet. Raises DegenerateArrangement on (near-)tangency."""
    d = abs(c2.center - c1.center)
    disc = min(c1.radius + c2.radius - d, d - abs(c1.radius - c2.radius))
    if abs(disc) < TANGENCY_TOL * scale:
        raise DegenerateArrangement(
            f"tangent circles at centers {c1.center:.6g}, {c2.center:.6g}"
        )
    if disc < 0:
        return []
    e = (c2.center - c1.center) / d
    a = (d * d + c1.radius**2 - c2.radius**2) / (2 * d)
    h = math.sqrt(max(c1.radius**2 - a * a, 0.0))
    base = c1.center + a * e
    off = 1j * h * e
    return [base + off, base - off]


def _split_angles(circle: Disk, points: list[complex], chord_tol: float) -> list[float]:
    angles = sorted(
        math.atan2((p - circle.center).imag, (p - circle.center).real)
        for p in points
    )
    angle_tol = chord_tol / circle.radius
    out: list[float] = []
    for t in angles:
        if not out or t - out[-1] > angle_tol:
            out.append(t)
    if len(out) > 1 and (out[0] + 2 * math.pi) - out[-1] <= angle_tol:
        out.pop()
    return out


def _candidate_arcs(circle: Disk, angles: list[float]) -> list[Arc]:
    if not angles:
        return [Arc(circle, -math.pi, math.pi)]
    arcs = []
    for i, t0 in enumerate(angles):
        t1 = angles[(i + 1) % len(angles)]
        if i + 1 == len(angles):
            t1 += 2 * math.pi
        if t1 - t0 > 1e-14:
            arcs.append(Arc(circle, t0, t1))
    return arcs


# ---------------------------------------------------------------------------
# exact winding accumulation


def _arc_delta_arg(arc: Arc, z: complex) -> float:
    """Continuous increment of arg(zeta - z) along the arc.

    Equals the principal chord angle plus a full turn when z sits inside the
    circular segment between chord and arc; exact up to rounding.
    """
    c, r = arc.circle.center, arc.circle.radius
    if arc.is_full_circle:
        inside = abs(z - c) < r
        return math.copysign(2 * math.pi, arc.sweep) if inside else 0.0
    p0, p1 = arc.start_point, arc.end_point
    principal = cmath.phase((p1 - z) / (p0 - z))
    if abs(z - c) < r:
        m = arc.point(0.5)
        chord = p1 - p0
        side_z = (chord.conjugate() * (z - p0)).imag
        side_m = (chord.conjugate() * (m - p0)).imag
        if side_z * side_m > 0:
            return principal + math.copysign(2 * math.pi, arc.sweep)
    return principal


def _distance_to_arc(arc: Arc, z: complex) -> float:
    c, r = arc.circle.center, arc.circle.radius
    v = z - c
    if arc.is_full_circle:
        return abs(abs(v) - r)
    phi = math.atan2(v.imag, v.real)
    lo, hi = sorted((arc.start_angle, arc.end_angle))
    for shift in (-2 * math.pi, 0.0, 2 * math.pi):
        if lo <= phi + shift <= hi:
            return abs(abs(v) - r)
    return min(abs(z - arc.start_point), abs(z - arc.end_point))


def contour_distance(arcs: list[Arc], z: complex) -> float:
    return min(_distance_to_arc(a, z) for a in arcs)


def winding_of_arcs(arcs: list[Arc], z: complex) -> float:
    return sum(_arc_delta_arg(a, z) for a in arcs) / (2 * math.pi)


def winding_number(contour: ContourSystem, z: complex) -> int:
    """Integer winding number of the whole system about z."""
    tol = POINT_TOL * contour.scale
    if contour_distance(contour.arcs, z) <= tol:
        raise OnContourError(f"point {z:.6g} lies on the contour")
    w = winding_of_arcs(contour.arcs, z)
    k = round(w)
    if abs(w - k) > WINDING_INT_TOL:
        raise ArithmeticError(
            f"winding accumulation {w} is not close to an integer"
        )
    return int(k)


# ---------------------------------------------------------------------------
# construction


def _chain_loops(arcs: list[Arc], tol: float) -> tuple[list[Arc], list[int]]:
    """Order arcs into closed loops by matching endpoints within tol.

    Returns the arcs re-ordered so each loop is a contiguous block in
    traversal order, plus the loop index per arc.
    """
    n = len(arcs)
    used = [False] * n
    ordered: list[Arc] = []
    loop_ids: list[int] = []
    loop_id = 0
    for seed in range(n):
        if used[seed]:
            continue
        used[seed] = True
        chain = [arcs[seed]]
        start_pt = arcs[seed].start_point
        while True:
            end_pt = chain[-1].end_point
            if abs(end_pt - start_pt) <= tol and len(chain) > 1:
                break
            best = None
            best_d = tol
            for j in range(n):
                if used[j]:
                    continue
                d = abs(arcs[j].start_point - end_pt)
                if d <= best_d:
                    best_d = d
                    best = j
            if best is None:
                # single full-circle arcs close onto themselves
                if abs(end_pt - start_pt) <= tol:
                    break
                raise DegenerateArrangement(
                    f"open arc chain near {end_pt:.6g}; loop did not close"
                )
            used[best] = True
            chain.append(arcs[best])
        ordered.extend(chain)
        loop_ids.extend([loop_id] * len(chain))
        loop_id += 1
    return ordered, loop_ids


def _check_loop_consistency(arcs: list[Arc], loops: list[int], scale: float) -> None:
    """Every loop must see total winding 1 just inside itself and 0 just
    outside. Holes (nested loops bounding a complement component) satisfy
    this automatically under the per-arc ccw orientation; anything else is an
    unsupported nesting structure."""
    n_loops = max(loops) + 1 if loops else 0
    for li in range(n_loops):
        first = next(a for a, l in zip(arcs, loops) if l == li)
        c, r = first.circle.center, first.circle.radius
        u = (first.point(0.5) - c) / r
        h = min(PROBE_OFFSET * scale, 0.3 * r)
        for offset, expected in ((r - h, 1), (r + h, 0)):
            probe = c + offset * u
            try:
                w = round(winding_of_arcs(arcs, probe))
            except OnContourError:
                continue
            if w != expected:
                raise ContourNestingError(
                    f"loop {li} winding probe at {probe:.6g} gives {w}, "
                    f"expected {expected}; unsupported nesting structure"
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
    are merged before intersection tests.
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

    cuts: list[list[complex]] = [[] for _ in circles]
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            pts = _circle_intersections(circles[i], circles[j], scale)
            cuts[i].extend(pts)
            cuts[j].extend(pts)

    h_floor = 64.0 * np.finfo(float).eps * scale
    candidates: list[Arc] = []
    probes_in: list[complex] = []
    probes_out: list[complex] = []
    for ci, (circle, pts) in enumerate(zip(circles, cuts)):
        for arc in _candidate_arcs(circle, _split_angles(circle, pts, POINT_TOL * scale)):
            mid = arc.point(0.5)
            u = (mid - circle.center) / abs(mid - circle.center)
            # probes must not jump across another circle that passes close to
            # this arc (near-tangent configurations), so the offset shrinks
            # below the local clearance
            clearance = min(
                (
                    abs(abs(mid - c2.center) - c2.radius)
                    for cj, c2 in enumerate(circles)
                    if cj != ci
                ),
                default=math.inf,
            )
            h = min(PROBE_OFFSET * scale, 0.3 * circle.radius, 0.25 * clearance)
            h = max(h, h_floor)
            candidates.append(arc)
            probes_in.append(circle.center + (circle.radius - h) * u)
            probes_out.append(circle.center + (circle.radius + h) * u)
    mem_in = membership(kind, rootsA, rootsB, np.array(probes_in))
    mem_out = membership(kind, rootsA, rootsB, np.array(probes_out))
    kept = [a for a, i, o in zip(candidates, mem_in, mem_out) if i and not o]

    if not kept:
        raise DegenerateArrangement("region boundary is empty")

    kept, loops = _chain_loops(kept, POINT_TOL * scale)
    _check_loop_consistency(kept, loops, scale)
    total_length = sum(a.length for a in kept)

    contour = ContourSystem(
        arcs=kept, loops=loops, total_length=total_length, scale=scale
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
    _certify(contour, probes)
    return contour


def _certify(contour: ContourSystem, probes: dict[complex, int]) -> None:
    for z, expected in probes.items():
        w = winding_number(contour, z)
        if w != expected:
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
    contour: ContourSystem,
    rootsA: RootSet,
    rootsB: RootSet,
    A: Polynomial,
    B: Polynomial,
    delta_value: float,
) -> ContourMetrics:
    """Length, the scale-invariant integral of |du|/|u|, and the lower bounds
    on |A| and |B| along the contour. Violated bounds are reported, not
    raised; they validate the theory rather than gate the build."""
    n = A.normalize().degree
    k = B.normalize().degree

    log_int = sum(
        _arc_quadrature_real(a, lambda z: 1.0 / np.abs(z)) for a in contour.arcs
    )

    min_a = math.inf
    min_b = math.inf
    for arc in contour.arcs:
        m = max(16, int(64 * abs(arc.sweep) / math.pi))
        ts = (np.arange(m) + 0.5) / m
        zs = np.array([arc.point(t) for t in ts])
        min_a = min(min_a, float(np.min(np.abs(A(zs)))))
        min_b = min(min_b, float(np.min(np.abs(B(zs)))))

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
    attempts: int = 4,
    jitter: float = 1e-9,
) -> ContourSystem:
    """build_region, retrying degenerate arrangements with tiny root jitter.

    Jitter only perturbs the contour; any admissible contour is equally valid
    for winding and quadrature purposes, and 1e-9 offsets cannot move a
    winding number.
    """
    from dataclasses import replace

    last: DegenerateArrangement | None = None
    ra, rb = rootsA, rootsB
    for attempt in range(attempts):
        try:
            return build_region(kind, ra, rb)
        except DegenerateArrangement as exc:
            last = exc
            scale = 1.0 + max(
                abs(r) for r in rootsA.roots + rootsB.roots
            )
            step = jitter * scale * (attempt + 1)
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

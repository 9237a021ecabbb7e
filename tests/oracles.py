"""Reference helpers that only the tests use: the literal residue sum (an
oracle for the interpolation backend), the quadrature backend integrating
one contour at a time (a reference for its one-pass integration), the
translation p(z + z0), a
root-free translation point, a sub-level set predicate, the plain Horner
loop one polynomial at a time (a reference for poly.Stack), the pointwise
region predicate (membership, a reference for build_region), the scalar arc
point (a reference for regions.arc_points), a per-arc record of a
contour with the scalar per-arc winding increment, distance and
subdivision (references for the array code in regions and backends), a
quadrature rule's integral of a function, the argument-principle zero count,
rejection sampling of random pairs, and the numpy Newton polish of the
companion roots (a reference for roots.find_roots)."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from bezmin.backends import (
    QuadratureRule,
    _coefficients_from_integrals,
    _guard_simple,
    _settle,
    _subdivide,
    build_rule,
)
from bezmin.ensemble import random_polynomial
from bezmin.errors import CommonRootError, QuadratureNotConverged
from bezmin.poly import Polynomial
from bezmin.regions import (
    ContourSystem,
    RegionKind,
    _region_disks,
    build_region_with_jitter,
)
from bezmin.roots import (
    CLUSTER_TOL_FACTOR,
    DEFAULT_RESIDUAL_TOL,
    RootSet,
    companion_roots,
    find_roots,
)
from bezmin.sylvester import BezoutSolution, Pair, build, right_hand_side

# the highest order argument_principle_count evaluates
MAX_ORDER = 1024


def residue_sum_solution(pair: Pair, P: Polynomial | None = None) -> BezoutSolution:
    """Literal residue summation of the coefficient integrals, with A'(a)
    and B'(b) from the derivatives; solve_residue sums the same residues in
    another order."""
    P = P if P is not None else Polynomial([1.0])
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    _guard_simple(rootsA, "A")
    _guard_simple(rootsB, "B")
    pair.delta
    n, k = pair.N, pair.K
    dA, dB = A.derivative(), B.derivative()

    s = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = 0j
        for kk in range(j + 1, n + 1):
            integral = sum(
                P(a) * a ** (kk - j - 1) / (dA(a) * B(a)) for a in rootsA.roots
            )
            acc += A.coeff(kk) * integral
        s[j] = acc
    r = np.zeros(k, dtype=complex)
    for j in range(k):
        acc = 0j
        for kk in range(j + 1, k + 1):
            integral = sum(
                P(b) * b ** (kk - j - 1) / (dB(b) * A(b)) for b in rootsB.roots
            )
            acc += B.coeff(kk) * integral
        r[j] = acc
    R, S = Polynomial(r), Polynomial(s)
    residual = (A * R + B * S - P).norm()
    return BezoutSolution(R=R, S=S, residual=residual, backend="residue:literal")


def quadrature_per_contour(
    pair: Pair, P: Polynomial | None = None, tol: float = 1e-9
) -> BezoutSolution:
    """backends.solve_quadrature one contour at a time: E_A and E_B are each
    subdivided, get their own rule per order, and evaluate P, A and B and
    every moment sum on their own nodes."""
    P = right_hand_side(pair, P)
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    poles = np.array(list(rootsA.roots) + list(rootsB.roots))
    gamma1, gamma2 = (
        _subdivide(build_region_with_jitter(kind, rootsA, rootsB), poles)
        for kind in (RegionKind.E_A, RegionKind.E_B)
    )

    def moments(rule: QuadratureRule, count: int) -> np.ndarray:
        acc = rule.weights * P(rule.nodes) / (A(rule.nodes) * B(rule.nodes))
        out = np.empty(count, dtype=complex)
        for m in range(count):
            out[m] = np.sum(acc) / (2j * math.pi)
            acc = acc * rule.nodes
        return out

    def solve_at(order: int) -> np.ndarray:
        m1 = moments(build_rule(gamma1, order), pair.N)
        m2 = moments(build_rule(gamma2, order), pair.K)
        s = _coefficients_from_integrals(pair.A, m1)
        r = _coefficients_from_integrals(pair.B, m2)
        return np.concatenate([r, s])

    rs = _settle(solve_at, tol, "coefficients")
    return BezoutSolution.checked(
        pair, P, Polynomial(rs[: pair.K]), Polynomial(rs[pair.K :]), "quadrature"
    )


def translate(p: Polynomial, z0: complex) -> Polynomial:
    """Return p(z + z0) by binomial convolution.

    Accumulates in extended precision: the shifted coefficients can be
    (1 + |z0|)^degree times larger than the inputs, and round-trip
    translations would otherwise lose those amplified digits.
    """
    z0 = complex(z0)
    n = p.degree
    if z0 == 0:
        return Polynomial(p.coeffs[: n + 1])
    ze = np.clongdouble(z0)
    out = np.zeros(n + 1, dtype=np.clongdouble)
    # out[j] = sum_k a_k * C(k, j) * z0^(k-j)
    for k in range(n + 1):
        a = np.clongdouble(p.coeff(k))
        if a == 0:
            continue
        binom = np.longdouble(1.0)
        for j in range(k, -1, -1):
            out[j] += a * binom * ze ** (k - j)
            if j > 0:
                binom = binom * j / (k - j + 1)
    return Polynomial(out.astype(complex))


def translation_point(rootsA: RootSet, rootsB: RootSet, n: int, k: int) -> complex:
    """A point z0 in the unit disk whose 2*eps neighborhood avoids all roots,
    found among N+K+1 packed candidate centers on the real axis; after
    translating the pair by z0 no root sits near the origin."""
    eps = 1.0 / (4.0 * (n + k + 2.0))
    roots = list(rootsA.roots) + list(rootsB.roots)
    for m in range(n + k + 1):
        z0 = complex(-1.0 + 2 * eps + 4 * eps * m, 0.0)
        if all(abs(r - z0) > 2 * eps for r in roots):
            return z0
    raise ArithmeticError("pigeonhole failure: no root-free candidate disk")


def sublevel_member(p: Polynomial, eps: float, z: complex) -> bool:
    """Whether |p(z)| < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return bool(abs(p(z)) < eps)


def horner_reference(polys: list[Polynomial], z: np.ndarray) -> np.ndarray:
    """Each polynomial at z, one at a time by the allocating Horner loop
    from zero: the reference for poly.Stack."""
    out = []
    for p in polys:
        acc = np.zeros_like(z, dtype=complex)
        for c in reversed(p.coeffs):
            acc = acc * z + c
        out.append(acc)
    return np.array(out)


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


def arc_point(center: complex, radius: float, start: float, end: float,
              t: float) -> complex:
    """The point at fraction t of the arc from start to end on the circle, on
    Python numbers: the scalar reference for regions.arc_points."""
    return center + radius * cmath.exp(1j * (start + t * (end - start)))


@dataclass(frozen=True)
class RefArc:
    """One arc of a contour, as Python numbers: from `start` to `end` (radians,
    the sweep's sign is the direction) on the circle (center, radius)."""

    center: complex
    radius: float
    start: float
    end: float

    @property
    def sweep(self) -> float:
        return self.end - self.start

    @property
    def is_full_circle(self) -> bool:
        return abs(abs(self.sweep) - 2 * math.pi) < 1e-12

    def point(self, t: float) -> complex:
        return arc_point(self.center, self.radius, self.start, self.end, t)

    def reversed(self) -> "RefArc":
        return RefArc(self.center, self.radius, self.end, self.start)


def ref_arcs(contour: ContourSystem) -> list[RefArc]:
    """The contour's arcs, in order."""
    return [RefArc(*row) for row in contour.rows()]


def contour_of(arcs: list[RefArc], loops: list[int], scale: float) -> ContourSystem:
    """The contour with these arcs, in order, and loop indices."""
    rows = np.array(
        [(a.center, a.radius, a.start, a.end) for a in arcs], dtype=complex
    ).reshape(-1, 4)
    center, radius, start, end = rows.T
    return ContourSystem(center, radius.real, start.real, end.real, list(loops), scale)


def arc_delta_arg(arc: RefArc, z: complex) -> float:
    """Continuous increment of arg(zeta - z) along the arc, one arc and one
    point at a time: the scalar reference for regions.winding_numbers."""
    c, r = arc.center, arc.radius
    if arc.is_full_circle:
        inside = abs(z - c) < r
        return math.copysign(2 * math.pi, arc.sweep) if inside else 0.0
    p0, p1 = arc.point(0.0), arc.point(1.0)
    principal = cmath.phase((p1 - z) / (p0 - z))
    if abs(z - c) < r:
        m = arc.point(0.5)
        chord = p1 - p0
        side_z = (chord.conjugate() * (z - p0)).imag
        side_m = (chord.conjugate() * (m - p0)).imag
        if side_z * side_m > 0:
            return principal + math.copysign(2 * math.pi, arc.sweep)
    return principal


def distance_to_arc(arc: RefArc, z: complex) -> float:
    """Distance from z to the arc: the scalar reference for the distance
    query in regions."""
    c, r = arc.center, arc.radius
    v = z - c
    if arc.is_full_circle:
        return abs(abs(v) - r)
    phi = math.atan2(v.imag, v.real)
    lo, hi = sorted((arc.start, arc.end))
    for shift in (-2 * math.pi, 0.0, 2 * math.pi):
        if lo <= phi + shift <= hi:
            return abs(abs(v) - r)
    return min(abs(z - arc.point(0.0)), abs(z - arc.point(1.0)))


def subdivide_reference(
    arcs: list[RefArc], loops: list[int], poles: list[complex]
) -> tuple[list[RefArc], list[int]]:
    """backends._subdivide one arc at a time: an arc that sweeps more than a
    quarter turn, or more than 1e-3 rad and is longer than the distance from
    its midpoint to the nearest pole, is halved at start + sweep / 2 and its
    halves are tested again, in place, so the arcs keep their order."""
    out: list[tuple[RefArc, int]] = []
    todo = list(zip(arcs, loops))[::-1]
    while todo:
        arc, loop = todo.pop()
        sweep = abs(arc.sweep)
        mid = arc.point(0.5)
        near = min((abs(p - mid) for p in poles), default=math.inf)
        if sweep > math.pi / 2.0 or (sweep > 1e-3 and arc.radius * sweep > near):
            half = arc.start + arc.sweep / 2.0
            todo += [
                (RefArc(arc.center, arc.radius, half, arc.end), loop),
                (RefArc(arc.center, arc.radius, arc.start, half), loop),
            ]
        else:
            out.append((arc, loop))
    return [a for a, _ in out], [loop for _, loop in out]


def integrate(rule: QuadratureRule, f) -> complex:
    """sum of the rule's weights times f at its nodes: the contour integral
    of f."""
    return complex(np.sum(rule.weights * f(rule.nodes)))


def argument_principle_count(
    P: Polynomial,
    contour: ContourSystem,
    start_order: int = 16,
    tol: float = 1e-8,
) -> complex:
    """(1/2 pi i) * integral of P'/P over the contour: counts enclosed zeros
    of P weighted by winding. Order doubles until stable, up to MAX_ORDER."""
    dP = P.derivative()
    contour = _subdivide(contour, np.array(find_roots(P).roots))

    def value(order):
        rule = build_rule(contour, order)
        return integrate(rule, lambda z: dP(z) / P(z)) / (2j * math.pi)

    order = start_order
    prev = value(order)
    while 2 * order <= MAX_ORDER:
        order *= 2
        cur = value(order)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"argument-principle integral unstable between orders {order // 2} "
        f"and {order}"
    )


@dataclass(frozen=True)
class Instance:
    pair: Pair
    delta: float
    witness: complex

    @property
    def A(self) -> Polynomial:
        return self.pair.A

    @property
    def B(self) -> Polynomial:
        return self.pair.B

    @property
    def rootsA(self) -> RootSet:
        return self.pair.rootsA

    @property
    def rootsB(self) -> RootSet:
        return self.pair.rootsB


def random_pair(
    rng: np.random.Generator,
    deg_a: int,
    deg_b: int,
    delta_floor: float = 0.05,
    require_simple: bool = False,
    max_tries: int = 10_000,
) -> Instance:
    """Rejection-sample a pair with delta >= delta_floor (and optionally no
    multiplicity-suspect roots)."""
    for _ in range(max_tries):
        pair = build(random_polynomial(rng, deg_a), random_polynomial(rng, deg_b))
        rootsA, rootsB = pair.rootsA, pair.rootsB
        if not (rootsA.verified and rootsB.verified):
            continue
        if require_simple and (rootsA.any_suspect or rootsB.any_suspect):
            continue
        try:
            d = pair.delta
        except CommonRootError:
            continue
        if d < delta_floor:
            continue
        return Instance(pair, d, pair.delta_min[1])
    raise RuntimeError(
        f"no instance with delta >= {delta_floor} in {max_tries} tries"
    )


def sample_degrees(
    rng: np.random.Generator, lo: int, hi: int
) -> tuple[int, int]:
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))


def numpy_find_roots(p: Polynomial) -> RootSet:
    """find_roots with every polish step on numpy arrays: three guarded
    Newton steps over all roots at once, each evaluating p and p' by Horner
    on the whole array."""
    q = p.normalize()
    n = q.degree
    cs = np.asarray(q.coeffs[: n + 1], dtype=complex)
    cauchy_bound = 1.0 + float(np.max(np.abs(cs))) / abs(cs[-1])
    roots = companion_roots(cs)

    dp = p.derivative()
    for _ in range(3):
        vals = p(roots)
        dvals = dp(roots)
        ok = np.abs(dvals) > 0
        step = np.zeros_like(roots)
        step[ok] = vals[ok] / dvals[ok]
        cand = roots - step
        better = np.abs(p(cand)) <= np.abs(vals)
        roots = np.where(better, cand, roots)

    residuals = np.abs(p(roots))
    caps = DEFAULT_RESIDUAL_TOL * p.norm() * (1.0 + np.abs(roots)) ** n
    verified = bool(np.all(residuals <= caps))

    cluster_tol = CLUSTER_TOL_FACTOR * (1.0 + cauchy_bound)
    suspect = [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < cluster_tol:
                suspect[i] = suspect[j] = True

    order = np.lexsort((roots.imag, roots.real))
    return RootSet(
        roots=tuple(complex(r) for r in roots[order]),
        residuals=tuple(float(r) for r in residuals[order]),
        multiplicity_suspect=tuple(suspect[k] for k in order),
        cauchy_bound=cauchy_bound,
        verified=verified,
    )

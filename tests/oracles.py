"""Reference helpers that only the tests use: the literal residue sum (an
oracle for the interpolation backend), the translation p(z + z0), a
root-free translation point, a sub-level set predicate, the scalar per-arc
winding increment and distance (references for the array queries in
regions), a quadrature rule's integral of a function, the argument-principle
zero count, and rejection sampling of random pairs."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from bezmin.backends import QuadratureRule, _guard_simple, _subdivide, build_rule
from bezmin.ensemble import random_polynomial
from bezmin.errors import CommonRootError, QuadratureNotConverged
from bezmin.poly import Polynomial
from bezmin.regions import Arc, ContourSystem
from bezmin.roots import RootSet, find_roots
from bezmin.separation import delta
from bezmin.sylvester import BezoutSolution, Pair, build


def residue_sum_solution(pair: Pair, P: Polynomial | None = None) -> BezoutSolution:
    """Literal residue summation of the coefficient integrals. Identical in
    exact arithmetic to solve_residue but worse conditioned; debug oracle."""
    P = P if P is not None else Polynomial([1.0])
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    _guard_simple(rootsA, "A")
    _guard_simple(rootsB, "B")
    delta(pair)
    An, Bn, n, k = pair.An, pair.Bn, pair.N, pair.K
    dA, dB = A.derivative(), B.derivative()

    s = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = 0j
        for kk in range(j + 1, n + 1):
            integral = sum(
                P(a) * a ** (kk - j - 1) / (dA(a) * B(a)) for a in rootsA.roots
            )
            acc += An.coeff(kk) * integral
        s[j] = acc
    r = np.zeros(k, dtype=complex)
    for j in range(k):
        acc = 0j
        for kk in range(j + 1, k + 1):
            integral = sum(
                P(b) * b ** (kk - j - 1) / (dB(b) * A(b)) for b in rootsB.roots
            )
            acc += Bn.coeff(kk) * integral
        r[j] = acc
    R, S = Polynomial(r), Polynomial(s)
    residual = (A * R + B * S - P).norm()
    return BezoutSolution(R=R, S=S, residual=residual, backend="residue:literal")


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


def arc_delta_arg(arc: Arc, z: complex) -> float:
    """Continuous increment of arg(zeta - z) along the arc, one arc and one
    point at a time: the scalar reference for regions.winding_numbers."""
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


def distance_to_arc(arc: Arc, z: complex) -> float:
    """Distance from z to the arc: the scalar reference for
    regions.contour_distance."""
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


def integrate(rule: QuadratureRule, f) -> complex:
    """sum of the rule's weights times f at its nodes: the contour integral
    of f."""
    return complex(np.sum(rule.weights * f(rule.nodes)))


def argument_principle_count(
    P: Polynomial,
    contour: ContourSystem,
    start_order: int = 16,
    max_order: int = 1024,
    tol: float = 1e-8,
) -> complex:
    """(1/2 pi i) * integral of P'/P over the contour: counts enclosed zeros
    of P weighted by winding. Order doubles until stable."""
    dP = P.derivative()
    contour = _subdivide(contour, np.array(find_roots(P).roots))

    def value(order):
        rule = build_rule(contour, order)
        return integrate(rule, lambda z: dP(z) / P(z)) / (2j * math.pi)

    order = start_order
    prev = value(order)
    while 2 * order <= max_order:
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
            rep = delta(pair)
        except CommonRootError:
            continue
        if rep.delta < delta_floor:
            continue
        return Instance(pair, rep.delta, rep.argmin_witness)
    raise RuntimeError(
        f"no instance with delta >= {delta_floor} in {max_tries} tries"
    )


def sample_degrees(
    rng: np.random.Generator, lo: int, hi: int
) -> tuple[int, int]:
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))

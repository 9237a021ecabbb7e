"""Analytic solution backends for A*R + B*S = P.

Three routes to the same unique minimal-degree pair; like sylvester.solve,
each takes (pair, P) with P = 1 by default:

* residue/interpolation: for simple roots the contour formulas collapse to
  values at the roots, S(a_i) = P(a_i)/B(a_i) and R(b_j) = P(b_j)/A(b_j),
  so S and R are Lagrange interpolants. This is the well-conditioned form
  of the residue sum.
* direct quadrature of the contour integrals over constructed arc systems,
  with Gauss-Legendre rules cached per order and each contour subdivided
  once per solve.
* the reversal pipeline: solve the companion identity with right-hand side
  z^(N+K-1) P(1/z) for the coefficient-reversed pair, then reverse back.
  This is the route that stays bounded when roots are large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import sylvester
from .errors import (
    BadContour,
    IllConditionedInterpolation,
    MultipleRootsError,
    QuadratureNotConverged,
    ZeroRootError,
)
from .poly import Polynomial
from .regions import (
    ContourSystem,
    RegionKind,
    build_region_with_jitter,
    gauss_legendre,
    region_probes,
)
from .roots import RootSet
from .separation import delta
from .sylvester import BezoutSolution, Pair

# the first quadrature order; solve_quadrature doubles it until the
# coefficients settle
START_ORDER = 16


def _guard_simple(roots: RootSet, who: str) -> None:
    if roots.any_suspect:
        raise MultipleRootsError(
            f"{who} has multiplicity-suspect roots; use the Sylvester backend"
        )


def _interpolate(nodes, values) -> Polynomial:
    """Coefficients of the unique interpolant, assembled from deflations of
    the full node product scaled by barycentric weights."""
    nodes = [complex(x) for x in nodes]
    full = Polynomial.from_roots(nodes)
    n = len(nodes)
    out = np.zeros(n, dtype=complex)
    for x, y in zip(nodes, values):
        # synthetic division of `full` by (z - x)
        q = np.empty(n, dtype=complex)
        acc = 0j
        for k in range(n, 0, -1):
            acc = full.coeff(k) + x * acc
            q[k - 1] = acc
        qx = 0j
        for k in range(n - 1, -1, -1):
            qx = qx * x + q[k]
        if qx == 0 or not np.isfinite(abs(qx)):
            raise IllConditionedInterpolation(
                f"repeated or degenerate node {x:.6g}"
            )
        w = y / qx
        if not np.isfinite(abs(w)):
            raise IllConditionedInterpolation(
                f"barycentric weight overflow at node {x:.6g}"
            )
        out += w * q
    return Polynomial(out)


def solve_residue(pair: Pair, P: Polynomial | None = None) -> BezoutSolution:
    """Closed-form evaluation of the contour formulas for simple roots:
    interpolate P/B at the roots of A and P/A at the roots of B."""
    P = sylvester.right_hand_side(pair, P)
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    _guard_simple(rootsA, "A")
    _guard_simple(rootsB, "B")
    delta(pair)  # raises CommonRootError on a shared root
    S = _interpolate(rootsA.roots, [P(a) / B(a) for a in rootsA.roots])
    R = _interpolate(rootsB.roots, [P(b) / A(b) for b in rootsB.roots])
    return BezoutSolution.checked(pair, P, R, S, "residue")


# ---------------------------------------------------------------------------
# quadrature backend


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and complex dzeta-weights per arc, flattened."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def _subdivide(
    contour: ContourSystem, poles: np.ndarray = np.empty(0)
) -> ContourSystem:
    """The same contour with arcs split until each sweeps at most a quarter
    turn and is no longer than the distance from its midpoint to the nearest
    integrand pole (keeps the Gauss-Legendre convergence rate healthy). Each
    pass halves every arc that fails in place, so the arcs keep their order
    along the contour and an already subdivided contour comes back
    unchanged."""
    center, radius = contour.center, contour.radius
    start, end = contour.start, contour.end
    loops = np.array(contour.loops, dtype=int)
    while len(radius):
        sweep = end - start
        split = np.abs(sweep) > math.pi / 2.0
        if len(poles):
            mid = center + radius * np.exp(1j * (start + 0.5 * sweep))
            near = np.min(np.abs(poles - mid[:, None]), axis=1)
            split |= (np.abs(sweep) > 1e-3) & (radius * np.abs(sweep) > near)
        if not split.any():
            break
        # a split arc appears twice: its first half ends and its second
        # half starts at start + sweep / 2
        half = (start + sweep / 2.0)[split]
        second = (np.cumsum(1 + split) - 1)[split]
        take = np.repeat(np.arange(len(radius)), 1 + split)
        center, radius, start, end, loops = (
            col[take] for col in (center, radius, start, end, loops)
        )
        end[second - 1] = half
        start[second] = half
    return replace(contour, center=center, radius=radius, start=start, end=end,
                   loops=loops.tolist())


def build_rule(contour: ContourSystem, order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order on every arc of a contour that
    _subdivide has already split. Callers that double the order subdivide the
    contour once and build a rule per order on the result."""
    x, w = gauss_legendre(order)
    t0, t1 = contour.start, contour.end
    center, radius = contour.center[:, None], contour.radius[:, None]
    half = (0.5 * (t1 - t0))[:, None]
    e = np.exp(1j * (half * x + (0.5 * (t1 + t0))[:, None]))
    return QuadratureRule(
        nodes=(center + radius * e).ravel(),
        weights=(w * (1j * radius * e * half)).ravel(),
        order=order,
    )


def _coefficients_from_integrals(
    g: Polynomial, moments: np.ndarray
) -> np.ndarray:
    """c_j = sum_{k=j+1}^{n} g_k moments[k-j-1] (the expanded kernel form),
    for g already normalized."""
    n = g.degree
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        out[j] = sum(g.coeff(kk) * moments[kk - j - 1] for kk in range(j + 1, n + 1))
    return out


def solve_quadrature(
    pair: Pair,
    P: Polynomial | None = None,
    max_order: int = 2048,
    tol: float = 1e-9,
) -> BezoutSolution:
    """Evaluate the coefficient contour integrals by per-arc Gauss-Legendre
    quadrature, doubling the order until every coefficient is stable. The
    orders run START_ORDER, 2 * START_ORDER, ... up to at most max_order.

    The contours are the E_A and E_B region boundaries, whose certificates
    must give the windings region_probes asks for.
    """
    P = sylvester.right_hand_side(pair, P)
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    gamma1 = build_region_with_jitter(RegionKind.E_A, rootsA, rootsB)
    gamma2 = build_region_with_jitter(RegionKind.E_B, rootsA, rootsB)
    # build_region certified the windings; no winding query is repeated here
    for who, kind, contour in (
        ("contour 1", RegionKind.E_A, gamma1), ("contour 2", RegionKind.E_B, gamma2)
    ):
        for z, want in region_probes(kind, rootsA, rootsB).items():
            if contour.orientation_certificate.get(z) != want:
                what = "does not wind once around" if want else "must exclude"
                raise BadContour(f"{who} {what} root {z:.6g}")
    n, k = pair.N, pair.K
    poles = np.array(list(rootsA.roots) + list(rootsB.roots))
    gamma1, gamma2 = _subdivide(gamma1, poles), _subdivide(gamma2, poles)

    def moments(rule: QuadratureRule, count: int) -> np.ndarray:
        acc = rule.weights * P(rule.nodes) / (A(rule.nodes) * B(rule.nodes))
        out = np.empty(count, dtype=complex)
        for m in range(count):
            out[m] = np.sum(acc) / (2j * math.pi)
            acc = acc * rule.nodes
        return out

    def solve_at(order: int) -> tuple[np.ndarray, np.ndarray]:
        m1 = moments(build_rule(gamma1, order), n)
        m2 = moments(build_rule(gamma2, order), k)
        s = _coefficients_from_integrals(pair.An, m1)
        r = _coefficients_from_integrals(pair.Bn, m2)
        return r, s

    order = START_ORDER
    r_prev, s_prev = solve_at(order)
    while 2 * order <= max_order:
        order *= 2
        r_new, s_new = solve_at(order)
        change = max(
            float(np.max(np.abs(r_new - r_prev))) if len(r_new) else 0.0,
            float(np.max(np.abs(s_new - s_prev))) if len(s_new) else 0.0,
        )
        if change <= tol:
            return BezoutSolution.checked(
                pair, P, Polynomial(r_new), Polynomial(s_new), "quadrature"
            )
        r_prev, s_prev = r_new, s_new
    if order == START_ORDER:
        raise QuadratureNotConverged(
            f"max_order {max_order} leaves no order to compare with {order}"
        )
    raise QuadratureNotConverged(
        f"coefficients still moving between orders {order // 2} and {order}"
    )


# ---------------------------------------------------------------------------
# reversal pipeline


def solve_reversed(pair: Pair, P: Polynomial | None = None) -> BezoutSolution:
    """Solve via the coefficient-reversed pair and right-hand side
    z^(N+K-1) P(1/z), then reverse the solutions back; A(0) and B(0) must be
    nonzero (the Sylvester backend solves pairs with a root at the origin)."""
    P = sylvester.right_hand_side(pair, P)
    A, B, n, k = pair.A, pair.B, pair.N, pair.K
    if abs(A(0)) < 1e-12 * A.norm() or abs(B(0)) < 1e-12 * B.norm():
        raise ZeroRootError("A(0) or B(0) vanishes; use the Sylvester backend")
    inner = sylvester.build(pair.An.reverse(n), pair.Bn.reverse(k))
    inner_sol = sylvester.solve(inner, P.reverse(n + k - 1))
    R = Polynomial([inner_sol.R.coeff(k - 1 - i) for i in range(k)])
    S = Polynomial([inner_sol.S.coeff(n - 1 - i) for i in range(n)])
    return BezoutSolution.checked(pair, P, R, S, "reversed[sylvester]")


# ---------------------------------------------------------------------------
# main-bound certification


@dataclass
class BoundCertification:
    ratio_r: float
    ratio_s: float
    crude_ratio_r: float
    crude_ratio_s: float
    delta: float
    norm_r: float
    norm_s: float
    norm_cap: float
    ceiling: float | None
    passed: bool | None

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def certify_main_bound(
    pair: Pair, solution: BezoutSolution, delta_value: float
) -> BoundCertification:
    """Ratios norm(R) * delta^2 / max(1, max-norm) (and for S), checked
    against the empirical per-degree ceiling table when available."""
    if delta_value <= 0:
        raise ValueError("certification requires delta > 0")
    n, k = pair.N, pair.K
    cap = max(1.0, pair.A.norm(), pair.B.norm())
    nr, ns = solution.R.norm(), solution.S.norm()
    ratio_r = nr * delta_value**2 / cap
    ratio_s = ns * delta_value**2 / cap
    crude_r = nr * delta_value ** min(n, k)
    crude_s = ns * delta_value ** min(n, k)
    from .ceilings import lookup_ceiling

    ceiling = lookup_ceiling(n, k)
    passed = None if ceiling is None else bool(max(ratio_r, ratio_s) <= ceiling)
    return BoundCertification(
        ratio_r=ratio_r,
        ratio_s=ratio_s,
        crude_ratio_r=crude_r,
        crude_ratio_s=crude_s,
        delta=delta_value,
        norm_r=nr,
        norm_s=ns,
        norm_cap=cap,
        ceiling=ceiling,
        passed=passed,
    )

"""Analytic solution backends for A*R + B*S = P.

Three routes to the same unique minimal-degree pair:

* residue/interpolation: for simple roots the contour formulas collapse to
  values at the roots, S(a_i) = P(a_i)/B(a_i) and R(b_j) = P(b_j)/A(b_j),
  so S and R are Lagrange interpolants. This is the well-conditioned form
  of the residue sum.
* direct quadrature of the contour integrals over constructed arc systems,
  with Gauss-Legendre rules cached per order and each contour subdivided
  once per solve.
* the reversal pipeline: solve the companion identity with right-hand side
  z^(N+K-1) for the coefficient-reversed pair, then reverse back. This is
  the route that stays bounded when roots are large.
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
from .regions import Arc, ContourSystem, _first_winding_mismatch, gauss_legendre
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
    P = P if P is not None else Polynomial([1.0])
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    _guard_simple(rootsA, "A")
    _guard_simple(rootsB, "B")
    delta(pair)  # raises CommonRootError on a shared root
    if P.degree > pair.size - 1:
        raise ValueError("deg P must be at most N+K-1")
    S = _interpolate(rootsA.roots, [P(a) / B(a) for a in rootsA.roots])
    R = _interpolate(rootsB.roots, [P(b) / A(b) for b in rootsB.roots])
    residual = (A * R + B * S - P).norm()
    return BezoutSolution(R=R, S=S, residual=residual, backend="residue")


# ---------------------------------------------------------------------------
# quadrature backend


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and complex dzeta-weights per arc, flattened."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def integrate(self, f) -> complex:
        return complex(np.sum(self.weights * f(self.nodes)))


def _subdivide(
    contour: ContourSystem, poles: np.ndarray = np.empty(0)
) -> ContourSystem:
    """The same contour with arcs split until each sweeps at most a quarter
    turn and is no longer than the distance from its midpoint to the nearest
    integrand pole (keeps the Gauss-Legendre convergence rate healthy). Arcs
    keep their order along the contour, so an already subdivided contour
    comes back unchanged."""
    arcs: list[Arc] = []
    loops: list[int] = []
    stack = list(zip(contour.arcs, contour.loops))[::-1]
    while stack:
        a, loop = stack.pop()
        split = abs(a.sweep) > math.pi / 2.0
        if not split and len(poles) and abs(a.sweep) > 1e-3:
            split = a.length > float(np.min(np.abs(poles - a.point(0.5))))
        if split:
            half = a.start_angle + a.sweep / 2.0
            stack.append((Arc(a.circle, half, a.end_angle, a.ccw), loop))
            stack.append((Arc(a.circle, a.start_angle, half, a.ccw), loop))
        else:
            arcs.append(a)
            loops.append(loop)
    return replace(contour, arcs=arcs, loops=loops)


def build_rule(contour: ContourSystem, order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order on every arc of a contour that
    _subdivide has already split. Callers that double the order subdivide the
    contour once and build a rule per order on the result."""
    arcs = contour.arcs
    x, w = gauss_legendre(order)
    t0 = np.array([a.start_angle for a in arcs])
    t1 = np.array([a.end_angle for a in arcs])
    center = np.array([a.circle.center for a in arcs])[:, None]
    radius = np.array([a.circle.radius for a in arcs])[:, None]
    half = (0.5 * (t1 - t0))[:, None]
    e = np.exp(1j * (half * x + (0.5 * (t1 + t0))[:, None]))
    return QuadratureRule(
        nodes=(center + radius * e).ravel(),
        weights=(w * (1j * radius * e * half)).ravel(),
        order=order,
    )


def _check_contour(
    contour: ContourSystem, inside: RootSet, outside: RootSet, who: str
) -> None:
    roots = list(inside.roots) + list(outside.roots)
    expected = [1] * len(inside.roots) + [0] * len(outside.roots)
    mismatch = _first_winding_mismatch(contour, roots, expected)
    if mismatch is None:
        return
    r = roots[mismatch[0]]
    if expected[mismatch[0]]:
        raise BadContour(f"{who} does not wind once around root {r:.6g}")
    raise BadContour(f"{who} must exclude root {r:.6g}")


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
    contours: tuple[ContourSystem, ContourSystem],
    P: Polynomial | None = None,
    max_order: int = 2048,
    tol: float = 1e-9,
) -> BezoutSolution:
    """Evaluate the coefficient contour integrals by per-arc Gauss-Legendre
    quadrature, doubling the order until every coefficient is stable. The
    orders run START_ORDER, 2 * START_ORDER, ... up to at most max_order.

    contours[0] must wind once around each root of A and zero times around
    each root of B; contours[1] the opposite.
    """
    P = P if P is not None else Polynomial([1.0])
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    gamma1, gamma2 = contours
    _check_contour(gamma1, rootsA, rootsB, "contour 1")
    _check_contour(gamma2, rootsB, rootsA, "contour 2")
    n, k = pair.N, pair.K
    if P.degree > n + k - 1:
        raise ValueError("deg P must be at most N+K-1")
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
            R, S = Polynomial(r_new), Polynomial(s_new)
            residual = (A * R + B * S - P).norm()
            return BezoutSolution(
                R=R, S=S, residual=residual, backend="quadrature"
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


def solve_reversed(pair: Pair) -> BezoutSolution:
    """Solve via the coefficient-reversed pair and right-hand side z^(N+K-1),
    then reverse the solutions back; A(0) and B(0) must be nonzero (the
    Sylvester backend solves pairs with a root at the origin)."""
    A, B, n, k = pair.A, pair.B, pair.N, pair.K
    if abs(A(0)) < 1e-12 * A.norm() or abs(B(0)) < 1e-12 * B.norm():
        raise ZeroRootError("A(0) or B(0) vanishes; use the Sylvester backend")
    inner = sylvester.build(pair.An.reverse(n), pair.Bn.reverse(k))
    inner_sol = sylvester.solve(inner, Polynomial.monomial(n + k - 1))
    R = Polynomial([inner_sol.R.coeff(k - 1 - i) for i in range(k)])
    S = Polynomial([inner_sol.S.coeff(n - 1 - i) for i in range(n)])
    residual = (A * R + B * S - Polynomial([1.0])).norm()
    return BezoutSolution(
        R=R, S=S, residual=residual, backend="reversed[sylvester]"
    )


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

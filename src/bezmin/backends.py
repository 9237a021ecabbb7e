"""Analytic solution backends for A*R + B*S = P.

Three routes to the same unique minimal-degree pair; like sylvester.solve,
each takes (pair, P) with P = 1 by default:

* residue: for simple roots the residue theorem evaluates the contour
  formulas exactly. The moments of P/(A B) are sums over the roots, and
  the quadrature's kernel (_coefficients_from_integrals) turns them into
  coefficients, so S and R are the interpolants of P/B at the roots of A
  and of P/A at the roots of B.
* direct quadrature of the contour integrals over constructed arc systems,
  with Gauss-Legendre nodes cached per order. The E_A and E_B contours are
  integrated in one pass: one arc table, subdivided once per solve, one
  rule per order, and A and B evaluated at its nodes together.
* the reversal pipeline: solve the companion identity with right-hand side
  z^(N+K-1) P(1/z) for the coefficient-reversed pair, then reverse back.
  This is the route that stays bounded when roots are large. The reversed
  pair's Sylvester matrix is a row and column permutation of the pair's, so
  it shares the pair's singularity check and is solved from the permuted
  entries, with no second build.

Both contour integrals, solve_quadrature's coefficients and contour_metrics'
integral of |du|/|u|, run build_rule on the _subdivide'd arc table, with the
order doubled by _settle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import sylvester
from .errors import (
    BadContour,
    IllConditionedInterpolation,
    MultipleRootsError,
    QuadratureNotConverged,
    ZeroRootError,
)
from .poly import Polynomial, Stack
from .regions import (
    ContourSystem,
    RegionKind,
    arc_points,
    build_region_with_jitter,
    region_probes,
)
from .roots import RootSet
from .sylvester import BezoutSolution, Pair

# the first quadrature order; _settle doubles it until the value settles, up
# to MAX_ORDER
START_ORDER = 16
MAX_ORDER = 2048


def _guard_simple(roots: RootSet, who: str) -> None:
    if roots.any_suspect:
        raise MultipleRootsError(
            f"{who} has multiplicity-suspect roots; use the Sylvester backend"
        )


def _interpolate(nodes, values) -> Polynomial:
    """The interpolant of values at distinct nodes x_i, as a residue sum: the
    weights value_i / prod_{j != i}(x_i - x_j) give the moments
    sum_i weight_i x_i^m, which the quadrature's kernel turns into
    coefficients over the monic node product."""
    nodes = [complex(x) for x in nodes]
    weights = []
    for i, (x, y) in enumerate(zip(nodes, values)):
        d = math.prod(x - t for j, t in enumerate(nodes) if j != i)
        if d == 0 or not cmath.isfinite(d):
            raise IllConditionedInterpolation(
                f"repeated or degenerate node {x:.6g}"
            )
        w = y / d
        if not cmath.isfinite(w):
            raise IllConditionedInterpolation(
                f"barycentric weight overflow at node {x:.6g}"
            )
        weights.append(w)
    moments = [sum(w * x**m for w, x in zip(weights, nodes))
               for m in range(len(nodes))]
    omega = Polynomial.from_roots(nodes)
    return Polynomial(_coefficients_from_integrals(omega, moments))


def solve_residue(pair: Pair, P: Polynomial | None = None) -> BezoutSolution:
    """The contour formulas for simple roots, summed by the residue theorem:
    interpolate P/B at the roots of A and P/A at the roots of B."""
    P = sylvester.right_hand_side(pair, P)
    _guard_simple(pair.rootsA, "A")
    _guard_simple(pair.rootsB, "B")
    pair.delta  # raises CommonRootError on a shared root
    ra, rb = pair.rootsA.roots, pair.rootsB.roots
    S = _interpolate(ra, [P(a) / v for a, v in zip(ra, pair.B_at_rootsA)])
    R = _interpolate(rb, [P(b) / v for b, v in zip(rb, pair.A_at_rootsB)])
    return BezoutSolution.checked(pair, P, R, S, "residue")


# ---------------------------------------------------------------------------
# quadrature backend


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    (leggauss solves an eigenproblem each call) and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and complex dzeta-weights per arc, flattened."""

    nodes: np.ndarray
    weights: np.ndarray


def _subdivide(contour: ContourSystem, poles: np.ndarray) -> ContourSystem:
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
            mid = arc_points(center, radius, start, end, 0.5)
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
    )


def _settle(value, tol: float, what: str) -> np.ndarray:
    """value(order) for order = START_ORDER, 2 * START_ORDER, ... up to
    MAX_ORDER, once two orders in a row agree within tol in every entry;
    QuadratureNotConverged, naming `what`, when the orders run out first."""
    order = START_ORDER
    prev = value(order)
    while 2 * order <= MAX_ORDER:
        order *= 2
        new = value(order)
        if np.max(np.abs(new - prev), initial=0.0) <= tol:
            return new
        prev = new
    raise QuadratureNotConverged(
        f"{what} still moving between orders {order // 2} and {order}"
    )


def _coefficients_from_integrals(
    g: Polynomial, moments: np.ndarray
) -> np.ndarray:
    """c_j = sum_{k=j+1}^{n} g_k moments[k-j-1] (the expanded kernel form),
    for g already normalized."""
    coeffs = g.coeffs
    out = np.zeros(g.degree, dtype=complex)
    for j in range(len(out)):
        out[j] = sum(c * m for c, m in zip(coeffs[j + 1:], moments))
    return out


def solve_quadrature(
    pair: Pair,
    P: Polynomial | None = None,
    tol: float = 1e-9,
) -> BezoutSolution:
    """Evaluate the coefficient contour integrals by per-arc Gauss-Legendre
    quadrature, doubling the order until every coefficient is stable
    (_settle).

    The contours are the E_A and E_B region boundaries, whose certificates
    must give the windings region_probes asks for. Both are integrated in one
    pass: their arcs form one table, subdivided once, with one rule per
    order; A and B are evaluated at its nodes together by one Stack, and each
    contour's moments sum its own nodes' rows of one table of successive
    powers.
    """
    P = sylvester.right_hand_side(pair, P)
    rootsA, rootsB = pair.rootsA, pair.rootsB
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
    # contour 2's loops are numbered after contour 1's; _subdivide keeps the
    # arcs in order, so contour 1's come first
    both = ContourSystem(
        *(np.concatenate([getattr(gamma1, col), getattr(gamma2, col)])
          for col in ("center", "radius", "start", "end")),
        gamma1.loops + [gamma1.n_loops + i for i in gamma2.loops],
    )
    both = _subdivide(both, poles)
    arcs1 = both.loops.index(gamma1.n_loops)
    ab = Stack((pair.A, pair.B))

    def solve_at(order: int) -> np.ndarray:
        rule = build_rule(both, order)
        z = rule.nodes
        a, b = ab(z)
        # row m: the integrand times z^m; each contour sums its own columns
        powers = np.empty((max(n, k), len(z)), dtype=complex)
        powers[0] = rule.weights * P(z) / (a * b)
        for m in range(1, len(powers)):
            np.multiply(powers[m - 1], z, out=powers[m])
        cut = arcs1 * order
        m1 = np.sum(powers[:n, :cut], axis=1) / (2j * math.pi)
        m2 = np.sum(powers[:k, cut:], axis=1) / (2j * math.pi)
        s = _coefficients_from_integrals(pair.An, m1)
        r = _coefficients_from_integrals(pair.Bn, m2)
        return np.concatenate([r, s])

    rs = _settle(solve_at, tol, "coefficients")
    return BezoutSolution.checked(
        pair, P, Polynomial(rs[:k]), Polynomial(rs[k:]), "quadrature"
    )


# ---------------------------------------------------------------------------
# contour metrics


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


def contour_metrics(contour: ContourSystem, pair: Pair) -> ContourMetrics:
    """Length, the scale-invariant integral of |du|/|u|, and the lower bounds
    on |A| and |B| along the contour at the pair's delta (CommonRootError
    on a shared root). The integral is the sum of |w| / |zeta|
    over a Gauss-Legendre rule on the contour subdivided about the origin,
    settled to 1e-9 (QuadratureNotConverged when it does not settle).
    Violated bounds are reported, not raised; they validate the theory
    rather than gate the build."""
    A, B, n, k, delta = pair.A, pair.B, pair.N, pair.K, pair.delta
    split = _subdivide(contour, np.zeros(1, dtype=complex))

    def log_integral(order: int) -> float:
        rule = build_rule(split, order)
        return np.sum(np.abs(rule.weights) / np.abs(rule.nodes))

    log_int = float(_settle(log_integral, 1e-9, "log integral"))

    # m midpoint samples per arc, at least 16 and 64 per half turn
    sweep = contour.end - contour.start
    m = np.maximum(16, (64 * np.abs(sweep) / math.pi).astype(int))
    arc = np.repeat(np.arange(len(m)), m)
    sample = np.arange(len(arc)) - np.repeat(np.cumsum(m) - m, m)
    columns = (contour.center, contour.radius, contour.start, contour.end)
    zs = arc_points(*(col[arc] for col in columns), (sample + 0.5) / m[arc])
    min_a, min_b = np.min(np.abs(Stack((A, B))(zs)), axis=1, initial=math.inf).tolist()

    eps = 1.0 / (4.0 * (n + k + 2.0))
    c5 = min(1.0, eps**n)
    lower_a = min(c5 * A.norm() / 2.0**n, delta / 3.0**n)
    lower_b = delta / 3.0**k
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


# ---------------------------------------------------------------------------
# reversal pipeline


def solve_reversed(pair: Pair, P: Polynomial | None = None) -> BezoutSolution:
    """Solve via the coefficient-reversed pair and right-hand side
    z^(N+K-1) P(1/z), then reverse the solutions back; A(0) and B(0) must be
    nonzero (the Sylvester backend solves pairs with a root at the origin).
    A singular pair is refused by the pair's own check (SingularSystemError).
    """
    P = sylvester.right_hand_side(pair, P)
    A, B, n, k = pair.A, pair.B, pair.N, pair.K
    if abs(A(0)) < 1e-12 * A.norm() or abs(B(0)) < 1e-12 * B.norm():
        raise ZeroRootError("A(0) or B(0) vanishes; use the Sylvester backend")
    # the Sylvester matrix of the reversed pair holds the pair's entries with
    # the rows reversed and the columns reversed within each block, so it has
    # the same singular values and the pair's check decides it
    sylvester._factor(pair)
    cols = np.r_[k - 1 : -1 : -1, n + k - 1 : k - 1 : -1]
    b = np.array(P.reverse(n + k - 1).coeffs)
    x = sylvester._refined_solve(pair.entries[::-1, cols], b)
    # x holds the reversed pair's R and S; each reversed gives the pair's
    R, S = Polynomial(x[k - 1 :: -1]), Polynomial(x[: k - 1 : -1])
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


def certify_main_bound(pair: Pair, solution: BezoutSolution) -> BoundCertification:
    """Ratios norm(R) * delta^2 / max(1, max-norm) (and for S) at the pair's
    delta, checked against the empirical per-degree ceiling table when
    available."""
    n, k, delta = pair.N, pair.K, pair.delta
    cap = max(1.0, pair.A.norm(), pair.B.norm())
    nr, ns = solution.R.norm(), solution.S.norm()
    ratio_r = nr * delta**2 / cap
    ratio_s = ns * delta**2 / cap
    crude_r = nr * delta ** min(n, k)
    crude_s = ns * delta ** min(n, k)
    from .ceilings import lookup_ceiling

    ceiling = lookup_ceiling(n, k)
    passed = None if ceiling is None else bool(max(ratio_r, ratio_s) <= ceiling)
    return BoundCertification(
        ratio_r=ratio_r,
        ratio_s=ratio_s,
        crude_ratio_r=crude_r,
        crude_ratio_s=crude_s,
        delta=delta,
        norm_r=nr,
        norm_s=ns,
        norm_cap=cap,
        ceiling=ceiling,
        passed=passed,
    )

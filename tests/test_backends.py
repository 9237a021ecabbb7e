import cmath
import math

import numpy as np
import pytest

from bezmin import backends, sylvester
from bezmin.backends import (
    _coefficients_from_integrals,
    _subdivide,
    build_rule,
    certify_main_bound,
    solve_quadrature,
    solve_residue,
    solve_reversed,
)
from bezmin.errors import (
    BadContour,
    CommonRootError,
    IllConditionedInterpolation,
    MultipleRootsError,
    QuadratureNotConverged,
    ZeroRootError,
)
from bezmin.poly import Polynomial
from bezmin.regions import RegionKind, build_region_with_jitter
from bezmin.roots import RootSet
from bezmin.separation import delta
from bezmin.sylvester import build
from oracles import (
    RefArc,
    argument_principle_count,
    contour_of,
    integrate,
    random_pair,
    ref_arcs,
    residue_sum_solution,
    sample_degrees,
    subdivide_reference,
)

Z = Polynomial([0, 1])
ONE_MINUS_Z = Polynomial([1, -1])


def _coeff_diff(p, q, n):
    return max(abs(p.coeff(i) - q.coeff(i)) for i in range(n))


def _region_a(inst):
    return build_region_with_jitter(RegionKind.E_A, inst.rootsA, inst.rootsB)


# ---------------------------------------------------------------------------
# kernel: with moments zeta^m, the quadrature's coefficient map gives the
# coefficients in z of g(zeta, z) = (G(zeta) - G(z)) / (zeta - z)


def _kernel(G, zeta):
    n = G.normalize().degree
    return Polynomial(_coefficients_from_integrals(G, zeta ** np.arange(n)))


def test_kernel_identity():
    rng = np.random.default_rng(51)
    for _ in range(30):
        deg = int(rng.integers(1, 8))
        G = Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        zeta = complex(rng.standard_normal(), rng.standard_normal())
        z = complex(rng.standard_normal(), rng.standard_normal())
        if abs(zeta - z) <= 1e-8:
            continue
        want = G(zeta) - G(z)
        got = _kernel(G, zeta)(z) * (zeta - z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_kernel_diagonal_is_derivative():
    G = Polynomial([1.0, -2.0, 0.5j, 3.0])
    dG = G.derivative()
    for zeta in (0.3, -1.2 + 0.8j, 2.0j):
        got = _kernel(G, zeta)(zeta)
        assert abs(got - dG(zeta)) < 1e-12 * max(1.0, abs(dG(zeta)))


def test_kernel_degree_in_z():
    G = Polynomial([2.0, 0.0, 1.0, 4.0])  # degree 3
    c = _kernel(G, 0.7 + 0.1j).coeffs
    assert len(c) == 3
    assert c[2] == G.coeff(3)


# ---------------------------------------------------------------------------
# residue backend


def test_residue_trivial_pair():
    sol = solve_residue(build(Z, ONE_MINUS_Z))
    assert sol.R == Polynomial([1.0])
    assert sol.S == Polynomial([1.0])
    assert sol.residual < 1e-15


def test_residue_sharpness_line():
    # N=2, a=1/2: R interpolates 1/A at the roots of B, giving z/a^3 = 8z
    n, a = 2, 0.5
    w = cmath.exp(2j * cmath.pi / (2 * n - 1))
    B = Polynomial.from_roots([a * w**j for j in range(1, n + 1)])
    # A = z^2 has a double root, so interpolate with a slightly split A
    A = Polynomial.from_roots([1e-5, -1e-5])
    sol = solve_residue(build(A, B))
    assert abs(sol.R.coeff(1) - 8.0) < 1e-3  # perturbed instance, loose
    sol_exact = sylvester.solve(build(Polynomial.monomial(n), B))
    assert abs(sol_exact.R.coeff(1) - 8.0) < 1e-9


def test_residue_refuses_multiple_roots():
    A = Polynomial.from_roots([0.5, 0.5])
    B = ONE_MINUS_Z
    with pytest.raises(MultipleRootsError):
        solve_residue(build(A, B))


def test_residue_refuses_common_roots():
    A = Polynomial.from_roots([0.5, -0.25])
    B = Polynomial.from_roots([0.5, 0.8])
    with pytest.raises(CommonRootError):
        solve_residue(build(A, B))


def test_interpolation_overflow_guard():
    fake = RootSet(
        roots=(0.5 + 0j, 0.5 + 0j),
        residuals=(0.0, 0.0),
        multiplicity_suspect=(False, False),
        cauchy_bound=2.0,
        verified=True,
    )
    pair = build(Polynomial.from_roots([0.5, 0.5]), ONE_MINUS_Z)
    object.__setattr__(pair, "rootsA", fake)  # fills the cached property
    with pytest.raises(IllConditionedInterpolation):
        solve_residue(pair)


def test_residue_matches_sylvester_random():
    rng = np.random.default_rng(52)
    for _ in range(25):
        da, db = sample_degrees(rng, 1, 6)
        inst = random_pair(rng, da, db, delta_floor=0.05, require_simple=True)
        s_lin = sylvester.solve(inst.pair)
        s_res = solve_residue(inst.pair)
        assert _coeff_diff(s_lin.R, s_res.R, db) <= 1e-8
        assert _coeff_diff(s_lin.S, s_res.S, da) <= 1e-8


def test_literal_residue_sum_oracle():
    rng = np.random.default_rng(53)
    for _ in range(10):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=0.1, require_simple=True)
        P = Polynomial(rng.standard_normal(da + db))
        s_bar = solve_residue(inst.pair, P)
        s_lit = residue_sum_solution(inst.pair, P)
        assert _coeff_diff(s_bar.R, s_lit.R, db) <= 1e-7 * max(1, s_bar.R.norm())
        assert _coeff_diff(s_bar.S, s_lit.S, da) <= 1e-7 * max(1, s_bar.S.norm())


# ---------------------------------------------------------------------------
# quadrature backend


def test_rule_integrates_powers_to_tolerance():
    # per arc, compare against the exact antiderivative z^(k+1)/(k+1)
    rng = np.random.default_rng(54)
    inst = random_pair(rng, 3, 3, delta_floor=0.05, require_simple=True)
    g1 = _region_a(inst)
    rule = build_rule(_subdivide(g1), order=16)
    for k in range(8):
        want = 0j
        for arc in ref_arcs(g1):
            p0, p1 = arc.point(0.0), arc.point(1.0)
            want += (p1 ** (k + 1) - p0 ** (k + 1)) / (k + 1)
        got = integrate(rule, lambda z: z**k)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _subdivide_cases():
    """(contour, poles): the E_A and E_B boundaries of random pairs, with
    their roots as poles and with none, and a contour of clockwise and
    counterclockwise loops and full circles with poles just off its arcs."""
    rng = np.random.default_rng(65)
    for _ in range(6):
        da, db = sample_degrees(rng, 1, 6)
        inst = random_pair(rng, da, db, delta_floor=0.02, require_simple=True)
        poles = list(inst.rootsA.roots) + list(inst.rootsB.roots)
        for kind in (RegionKind.E_A, RegionKind.E_B):
            contour = build_region_with_jitter(kind, inst.rootsA, inst.rootsB)
            yield contour, poles
            yield contour, []
    ccw = [RefArc(0.5j, 1.0, t, t + 1.5) for t in (-2.0, -0.5, 1.0)]
    ccw.append(RefArc(0.5j, 1.0, 2.5, -2.0 + 2 * math.pi))
    cw = [a.reversed() for a in reversed(ccw)]
    full = [
        RefArc(3 + 0j, 0.5, -math.pi, math.pi),
        RefArc(-3 + 0j, 0.7, 1.0, 1.0 - 2 * math.pi),
    ]
    contour = contour_of(ccw + cw + full, [0] * 4 + [1] * 4 + [2, 3], scale=5.0)
    yield contour, [0.5j + 1.01 * cmath.exp(0.3j), 3 - 0.49j, -3.7 + 0.01j]


def test_subdivide_matches_scalar_reference():
    # the array passes split the same arcs at the same angles as halving one
    # arc at a time, and keep the arcs in order along each loop
    pole_splits = 0
    for contour, poles in _subdivide_cases():
        got = _subdivide(contour, np.array(poles, dtype=complex))
        arcs, loops = subdivide_reference(ref_arcs(contour), contour.loops, poles)
        assert ref_arcs(got) == arcs
        assert got.loops == loops
        assert all(abs(a.sweep) <= math.pi / 2 for a in arcs)
        if poles:
            plain, _ = subdivide_reference(ref_arcs(contour), contour.loops, [])
            pole_splits += len(arcs) - len(plain)
    assert pole_splits >= 20  # the pole-distance rule is exercised


def test_subdivide_leaves_a_split_contour_unchanged():
    for contour, poles in _subdivide_cases():
        poles = np.array(poles, dtype=complex)
        once = _subdivide(contour, poles)
        twice = _subdivide(once, poles)
        assert ref_arcs(twice) == ref_arcs(once)
        assert twice.loops == once.loops


def test_quadrature_agrees_with_residue():
    rng = np.random.default_rng(55)
    for _ in range(10):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=0.05, require_simple=True)
        s_q = solve_quadrature(inst.pair)
        s_r = solve_residue(inst.pair)
        assert _coeff_diff(s_q.R, s_r.R, db) <= 1e-7
        assert _coeff_diff(s_q.S, s_r.S, da) <= 1e-7


def test_quadrature_rhs_equal_to_a():
    # P = A forces R = 1, S = 0; residual must stay tiny
    rng = np.random.default_rng(56)
    inst = random_pair(rng, 3, 4, delta_floor=0.05, require_simple=True)
    sol = solve_quadrature(inst.pair, inst.A)
    assert sol.residual <= 1e-8


def test_quadrature_winding_sanity():
    rng = np.random.default_rng(57)
    inst = random_pair(rng, 3, 3, delta_floor=0.05, require_simple=True)
    g1 = _region_a(inst)
    count = argument_principle_count(inst.A, g1)
    assert abs(count - inst.A.degree) < 1e-6


def test_quadrature_rejects_swapped_contours(monkeypatch):
    rng = np.random.default_rng(58)
    inst = random_pair(rng, 2, 3, delta_floor=0.05, require_simple=True)
    swap = {RegionKind.E_A: RegionKind.E_B, RegionKind.E_B: RegionKind.E_A}

    def swapped(kind, rootsA, rootsB):
        return build_region_with_jitter(swap[kind], rootsA, rootsB)

    monkeypatch.setattr(backends, "build_region_with_jitter", swapped)
    with pytest.raises(BadContour):
        solve_quadrature(inst.pair)


def test_quadrature_stable_under_doubling():
    # a tighter tolerance runs to a higher order; the coefficients agree
    rng = np.random.default_rng(59)
    inst = random_pair(rng, 4, 3, delta_floor=0.05, require_simple=True)
    a = solve_quadrature(inst.pair)
    b = solve_quadrature(inst.pair, tol=1e-12)
    assert _coeff_diff(a.R, b.R, 3) < 1e-9
    assert _coeff_diff(a.S, b.S, 4) < 1e-9


def test_quadrature_never_exceeds_max_order(monkeypatch):
    # an unreachable tolerance doubles the order until max_order, which is
    # the last order evaluated, and the error names the last two compared
    rng = np.random.default_rng(64)
    inst = random_pair(rng, 3, 3, delta_floor=0.05, require_simple=True)
    built = []

    def spy(contour, order):
        built.append(order)
        return build_rule(contour, order)

    monkeypatch.setattr(backends, "build_rule", spy)
    with pytest.raises(QuadratureNotConverged, match="orders 32 and 64"):
        solve_quadrature(inst.pair, max_order=64, tol=1e-30)
    assert max(built) == 64


def test_argument_principle_count_never_exceeds_max_order(monkeypatch):
    import oracles

    rng = np.random.default_rng(64)
    inst = random_pair(rng, 3, 3, delta_floor=0.05, require_simple=True)
    g1 = _region_a(inst)
    built = []

    def spy(contour, order):
        built.append(order)
        return build_rule(contour, order)

    monkeypatch.setattr(oracles, "build_rule", spy)
    with pytest.raises(QuadratureNotConverged, match="orders 32 and 64"):
        argument_principle_count(inst.A, g1, max_order=64, tol=1e-30)
    assert max(built) == 64


def test_quadrature_solution_values_at_roots():
    # the degree-(N-1) solution part takes the value P/B at each root of A
    rng = np.random.default_rng(60)
    inst = random_pair(rng, 4, 4, delta_floor=0.05, require_simple=True)
    P = Polynomial(rng.standard_normal(5))
    sol = solve_quadrature(inst.pair, P)
    for a in inst.rootsA.roots:
        want = P(a) / inst.B(a)
        assert abs(sol.S(a) - want) <= 1e-8 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# reversal pipeline


def test_reversed_matches_direct():
    A = Polynomial([-0.5, 1.0])  # z - 1/2
    B = Polynomial([0.5, 1.0])  # z + 1/2
    pair = build(A, B)
    direct = sylvester.solve(pair)
    rev = solve_reversed(pair)
    assert _coeff_diff(direct.R, rev.R, 1) <= 1e-9
    assert _coeff_diff(direct.S, rev.S, 1) <= 1e-9
    assert rev.residual <= 1e-12


def test_reversed_requires_nonzero_constant_terms():
    with pytest.raises(ZeroRootError):
        solve_reversed(build(Z, ONE_MINUS_Z))


def test_reversed_random_round_trip():
    rng = np.random.default_rng(61)
    done = 0
    while done < 15:
        da, db = sample_degrees(rng, 1, 6)
        inst = random_pair(rng, da, db, delta_floor=0.05)
        if abs(inst.A(0)) < 1e-3 or abs(inst.B(0)) < 1e-3:
            continue
        direct = sylvester.solve(inst.pair)
        rev = solve_reversed(inst.pair)
        scale = max(1.0, direct.R.norm(), direct.S.norm())
        assert _coeff_diff(direct.R, rev.R, db) <= 1e-8 * scale
        assert _coeff_diff(direct.S, rev.S, da) <= 1e-8 * scale
        done += 1


def test_reversed_inner_residue():
    # the reversal identity with the residue backend as the inner solver:
    # solve the reversed pair for z^(N+K-1) and reverse the cofactors back
    rng = np.random.default_rng(62)
    inst = random_pair(rng, 3, 3, delta_floor=0.1, require_simple=True)
    if abs(inst.A(0)) > 1e-3 and abs(inst.B(0)) > 1e-3:
        direct = sylvester.solve(inst.pair)
        At, Bt = inst.A.reverse(3), inst.B.reverse(3)
        inner = solve_residue(build(At, Bt), Polynomial.monomial(5))
        R = Polynomial([inner.R.coeff(2 - i) for i in range(3)])
        assert _coeff_diff(direct.R, R, 3) <= 1e-7


# ---------------------------------------------------------------------------
# three-way agreement and certification


def test_three_way_agreement_batch():
    rng = np.random.default_rng(63)
    for _ in range(15):
        da, db = sample_degrees(rng, 1, 6)
        inst = random_pair(rng, da, db, delta_floor=0.05, require_simple=True)
        s_lin = sylvester.solve(inst.pair)
        s_res = solve_residue(inst.pair)
        s_quad = solve_quadrature(inst.pair)
        for x, y in ((s_lin, s_res), (s_lin, s_quad), (s_res, s_quad)):
            assert _coeff_diff(x.R, y.R, db) <= 1e-7
            assert _coeff_diff(x.S, y.S, da) <= 1e-7


def test_certify_sharpness_family():
    # norm(R) delta^2 = delta^(1/N) <= 1 for the extremal family; the capped
    # ratio can only be smaller (for N >= 3 the B norm slightly exceeds 1)
    for n in (2, 3, 4):
        for a in (0.9, 0.5, 0.2):
            w = cmath.exp(2j * cmath.pi / (2 * n - 1))
            A = Polynomial.monomial(n)
            B = Polynomial.from_roots([a * w**j for j in range(1, n + 1)])
            pair = build(A, B)
            rep = delta(pair)
            sol = sylvester.solve(pair)
            assert sol.R.norm() == pytest.approx(
                rep.delta ** (-2.0 + 1.0 / n), rel=1e-8
            )
            cert = certify_main_bound(pair, sol, rep.delta)
            raw = sol.R.norm() * rep.delta**2
            assert raw == pytest.approx(rep.delta ** (1.0 / n), rel=1e-8)
            assert cert.ratio_r <= raw + 1e-12
            assert cert.ratio_r <= 1.0 + 1e-12
            assert cert.passed is True


def test_certify_trivial_pair():
    pair = build(Z, ONE_MINUS_Z)
    rep = delta(pair)
    sol = sylvester.solve(pair)
    cert = certify_main_bound(pair, sol, rep.delta)
    assert cert.ratio_r == pytest.approx(1.0)
    assert cert.ratio_s == pytest.approx(1.0)


def test_certify_unnormalized_blowup():
    # without the norm cap the product norm(R1) delta1^2 equals 1/a
    n = 2
    for a in (0.5, 0.25, 0.125, 0.0625):
        w = cmath.exp(2j * cmath.pi / (2 * n - 1))
        A1 = Polynomial.monomial(n).scale(a**-2)
        B1 = Polynomial.from_roots([a * w**j for j in range(1, n + 1)]).scale(a**-2)
        pair = build(A1, B1)
        rep = delta(pair)
        sol = sylvester.solve(pair)
        raw = sol.R.norm() * rep.delta**2
        assert raw == pytest.approx(1.0 / a, rel=1e-9)
        cert = certify_main_bound(pair, sol, rep.delta)
        # capped ratio stays bounded even though the raw product blows up
        assert cert.ratio_r <= 1.0 + 1e-9

def test_monomial_family_matches_residue_backend():
    rng = np.random.default_rng(64)
    inst = random_pair(rng, 3, 3, delta_floor=0.1, require_simple=True)
    for ell in range(6):
        P = Polynomial.monomial(ell)
        sol = sylvester.solve(inst.pair, P)
        s_res = solve_residue(inst.pair, P)
        assert _coeff_diff(sol.R, s_res.R, 3) <= 1e-8
        assert _coeff_diff(sol.S, s_res.S, 3) <= 1e-8

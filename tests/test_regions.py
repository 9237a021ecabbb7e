import cmath
import math

import numpy as np
import pytest
from scipy import ndimage

from bezmin.errors import (
    DegenerateArrangement,
    OnContourError,
    OriginTooClose,
)
from bezmin.poly import Polynomial
from bezmin.regions import (
    Arc,
    ContourSystem,
    Disk,
    RegionKind,
    _circle_intersections,
    build_region,
    build_region_with_jitter,
    contour_distance,
    contour_metrics,
    invert_contour,
    membership,
    winding_numbers,
)
from bezmin.roots import find_roots
from bezmin.separation import delta
from bezmin.sylvester import build
from bezmin.svgout import render_svg
from oracles import (
    argument_principle_count,
    random_pair,
    sample_degrees,
    translation_point,
)

FIG1_ALPHAS = [0.25 + 0.125j, -0.5, 0.4]
FIG1_BETAS = [1 / 9 + 5j / 6, 1 / 8 + 0.5j, 1j / 3, 1j / 5]


@pytest.fixture(scope="module")
def fig1():
    A = Polynomial.from_roots(FIG1_ALPHAS)
    B = Polynomial.from_roots(FIG1_BETAS)
    return A, B, find_roots(A), find_roots(B)


def _unit_circle_contour() -> ContourSystem:
    arc = Arc(Disk(0j, 1.0), -math.pi, math.pi)
    return ContourSystem(arcs=[arc], loops=[0], total_length=2 * math.pi,
                         scale=2.0)


def test_winding_unit_circle():
    c = _unit_circle_contour()
    assert winding_numbers(c, [0.0, 3.0, 0.9j]).tolist() == [1, 0, 1]


def test_winding_on_contour_raises():
    c = _unit_circle_contour()
    with pytest.raises(OnContourError):
        winding_numbers(c, [1.0])


def test_fig1_component_counts(fig1):
    A, B, ra, rb = fig1
    ea = build_region(RegionKind.E_A, ra, rb)
    eb = build_region(RegionKind.E_B, ra, rb)
    assert ea.n_loops == 2
    assert eb.n_loops == 1


def test_fig1_counts_against_rasterization(fig1):
    # marching-squares style oracle: label the membership grid
    A, B, ra, rb = fig1
    kind = RegionKind.E_A
    xs = np.linspace(-1.0, 1.2, 512)
    X, Y = np.meshgrid(xs, xs)
    mask = membership(kind, ra, rb, X + 1j * Y)
    _, ncomp = ndimage.label(mask)
    assert ncomp == 2


def test_single_root_region_is_smallest_circle():
    # N=1: E_A is the concentric disk with the smallest radius rule
    alpha = 0.3 + 0.2j
    A = Polynomial.from_roots([alpha])
    B = Polynomial.from_roots([1.0, -0.7j, 0.9j])
    ra, rb = find_roots(A), find_roots(B)
    ea = build_region(RegionKind.E_A, ra, rb)
    assert ea.n_loops == 1
    assert len(ea.arcs) == 1
    want = min(abs(b - alpha) / 3.0 for b in rb.roots)
    assert ea.arcs[0].circle.radius == pytest.approx(want, rel=1e-12)
    assert ea.arcs[0].is_full_circle


def test_loop_closure_and_interior_winding(fig1):
    from bezmin.regions import winding_of_arcs

    A, B, ra, rb = fig1
    ea = build_region(RegionKind.E_A, ra, rb)
    tol = 1e-9 * ea.scale
    for li in range(ea.n_loops):
        arcs = ea.loop_arcs(li)
        for a, b in zip(arcs, arcs[1:] + arcs[:1]):
            assert abs(a.end_point - b.start_point) <= tol
        # the loop winds exactly once around a point just inside its first arc
        first = arcs[0]
        u = (first.point(0.5) - first.circle.center) / first.circle.radius
        probe = first.circle.center + (first.circle.radius - 1e-5) * u
        w = round(winding_of_arcs(arcs, probe))
        assert w in (-1, 1)


def test_membership_matches_winding_parity(fig1):
    A, B, ra, rb = fig1
    kind = RegionKind.E_A
    ea = build_region(kind, ra, rb)
    rng = np.random.default_rng(41)
    pts = 1.4 * (rng.random(10_000) - 0.5) + 1.4j * (rng.random(10_000) - 0.5)
    member = membership(kind, ra, rb, pts)
    checked = 0
    for z, m in zip(pts, member):
        if contour_distance(ea.arcs, z) < 1e-6:
            continue
        assert bool(m) == (winding_numbers(ea, [z])[0] == 1)
        checked += 1
    assert checked > 9000


def test_random_instances_certify_windings():
    rng = np.random.default_rng(42)
    for _ in range(10):
        da, db = sample_degrees(rng, 1, 4)
        inst = random_pair(rng, da, db, delta_floor=0.05, require_simple=True)
        ea = build_region_with_jitter(
            RegionKind.E_A, inst.rootsA, inst.rootsB
        )
        for a in inst.rootsA.roots:
            assert winding_numbers(ea, [a])[0] == 1
        for b in inst.rootsB.roots:
            assert winding_numbers(ea, [b])[0] == 0


def test_argument_principle_on_boundaries(fig1):
    A, B, ra, rb = fig1
    ea = build_region(RegionKind.E_A, ra, rb)
    count_a = argument_principle_count(A, ea)
    count_b = argument_principle_count(B, ea)
    assert abs(count_a - A.degree) < 1e-6
    assert abs(count_b) < 1e-6


def test_tangent_circles_raise():
    with pytest.raises(DegenerateArrangement):
        _circle_intersections(np.array([0.0, 2.0]), np.zeros(2), np.ones(2), 1.0)


def test_root_at_origin_rejected_for_da():
    A = Polynomial([0, 1])
    B = Polynomial([1, -1])
    with pytest.raises(DegenerateArrangement):
        build_region(RegionKind.D_A, find_roots(A), find_roots(B))


def test_log_integral_scale_invariance():
    # integral of |du|/|u| over the boundary of D(alpha, 3|alpha|/4) does not
    # depend on alpha; oracle by dense Riemann sum
    thetas = np.linspace(0, 2 * math.pi, 200_001)[:-1]
    oracle = float(
        np.mean(0.75 / np.abs(1.0 + 0.75 * np.exp(1j * thetas))) * 2 * math.pi
    )
    for alpha in (0.3, -2.0 + 1.5j, 40j):
        arc = Arc(Disk(alpha, 0.75 * abs(alpha)), -math.pi, math.pi)
        contour = ContourSystem([arc], [0], arc.length, {}, 1 + abs(alpha))
        A = Polynomial.from_roots([alpha])
        B = Polynomial.from_roots([3.0 * abs(alpha)])
        m = contour_metrics(contour, build(A, B), 0.1)
        assert m.log_derivative_integral == pytest.approx(oracle, rel=1e-8)


def test_gamma1_log_integral_bound_random():
    rng = np.random.default_rng(43)
    done = 0
    while done < 8:
        da, db = sample_degrees(rng, 1, 3)
        inst = random_pair(rng, da, db, delta_floor=0.05, require_simple=True)
        if min(abs(r) for r in inst.rootsA.roots) < 1e-3:
            continue
        try:
            g1 = build_region_with_jitter(
                RegionKind.GAMMA1, inst.rootsA, inst.rootsB
            )
        except DegenerateArrangement:
            continue
        m = contour_metrics(g1, inst.pair, inst.delta)
        n, k = inst.A.degree, inst.B.degree
        assert m.log_derivative_integral <= 6 * math.pi * n ** (k + 1) + 1e-9
        assert m.b_bound_ok
        assert m.a_bound_ok
        done += 1


def test_component_length_within_bounding_circle(fig1):
    # convexity-style oracle: each loop is no longer than the circumference
    # of a disk that encloses it
    A, B, ra, rb = fig1
    for kind in (RegionKind.E_A, RegionKind.E_B):
        region = build_region(kind, ra, rb)
        for li in range(region.n_loops):
            arcs = region.loop_arcs(li)
            pts = np.array([a.point(t) for a in arcs for t in np.linspace(0, 1, 17)])
            center = pts.mean()
            radius = float(np.max(np.abs(pts - center)))
            length = sum(a.length for a in arcs)
            assert length <= 2 * math.pi * radius + 1e-9


def test_scale_covariance_of_lengths():
    rng = np.random.default_rng(44)
    inst = random_pair(rng, 3, 3, delta_floor=0.05, require_simple=True)
    ea = build_region(RegionKind.E_A, inst.rootsA, inst.rootsB)
    s = 3.7
    from dataclasses import replace

    ra2 = replace(inst.rootsA, roots=tuple(s * r for r in inst.rootsA.roots))
    rb2 = replace(inst.rootsB, roots=tuple(s * r for r in inst.rootsB.roots))
    ea2 = build_region(RegionKind.E_A, ra2, rb2)
    assert ea2.total_length == pytest.approx(s * ea.total_length, rel=1e-12)


def test_invert_circle_example():
    arc = Arc(Disk(0j, 2.0), -math.pi, math.pi)
    contour = ContourSystem([arc], [0], arc.length, {}, 3.0)
    inv = invert_contour(contour)
    assert len(inv.arcs) == 1
    assert inv.arcs[0].circle.radius == pytest.approx(0.5)
    assert abs(inv.arcs[0].circle.center) < 1e-14
    assert winding_numbers(inv, [0.0])[0] == 1


def test_invert_requires_origin_clear():
    arc = Arc(Disk(1.0 + 0j, 1.0), -math.pi, math.pi)  # passes through 0
    contour = ContourSystem([arc], [0], arc.length, {}, 2.0)
    with pytest.raises(OriginTooClose):
        invert_contour(contour)


def test_inverted_region_windings():
    alphas = [1 / 3, -0.2 + 0.34641j, -0.2 - 0.34641j]
    betas = [1, 1j, -1, -1j]
    A = Polynomial.from_roots(alphas)
    B = Polynomial.from_roots(betas)
    ra, rb = find_roots(A), find_roots(B)
    inv = build_region(RegionKind.GAMMA1_INVERTED, ra, rb)
    for a in ra.roots:
        assert winding_numbers(inv, [1.0 / a])[0] == 1
    for b in rb.roots:
        assert winding_numbers(inv, [1.0 / b])[0] == 0


def test_invert_involution():
    alphas = [1 / 3, -0.2 + 0.34641j, -0.2 - 0.34641j]
    betas = [1, 1j, -1, -1j]
    A = Polynomial.from_roots(alphas)
    B = Polynomial.from_roots(betas)
    ra, rb = find_roots(A), find_roots(B)
    g1 = build_region(RegionKind.GAMMA1, ra, rb)
    back = invert_contour(invert_contour(g1))
    for a in back.arcs:
        for t in np.linspace(0, 1, 9):
            assert contour_distance(g1.arcs, a.point(t)) < 1e-9


def test_translation_point_avoids_roots():
    rng = np.random.default_rng(45)
    for _ in range(10):
        inst = random_pair(rng, 3, 3, delta_floor=0.02)
        n, k = inst.A.degree, inst.B.degree
        z0 = translation_point(inst.rootsA, inst.rootsB, n, k)
        eps = 1.0 / (4.0 * (n + k + 2.0))
        for r in inst.rootsA.roots + inst.rootsB.roots:
            assert abs(r - z0) > 2 * eps


def test_empty_svg_is_valid():
    doc = render_svg([], [])
    assert doc.startswith("<?xml")
    assert "<svg" in doc and doc.rstrip().endswith("</svg>")


def test_svg_render_deterministic(fig1):
    A, B, ra, rb = fig1
    ea = build_region(RegionKind.E_A, ra, rb)
    one = render_svg([ea], list(ra.roots))
    two = render_svg([ea], list(ra.roots))
    assert one == two
    assert one.count("<path") == len(ea.arcs)


def test_inverted_build_near_origin_root_raises():
    # a root at ~4e-9 keeps the winding probes legal but pins the contour
    # within the origin tolerance, so the inversion request must refuse
    from dataclasses import replace

    from bezmin.errors import OriginInRegionError, OriginTooClose

    assert issubclass(OriginInRegionError, OriginTooClose)
    A = Polynomial.from_roots([4.5e-9, 0.5])
    B = Polynomial.from_roots([1.0, 2j])
    ra, rb = find_roots(A), find_roots(B)
    ra = replace(ra, roots=(4.5e-9 + 0j, 0.5 + 0j))
    with pytest.raises(OriginInRegionError):
        build_region(RegionKind.GAMMA1_INVERTED, ra, rb)


def test_winding_checks_stop_at_the_first_bad_point():
    from bezmin.regions import _first_winding_mismatch, winding_numbers

    c = _unit_circle_contour()
    assert winding_numbers(c, [0.0, 3.0, 0.5j]).tolist() == [1, 0, 1]
    with pytest.raises(OnContourError, match="point 1 lies"):
        winding_numbers(c, [0.0, 1.0, 1j])
    # a wrong winding ahead of a point on the contour is what gets reported
    assert _first_winding_mismatch(c, [0.0, 3.0, 1.0], [1, 1, 0]) == (1, 0)
    with pytest.raises(OnContourError):
        _first_winding_mismatch(c, [0.0, 1.0, 3.0], [1, 0, 1])

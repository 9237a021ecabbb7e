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
    ContourSystem,
    RegionKind,
    _chain_loops,
    _circle_intersections,
    _distances,
    build_region,
    build_region_with_jitter,
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
    RefArc,
    arc_delta_arg,
    argument_principle_count,
    contour_of,
    random_pair,
    ref_arcs,
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
    return contour_of([RefArc(0j, 1.0, -math.pi, math.pi)], [0], scale=2.0)


def _loop(contour: ContourSystem, li: int) -> list[RefArc]:
    return [a for a, l in zip(ref_arcs(contour), contour.loops) if l == li]


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
    assert len(ea.radius) == 1
    want = min(abs(b - alpha) / 3.0 for b in rb.roots)
    assert ea.radius[0] == pytest.approx(want, rel=1e-12)
    assert ea.table.full[0]


def test_loop_closure_and_interior_winding(fig1):
    A, B, ra, rb = fig1
    ea = build_region(RegionKind.E_A, ra, rb)
    tol = 1e-9 * ea.scale
    for li in range(ea.n_loops):
        arcs = _loop(ea, li)
        for a, b in zip(arcs, arcs[1:] + arcs[:1]):
            assert abs(a.point(1.0) - b.point(0.0)) <= tol
        # the loop winds exactly once around a point just inside its first arc
        first = arcs[0]
        u = (first.point(0.5) - first.center) / first.radius
        probe = first.center + (first.radius - 1e-5) * u
        w = round(sum(arc_delta_arg(a, probe) for a in arcs) / (2 * math.pi))
        assert w in (-1, 1)


def test_membership_matches_winding_parity(fig1):
    A, B, ra, rb = fig1
    kind = RegionKind.E_A
    ea = build_region(kind, ra, rb)
    rng = np.random.default_rng(41)
    pts = 1.4 * (rng.random(10_000) - 0.5) + 1.4j * (rng.random(10_000) - 0.5)
    member = membership(kind, ra, rb, pts)
    # points within 1e-6 of the contour are skipped
    far = np.min(_distances(ea, pts), axis=1) >= 1e-6
    inside = winding_numbers(ea, pts[far]) == 1
    assert (member[far] == inside).all()
    checked = int(np.count_nonzero(far))
    assert checked > 9000


def test_jittered_contour_certifies_the_callers_roots(fig1, monkeypatch):
    # a retried build runs on jittered roots; the certificate it returns
    # must still name the roots the caller passed
    from bezmin import regions

    A, B, ra, rb = fig1
    real_build = regions.build_region
    calls = []

    def fail_first(kind, rootsA, rootsB):
        calls.append(kind)
        if len(calls) == 1:
            raise DegenerateArrangement("forced first failure")
        return real_build(kind, rootsA, rootsB)

    monkeypatch.setattr(regions, "build_region", fail_first)
    for kind, inside, outside in ((RegionKind.E_A, ra, rb), (RegionKind.E_B, rb, ra)):
        calls.clear()
        contour = build_region_with_jitter(kind, ra, rb)
        assert len(calls) == 2
        want = {z: 1 for z in inside.roots} | {z: 0 for z in outside.roots}
        assert contour.orientation_certificate == want


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
    cx, cy, radii = np.array([0.0, 2.0]), np.zeros(2), np.ones(2)
    # tangency is checked on every circle, live or not
    for live in (np.ones(2, dtype=bool), np.zeros(2, dtype=bool)):
        with pytest.raises(DegenerateArrangement):
            _circle_intersections(cx, cy, radii, 1.0, live)


def test_chain_loops_takes_the_nearest_start_and_the_last_on_ties():
    tol, d = 1e-9, 2.0**-32
    p, q = 1 + 0j, 0j
    # arc 0 ends at p, where arcs 1 and 2 start equally near and arc 3
    # farther; arcs 4 and 5 both start exactly at q
    start = np.array([q, p + d, p - d, p + 3 * d, q, q])
    end = np.array([p, q, q, q, p, p])
    order, loops = _chain_loops(start, end, tol)
    assert order == [0, 2, 1, 5, 3, 4]
    assert loops == [0, 0, 1, 1, 2, 2]


def test_chain_loops_reports_an_open_chain():
    start, end = np.array([0j, 1 + 0j]), np.array([1 + 0j, 2 + 0j])
    with pytest.raises(
        DegenerateArrangement, match=r"^open arc chain near 2\+0j; loop did not close$"
    ):
        _chain_loops(start, end, 1e-9)


def test_chain_loops_closes_a_full_circle_onto_itself():
    ends = np.array([1 + 0j, -2j])
    assert _chain_loops(ends, ends, 1e-9) == ([0, 1], [0, 1])


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
        arc = RefArc(alpha, 0.75 * abs(alpha), -math.pi, math.pi)
        contour = contour_of([arc], [0], 1 + abs(alpha))
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
            arcs = _loop(region, li)
            pts = np.array([a.point(t) for a in arcs for t in np.linspace(0, 1, 17)])
            center = pts.mean()
            radius = float(np.max(np.abs(pts - center)))
            length = sum(a.radius * abs(a.sweep) for a in arcs)
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
    contour = contour_of([RefArc(0j, 2.0, -math.pi, math.pi)], [0], 3.0)
    inv = invert_contour(contour)
    assert len(inv.radius) == 1
    assert inv.radius[0] == pytest.approx(0.5)
    assert abs(inv.center[0]) < 1e-14
    assert winding_numbers(inv, [0.0])[0] == 1


def test_invert_requires_origin_clear():
    # the circle passes through 0
    contour = contour_of([RefArc(1.0 + 0j, 1.0, -math.pi, math.pi)], [0], 2.0)
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
    pts = np.array([a.point(t) for a in ref_arcs(back) for t in np.linspace(0, 1, 9)])
    assert np.max(np.min(_distances(g1, pts), axis=1)) < 1e-9


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
    assert one.count("<path") == len(ea.radius)


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
    from bezmin.regions import _certify, winding_numbers

    c = _unit_circle_contour()
    assert winding_numbers(c, [0.0, 3.0, 0.5j]).tolist() == [1, 0, 1]
    with pytest.raises(OnContourError, match="point 1 lies"):
        winding_numbers(c, [0.0, 1.0, 1j])
    # a wrong winding ahead of a point on the contour is what gets reported
    with pytest.raises(DegenerateArrangement, match="failed at 3: got 0"):
        _certify(c, {0.0: 1, 3.0: 1, 1.0: 0})
    with pytest.raises(OnContourError):
        _certify(c, {0.0: 1, 1.0: 0, 3.0: 1})


def test_nesting_is_checked_before_the_certificate(fig1, monkeypatch):
    # one winding pass serves both checks; a nesting failure is still the
    # error reported when the certificate would fail too
    from bezmin import regions
    from bezmin.errors import ContourNestingError

    A, B, ra, rb = fig1
    wrong = {z: 1 - w for z, w in regions.region_probes(RegionKind.E_A, ra, rb).items()}
    monkeypatch.setattr(regions, "region_probes", lambda kind, a, b: wrong)
    with pytest.raises(DegenerateArrangement, match="winding certificate failed"):
        build_region(RegionKind.E_A, ra, rb)
    # loop probes far outside every loop: the inside one winds 0, not 1
    monkeypatch.setattr(
        regions, "_loop_probes", lambda contour: np.full(2 * contour.n_loops, 50 + 0j)
    )
    with pytest.raises(ContourNestingError, match=r"^loop 0 winding probe at 50\+0j "
                       r"gives 0, expected 1; unsupported nesting structure$"):
        build_region(RegionKind.E_A, ra, rb)

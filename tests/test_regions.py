import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from bezmin.backends import contour_metrics
from bezmin.errors import (
    DegenerateArrangement,
    OnContourError,
    OriginTooClose,
    QuadratureNotConverged,
)
from bezmin.poly import Polynomial
from bezmin.regions import (
    LIVE_MARGIN,
    POINT_TOL,
    TANGENCY_TOL,
    ContourSystem,
    RegionKind,
    _chain_loops,
    _circle_intersections,
    _distances,
    _live_circles,
    _region_disks,
    arc_points,
    build_region,
    build_region_with_jitter,
    invert_contour,
    winding_numbers,
)
from bezmin.roots import RootSet, find_roots
from bezmin.sylvester import build
from bezmin.svgout import render_svg
from oracles import (
    RefArc,
    arc_delta_arg,
    arc_point,
    argument_principle_count,
    contour_of,
    membership,
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


def _roots(roots) -> RootSet:
    roots = tuple(complex(r) for r in roots)
    return RootSet(
        roots=roots,
        residuals=(0.0,) * len(roots),
        multiplicity_suspect=(False,) * len(roots),
        cauchy_bound=1.0 + max(abs(r) for r in roots),
        verified=True,
    )


def _unit_circle_contour() -> ContourSystem:
    return contour_of([RefArc(0j, 1.0, -math.pi, math.pi)], [0], scale=2.0)


def _loop(contour: ContourSystem, li: int) -> list[RefArc]:
    return [a for a, l in zip(ref_arcs(contour), contour.loops) if l == li]


def test_arc_points_on_scalars_matches_the_scalar_reference():
    rng = np.random.default_rng(11)
    for _ in range(500):
        c = complex(*(5 * rng.standard_normal(2)))
        r = 3 * float(rng.random())
        t0, t1 = rng.uniform(-7, 7, 2).tolist()
        for t in (0.0, 0.25, 0.5, 1.0, float(rng.random())):
            assert complex(arc_points(c, r, t0, t1, t)) == arc_point(c, r, t0, t1, t)


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


@pytest.mark.parametrize("gap, alphas", [
    (1e-7, [-0.3, 0, 1]),
    (-1e-7, [-0.3, 0, 1]),
    (1e-7, [0, 1]),
    (-1e-7, [0, 1]),
], ids=["apart", "overlapping", "apart-root-0-first", "overlapping-root-0-first"])
def test_circle_passing_close_to_an_arc_midpoint(gap, alphas):
    # E_A of A with roots alphas and B = z - iy is the union of the disks
    # around the alphas with radii |a - iy| / 3, and y is chosen so that
    # the circles around 0 and 1 are gap apart (or overlap by -gap), well
    # clear of tangency. Every cut is symmetric about the real axis, so one
    # candidate arc of the circle around 0 has its midpoint at r1, the point
    # nearest the circle around 1. With 0 listed first, that arc's circle
    # is the first one the build meets; the contour must not depend on it.
    y = (9 * (1 - gap) ** 2 - 1) / (6 * (1 - gap))
    ra = _roots(alphas)
    rb = _roots([1j * y])
    scale = 1 + y
    r1, r2 = y / 3, abs(1 - 1j * y) / 3
    pass_distance = abs(abs(r1 - 1) - r2)
    assert TANGENCY_TOL * scale < pass_distance < 4e-7 * scale
    ea = build_region(RegionKind.E_A, ra, rb)
    assert ea.orientation_certificate == {
        **{complex(a): 1 for a in alphas}, 1j * y: 0
    }
    assert ea.n_loops == (2 if gap > 0 else 1)
    # points around the close pass, across the gap and both circles
    xs = r1 + np.linspace(-6e-7, 6e-7, 49)
    pts = (xs[:, None] + 1j * np.linspace(-6e-7, 6e-7, 49)).ravel()
    far = np.min(_distances(ea, pts), axis=1) > POINT_TOL * ea.scale
    member = membership(RegionKind.E_A, ra, rb, pts[far])
    assert (member == (winding_numbers(ea, pts[far]) == 1)).all()
    assert member.all() == (gap < 0)
    assert np.count_nonzero(far) > 2000


def test_tangent_circles_raise():
    cx, cy, radii = np.array([0.0, 2.0]), np.zeros(2), np.ones(2)
    with pytest.raises(DegenerateArrangement):
        _circle_intersections(cx + 1j * cy, radii, 1.0)


def test_tangent_dead_circles_do_not_stop_a_build():
    # the radius-1 circles around the two roots of A (rows 0.5 + 0.5i and
    # -2.5 + 1.5i) touch at -2.5 - 0.5i, but both miss every disk of the row
    # -1.5 + 0.5i (radii 1/3 and sqrt(5)/3), so neither can carry the
    # boundary: E_A is the full circles of those two disks
    ra = _roots([-2.5 + 0.5j, -2.5 - 1.5j])
    rb = _roots([0.5 + 0.5j, -2.5 + 1.5j, -1.5 + 0.5j, -0.5 - 2.5j])
    region = _region_disks(RegionKind.E_A, ra, rb)
    centers = np.array([-2.5 + 0.5j, -2.5 - 1.5j])
    radii = np.ones(2)
    assert abs(abs(centers[1] - centers[0]) - 2.0) < TANGENCY_TOL
    scale = 1 + max(abs(r) for r in ra.roots + rb.roots)
    assert not _live_circles(centers, radii, region, LIVE_MARGIN * scale).any()
    ea = build_region(RegionKind.E_A, ra, rb)
    assert (len(ea.radius), ea.n_loops) == (2, 2)
    assert ea.orientation_certificate == {
        **{a: 1 for a in ra.roots}, **{b: 0 for b in rb.roots}
    }
    # parity against the disk inequalities around the touching point
    offsets = np.linspace(-0.4, 0.4, 41)
    pts = (-2.5 - 0.5j + offsets[:, None] + 1j * offsets).ravel()
    far = np.min(_distances(ea, pts), axis=1) > POINT_TOL * ea.scale
    member = membership(RegionKind.E_A, ra, rb, pts[far])
    assert (member == (winding_numbers(ea, pts[far]) == 1)).all()
    assert member.any() and not member.all()
    # GAMMA1 shares the rows of E_A, and so the dead pair
    assert build_region(RegionKind.GAMMA1, ra, rb).orientation_certificate


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
        m = contour_metrics(contour, build(A, B))
        assert m.log_derivative_integral == pytest.approx(oracle, rel=1e-8)


def test_log_integral_raises_when_it_does_not_settle():
    # a full circle 1e-9 from the origin: subdivision stops at arcs of sweep
    # 1e-3, so no order up to MAX_ORDER resolves 1/|z| there
    arc = RefArc(1.0, 1.0 - 1e-9, -math.pi, math.pi)
    contour = contour_of([arc], [0], 2.0)
    pair = build(Polynomial.from_roots([1.0]), Polynomial.from_roots([3.0]))
    with pytest.raises(QuadratureNotConverged):
        contour_metrics(contour, pair)


def test_regions_imports_no_algebra():
    # the region geometry works on root sets alone
    from bezmin import regions

    tree = ast.parse(Path(regions.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update("." * node.level + a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    banned = {".sylvester", ".backends", "bezmin.sylvester", "bezmin.backends"}
    assert not imported & banned


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
        m = contour_metrics(g1, inst.pair)
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


def test_inverted_region_leaves_roots_at_the_origin_out_of_its_probes():
    ra, rb = find_roots(Polynomial([-0.5, 1])), find_roots(Polynomial([0, 1]))
    inv = build_region(RegionKind.GAMMA1_INVERTED, ra, rb)
    assert inv.orientation_certificate == {2 + 0j: 1}


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


def test_build_fails_a_wrong_certificate(fig1, monkeypatch):
    # the winding certificate is the build's last check
    from bezmin import regions

    A, B, ra, rb = fig1
    wrong = {z: 1 - w for z, w in regions.region_probes(RegionKind.E_A, ra, rb).items()}
    monkeypatch.setattr(regions, "region_probes", lambda kind, a, b: wrong)
    with pytest.raises(DegenerateArrangement, match="winding certificate failed"):
        build_region(RegionKind.E_A, ra, rb)

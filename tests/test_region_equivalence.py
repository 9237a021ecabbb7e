"""Exact guards on the region layer.

* The contours of 32 seeded root pairs (degrees 1..8, a third of them tight:
  one root of B 1e-4..1e-2 from a root of A, plus the two figure
  configurations) must match a recorded fixture bit for bit, for all five
  region kinds: the same error type, or the same arc count, loop count and
  SHA-256 of every arc field, loop index and certificate entry.
* The array winding and distance queries must agree with the scalar per-arc
  references in `oracles`.
* Pruning the circles that cannot carry the boundary must not change any
  build: with the live-circle test switched off (every circle kept), random
  arrangements give the same error type or the same bytes, for all five
  kinds; and every circle that owns a kept arc passes the test.
* Whenever GAMMA1 builds, its inversion is refused as too close to the
  origin or the inverted region builds and is certified, and the image of
  each point of an arc lies on that arc's image.
* One E_A construction on a large degree-8 arrangement must stay under 1 MB
  of traced allocations.

Record the fixture with `PYTHONPATH=src python tests/test_region_equivalence.py
--record`.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezmin import regions
from bezmin.cli import FIG1_ALPHAS, FIG1_BETAS, FIG45_ALPHAS, FIG45_BETAS
from bezmin.errors import BezminError, OriginTooClose
from bezmin.regions import (
    LIVE_MARGIN,
    ContourSystem,
    RegionKind,
    _delta_args,
    _distances,
    build_region,
)
from bezmin.roots import RootSet
from oracles import RefArc, arc_delta_arg, contour_of, distance_to_arc, ref_arcs

FIXTURE = Path(__file__).parent / "data" / "region_contours.json"
FIXTURE_SEED = 424242
N_RANDOM = 30


def _root_set(roots) -> RootSet:
    roots = tuple(complex(r) for r in roots)
    return RootSet(
        roots=roots,
        residuals=(0.0,) * len(roots),
        multiplicity_suspect=(False,) * len(roots),
        cauchy_bound=1.0 + max(abs(r) for r in roots),
        verified=True,
    )


def _disk_points(rng: np.random.Generator, n: int, radius: float) -> list[complex]:
    pts = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return [complex(p) for p in pts]


def fixture_pairs() -> list[tuple[str, list[complex], list[complex]]]:
    """Root pairs drawn with numpy alone, so they do not depend on the root
    finder: every third one is tight."""
    rng = np.random.default_rng(FIXTURE_SEED)
    out = []
    for i in range(N_RANDOM):
        na, nb = (int(d) for d in rng.integers(1, 9, size=2))
        ra = _disk_points(rng, na, 1.5)
        rb = _disk_points(rng, nb, 1.5)
        if i % 3 == 2:
            dist = 10.0 ** rng.uniform(-4.0, -2.0)
            rb[0] = ra[int(rng.integers(na))] + dist * cmath.exp(2j * math.pi * rng.random())
            out.append((f"tight{i}", ra, rb))
        else:
            out.append((f"random{i}", ra, rb))
    out.append(("fig1", list(FIG1_ALPHAS), list(FIG1_BETAS)))
    out.append(("fig45", list(FIG45_ALPHAS), list(FIG45_BETAS)))
    return out


def _hex(x) -> str:
    return float(x).hex()


def contour_record(contour: ContourSystem) -> dict:
    fields = []
    for c, r, t0, t1 in contour.rows():
        fields += [_hex(c.real), _hex(c.imag), _hex(r), _hex(t0), _hex(t1),
                   str(t1 > t0)]
    fields += [str(l) for l in contour.loops]
    for z, w in contour.orientation_certificate.items():
        z = complex(z)
        fields += [_hex(z.real), _hex(z.imag), str(w)]
    fields += [_hex(contour.total_length), _hex(contour.scale)]
    digest = hashlib.sha256("|".join(fields).encode()).hexdigest()
    return {"n_arcs": len(contour.radius), "n_loops": contour.n_loops, "sha256": digest}


def region_records() -> dict:
    out = {}
    for name, ra, rb in fixture_pairs():
        rootsA, rootsB = _root_set(ra), _root_set(rb)
        for kind in RegionKind:
            key = f"{name}/{kind.name}"
            try:
                out[key] = contour_record(build_region(kind, rootsA, rootsB))
            except (BezminError, ArithmeticError) as exc:
                out[key] = {"error": type(exc).__name__}
    return out


def test_contours_match_recorded_fixture():
    want = json.loads(FIXTURE.read_text())
    got = region_records()
    assert sorted(got) == sorted(want)
    built = sum("sha256" in r for r in want.values())
    assert built >= 100  # most cases build, so the hashes carry weight
    mismatched = [k for k in want if got[k] != want[k]]
    assert mismatched == []


# ---------------------------------------------------------------------------
# circle pruning: the pruned build against the build on every circle


def _build_bytes(kind: RegionKind, rootsA: RootSet, rootsB: RootSet):
    """The error type of a build, or its JSON and certificate as text."""
    try:
        contour = build_region(kind, rootsA, rootsB)
    except (BezminError, ArithmeticError) as exc:
        return type(exc).__name__
    return (json.dumps(contour.to_json_dict()),
            repr(list(contour.orientation_certificate.items())))


def _all_circles_live(centers, radii, region, margin):
    return np.ones(len(radii), dtype=bool)


@st.composite
def root_pairs(draw):
    """Degrees 1..8, at scales 1e-3..1e3: independent roots, a tight pair
    (one root of B 1e-4..1e-2 from a root of A, times the scale), or roots
    in one or two clusters of width 1e-3..1e-1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    na, nb = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["random", "tight", "clustered"]))
    if shape == "clustered":
        hubs = _disk_points(rng, draw(st.integers(1, 2)), 1.5)
        width = 10.0 ** draw(st.floats(-3.0, -1.0))
        ra, rb = (
            [hubs[int(rng.integers(len(hubs)))] + p for p in _disk_points(rng, n, width)]
            for n in (na, nb)
        )
    else:
        ra, rb = _disk_points(rng, na, 1.5), _disk_points(rng, nb, 1.5)
    if shape == "tight":
        dist = 10.0 ** draw(st.floats(-4.0, -2.0))
        rb[0] = ra[int(rng.integers(na))] + dist * cmath.exp(2j * math.pi * rng.random())
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return _root_set([scale * z for z in ra]), _root_set([scale * z for z in rb])


@settings(max_examples=60, deadline=None)
@given(pair=root_pairs())
def test_pruned_build_matches_the_build_on_every_circle(pair):
    rootsA, rootsB = pair
    pruned = [_build_bytes(kind, rootsA, rootsB) for kind in RegionKind]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "_live_circles", _all_circles_live)
        full = [_build_bytes(kind, rootsA, rootsB) for kind in RegionKind]
    assert pruned == full


@settings(max_examples=60, deadline=None)
@given(pair=root_pairs())
def test_inversion_builds_and_maps_every_arc_onto_its_image(pair):
    rootsA, rootsB = pair
    try:
        g1 = build_region(RegionKind.GAMMA1, rootsA, rootsB)
    except (BezminError, ArithmeticError):
        return
    try:
        inv = regions.invert_contour(g1)
    except OriginTooClose:
        return
    # the inverted build certifies its windings about the images of the roots
    build_region(RegionKind.GAMMA1_INVERTED, rootsA, rootsB)
    for arc, image in zip(ref_arcs(g1), ref_arcs(inv)):
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert distance_to_arc(image, 1.0 / arc.point(t)) <= 1e-9 * inv.scale


def test_circles_with_kept_arcs_are_live():
    kinds = [k for k in RegionKind if k != RegionKind.GAMMA1_INVERTED]
    owners = 0
    for _, ra, rb in fixture_pairs():
        rootsA, rootsB = _root_set(ra), _root_set(rb)
        for kind in kinds:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regions, "_live_circles", _all_circles_live)
                try:
                    contour = build_region(kind, rootsA, rootsB)
                except (BezminError, ArithmeticError):
                    continue
            circles = set(zip(contour.center.tolist(), contour.radius.tolist()))
            live = regions._live_circles(
                np.array([c for c, _ in circles]),
                np.array([r for _, r in circles]),
                regions._region_disks(kind, rootsA, rootsB),
                LIVE_MARGIN * contour.scale,
            )
            assert live.all()
            owners += len(circles)
    assert owners >= 500


# ---------------------------------------------------------------------------
# array queries against the scalar references


def _query_contour(rng: np.random.Generator) -> ContourSystem:
    """Closed loops: circles cut into two or three arcs run counterclockwise,
    or clockwise (as the image of an arc runs when its disk holds 0), plus
    one full circle each way."""
    arcs, loops = [], []
    for li in range(6):
        c = complex(rng.standard_normal(), rng.standard_normal())
        r = float(rng.uniform(0.2, 1.5))
        t0 = float(rng.uniform(-math.pi, math.pi))
        cuts = np.sort(rng.uniform(0.1, 2 * math.pi - 0.1, int(rng.integers(1, 3))))
        ts = [t0] + [t0 + float(s) for s in cuts] + [t0 + 2 * math.pi]
        loop = [RefArc(c, r, a, b) for a, b in zip(ts, ts[1:])]
        if li % 2:
            loop = [a.reversed() for a in reversed(loop)]
        arcs += loop
        loops += [li] * len(loop)
    arcs.append(RefArc(0.2 - 0.1j, 0.9, -math.pi, math.pi))
    arcs.append(RefArc(-0.4 + 0.3j, 0.5, 1.0, 1.0 - 2 * math.pi))
    loops += [6, 7]
    return contour_of(arcs, loops, scale=3.0)


def _query_points(contour: ContourSystem, rng: np.random.Generator) -> list[complex]:
    pts = [complex(p) for p in 2.5 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))]
    for a in ref_arcs(contour):
        for t in (0.0, 0.3, 0.5, 1.0):
            p = a.point(t)
            u = (p - a.center) / a.radius
            pts += [p + 1e-8 * u, p - 1e-8 * u]
    return pts


def test_array_queries_match_scalar_references():
    from bezmin.regions import winding_numbers

    rng = np.random.default_rng(5)
    for _ in range(4):
        contour = _query_contour(rng)
        pts = _query_points(contour, rng)
        arcs = ref_arcs(contour)
        want_w = [sum(arc_delta_arg(a, z) for a in arcs) / (2 * math.pi) for z in pts]
        z = np.array(pts)
        got_w = np.sum(_delta_args(contour, z), axis=1) / (2 * math.pi)
        assert np.max(np.abs(np.subtract(got_w, want_w))) <= 1e-12
        want_d = [min(distance_to_arc(a, z) for a in arcs) for z in pts]
        got_d = np.min(_distances(contour, z), axis=1)
        assert np.max(np.abs(np.subtract(got_d, want_d))) <= 1e-15 * contour.scale
        # no point lies within POINT_TOL * scale of the arcs
        assert min(want_d) > 1e-9 * contour.scale
        assert winding_numbers(contour, pts).tolist() == [round(w) for w in want_w]


# ---------------------------------------------------------------------------
# memory


MEMORY_SEED = 8


def _largest_degree8_pair() -> tuple[RootSet, RootSet]:
    """The degree-8 pair, among 12 seeded ones, whose 64 E_A circles meet
    in the most pairs."""
    rng = np.random.default_rng(MEMORY_SEED)
    best, best_meets = None, -1
    for _ in range(12):
        ra = np.array(_disk_points(rng, 8, 1.5))
        rb = np.array(_disk_points(rng, 8, 1.5))
        centers = np.repeat(ra[None, :], 8, axis=0).ravel()
        radii = (np.abs(rb[:, None] - ra[None, :]) / 3.0).ravel()
        d = np.abs(centers[:, None] - centers[None, :])
        meets = int(np.sum(np.triu((d < radii[:, None] + radii[None, :])
                                   & (d > np.abs(radii[:, None] - radii[None, :])), 1)))
        if meets > best_meets:
            best, best_meets = (ra, rb), meets
    return _root_set(best[0]), _root_set(best[1])


def test_build_region_memory_peak_under_one_megabyte():
    rootsA, rootsB = _largest_degree8_pair()
    build_region(RegionKind.E_A, rootsA, rootsB)  # warm caches and imports
    tracemalloc.start()
    try:
        build_region(RegionKind.E_A, rootsA, rootsB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_region_equivalence.py --record")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(region_records(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")

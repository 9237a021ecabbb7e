"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and not configurable.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from bezmin import backends, sylvester
from bezmin.cli import main as cli_main
from bezmin.errors import DegenerateArrangement, SeparationViolation
from bezmin.poly import Polynomial
from bezmin.backends import contour_metrics
from bezmin.regions import RegionKind, build_region_with_jitter
from bezmin.separation import check_separation, delta_tilde
from bezmin.cli import sharpness_instance, discontinuity_pair
from oracles import argument_principle_count, random_pair, sample_degrees

ENSEMBLE_SEED = 20250809


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ensemble_500():
    rng = np.random.default_rng(ENSEMBLE_SEED)
    out = []
    for _ in range(500):
        da, db = sample_degrees(rng, 1, 6)
        out.append(random_pair(rng, da, db, delta_floor=0.05))
    return out


@pytest.fixture(scope="module")
def ensemble_100():
    rng = np.random.default_rng(ENSEMBLE_SEED + 1)
    out = []
    for _ in range(100):
        da, db = sample_degrees(rng, 1, 5)
        out.append(random_pair(rng, da, db, delta_floor=0.05))
    return out


def test_criterion_01_sharpness_family():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        for a in (0.9, 0.5, 0.25, 0.1):
            A, B = sharpness_instance(n, a)
            d = a**n
            sol = sylvester.solve(sylvester.build(A, B))
            predicted = d ** (-2.0 + 1.0 / n)
            worst = max(worst, abs(sol.R.norm() - predicted) / predicted)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(1, ok, f"sharpness: max rel err {worst:.2e} (<=1e-8), "
                   f"runtime {elapsed:.2f}s (<1s)")


def test_criterion_02_bezout_residual_and_agreement(ensemble_500):
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_agree = 0.0
    n_simple = 0
    for inst in ensemble_500:
        sol = sylvester.solve(inst.pair)
        worst_res = max(worst_res, sol.residual)
        if inst.rootsA.any_suspect or inst.rootsB.any_suspect:
            continue
        n_simple += 1
        da, db = inst.A.degree, inst.B.degree
        s_res = backends.solve_residue(inst.pair)
        s_quad = backends.solve_quadrature(inst.pair)
        for x, y in ((sol, s_res), (sol, s_quad), (s_res, s_quad)):
            worst_agree = max(
                worst_agree,
                max(abs(x.R.coeff(i) - y.R.coeff(i)) for i in range(db)),
                max(abs(x.S.coeff(i) - y.S.coeff(i)) for i in range(da)),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-9 and worst_agree <= 1e-7 and elapsed < 30.0
    _report(2, ok, f"residual max {worst_res:.2e} (<=1e-9), three-way "
                   f"agreement max {worst_agree:.2e} (<=1e-7) on {n_simple} "
                   f"simple-root pairs, runtime {elapsed:.1f}s (<30s)")


def test_criterion_03_resultant_triple(ensemble_500):
    worst = 0.0
    for inst in ensemble_500:
        t = sylvester.resultant(inst.pair)
        m = abs(t.det_value)
        worst = max(
            worst,
            abs(m - t.product_via_roots_of_B) / m,
            abs(m - t.product_via_roots_of_A) / m,
        )
    ok = worst <= 1e-6
    _report(3, ok, f"resultant triple max relative spread {worst:.2e} (<=1e-6)")


def test_criterion_04_sublevel_disjointness(ensemble_100):
    proved = 0
    total_points = 0
    for inst in ensemble_100:
        try:
            rep = check_separation(inst.pair)
        except SeparationViolation:
            continue
        proved += 1
        total_points += rep.n_samples
    ok = proved == len(ensemble_100)
    _report(4, ok, f"separation: disjointness proved on {proved} of 100 "
                   f"instances, {total_points} sampled points")


def test_criterion_05_delta_sandwich(ensemble_100):
    worst_gap = -math.inf
    ok = True
    for inst in ensemble_100:
        n, k = inst.A.degree, inst.B.degree
        lower, upper, _ = delta_tilde(inst.pair)
        lo_bound = inst.delta / 3.0 ** max(n, k)
        ok &= lo_bound <= upper + 1e-9 and upper <= inst.delta + 1e-9
        worst_gap = max(worst_gap, lo_bound - upper)
    A, B = Polynomial([0, 1]), Polynomial([1, -1])
    _, upper, _ = delta_tilde(sylvester.build(A, B))
    converged = abs(upper - 0.5) <= 1e-6
    ok &= converged
    _report(5, ok, f"sandwich holds on 100 instances (worst lower-upper gap "
                   f"{worst_gap:.2e} <= 0); z,1-z upper {upper:.9f} "
                   f"(=0.5 +- 1e-6: {converged})")


def test_criterion_06_figure_reproduction(tmp_path):
    code = cli_main(["--out", str(tmp_path), "figures"])
    counts = json.loads((tmp_path / "figures.json").read_text())
    ok = (
        code == 0
        and counts["fig1"]["E_A_components"] == 2
        and counts["fig1"]["E_B_components"] == 1
        and counts["fig5"]["alphas"] == [1, 1, 1]
        and counts["fig5"]["betas"] == [0, 0, 0, 0]
    )
    _report(6, ok, f"figure counts {counts['fig1']}, gamma1 windings "
                   f"{counts['fig5']}")


def test_criterion_07_argument_principle():
    rng = np.random.default_rng(ENSEMBLE_SEED + 2)
    worst_a = 0.0
    worst_b = 0.0
    done = 0
    while done < 50:
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=0.05, require_simple=True)
        contour = build_region_with_jitter(
            RegionKind.E_A, inst.rootsA, inst.rootsB
        )
        count_a = argument_principle_count(inst.A, contour)
        count_b = argument_principle_count(inst.B, contour)
        worst_a = max(worst_a, abs(count_a - inst.A.degree))
        worst_b = max(worst_b, abs(count_b))
        done += 1
    ok = worst_a <= 1e-6 and worst_b <= 1e-6
    _report(7, ok, f"argument principle on 50 instances: max |I_A - N| "
                   f"{worst_a:.2e}, max |I_B| {worst_b:.2e} (<=1e-6)")


def test_criterion_08_contour_log_integral():
    rng = np.random.default_rng(ENSEMBLE_SEED + 3)
    built = 0
    attempts = 0
    worst_margin = -math.inf
    ok = True
    while built < 25 and attempts < 200:
        attempts += 1
        da, db = sample_degrees(rng, 1, 4)
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
        bound = 6.0 * math.pi * n ** (k + 1)
        ok &= m.log_derivative_integral <= bound * (1 + 1e-9)
        worst_margin = max(worst_margin, m.log_derivative_integral / bound)
        built += 1
    ok &= built == 25
    _report(8, ok,
            f"log integral <= 6 pi N^(K+1) on {built} built instances "
            f"(max fill ratio {worst_margin:.3f} <= 1)")


def test_criterion_09_sylvester_inverse_sweep():
    ok = True
    worst_err = 0.0
    max_ratio = 0.0
    for a in [2.0**-i for i in range(11)]:
        A = Polynomial([0, a])
        B = Polynomial([1, a])
        rep = sylvester.inverse_norm_report(sylvester.build(A, B))
        want = max(1.0, 1.0 / a)
        worst_err = max(worst_err, abs(rep.max_entry_norm - want))
        ok &= abs(rep.max_entry_norm - want) <= 1e-12 * want
        max_ratio = max(max_ratio, rep.tightness_ratio)
    ok &= max_ratio <= 1.0 + 1e-12
    _report(9, ok, f"inverse max-entry norm matches max(1, 1/a) "
                   f"(worst abs err {worst_err:.2e}); ratio bounded by "
                   f"{max_ratio:.3f} across the sweep")


def test_criterion_10_delta_discontinuity():
    A0, B0 = Polynomial([0, 1]), Polynomial([1, -1])
    base = sylvester.build(A0, B0).delta
    ok = base == 1.0
    worst = 0.0
    for n in range(2, 11):
        An, Bn = discontinuity_pair(n)
        dval = sylvester.build(An, Bn).delta_min[0]
        worst = max(worst, dval)
        ok &= dval <= 1e-9
        ok &= (An - A0).norm() == 1.0 / n
    _report(10, ok, f"delta(A_n,B_n) max {worst:.2e} (<=1e-9) for n=2..10 "
                    f"while delta(z,1-z) = {base} and norm drift = 1/n exactly")

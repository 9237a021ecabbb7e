"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks
import pairs
from spans import LAYERS, Span, Tracer, self_times


@pytest.mark.parametrize("workload", sorted(pairs.GENERATORS))
def test_same_seed_gives_identical_pair_files(tmp_path, workload):
    def files(seed, sub):
        pool = pairs.PairPool(workload, seed, tmp_path / sub)
        pool.ensure(6)
        return [Path(p).read_bytes() for ab in pool.paths for p in ab]

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


def test_pair_properties_hold():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ca, cb = pairs.d8_pair(rng)
        assert 6 <= len(ca) - 1 <= 8 and 6 <= len(cb) - 1 <= 8
        assert pairs.delta_of(ca, cb) >= pairs.DELTA_FLOOR_D8
        ca, cb = pairs.tight_pair(rng)
        gaps = np.abs(pairs.roots_of(ca)[:, None] - pairs.roots_of(cb)[None, :])
        assert gaps.min() < 2e-2
        assert max(np.abs(ca).max(), np.abs(cb).max()) <= 1.0


def test_self_time_of_a_synthetic_nest():
    spans = [
        Span(0, None, "cli", 0, 0.0, 10.0),
        Span(1, 0, "a", 0, 1.0, 4.0),
        Span(2, 1, "b", 0, 2.0, 3.0),
        Span(3, 0, "c", 0, 5.0, 9.0),
        Span(4, 0, "d", 0, 8.0, 11.0),  # overlaps c and ends after its parent
    ]
    assert self_times(spans) == {0: 2.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 3.0}

    tracer = Tracer()
    tracer.spans = spans + [
        Span(5, None, "cli", 1, 20.0, 21.0),
        Span(6, 5, "a", 1, 20.0, 20.5, error=True),
    ]
    layers = tracer.layer_metrics(pairs=2)
    assert layers["cli.self_us_per_pair"] == pytest.approx((2.0 + 0.5) * 1e6 / 2)
    tracer.spans = [Span(0, None, "sylvester.build", 0, 0.0, 3e-6, error=True)]
    layers = tracer.layer_metrics(pairs=2)
    assert layers["sylvester.build.self_us_per_pair"] == pytest.approx(1.5)
    assert layers["sylvester.build.calls_per_pair"] == 0.5
    assert layers["sylvester.build.errors_per_pair"] == 0.5
    assert layers["separation.delta_tilde.calls_per_pair"] == 0.0


def test_every_wrapped_name_resolves_and_is_restored():
    import bezmin.cli  # so the CLI's own bindings exist before patching
    from bezmin import poly, roots

    find_roots, call = roots.find_roots, poly.Polynomial.__call__
    tracer = Tracer()
    with tracer:
        assert tracer.missing == []
        for mod_name, attr in LAYERS:
            assert tracer.bindings[f"{mod_name}.{attr}"] >= 1
        assert tracer.bindings["roots.find_roots"] >= 5
        assert tracer.bindings["sylvester.build"] == 2
        assert tracer.bindings["regions.build_region"] == 3
        assert bezmin.cli.find_roots is not find_roots
        p = poly.Polynomial([1.0, 2.0])
        assert p(np.zeros(4)).shape == (4,)
        assert bezmin.cli.find_roots(p).roots == (-0.5 + 0j,)
    assert bezmin.cli.find_roots is find_roots
    assert poly.Polynomial.__call__ is call
    layers = tracer.layer_metrics(pairs=1)
    assert layers["roots.find_roots.calls_per_pair"] == 1
    assert layers["poly.eval.points_per_pair"] >= 4


def test_output_checks_flag_wrong_results():
    ca = np.array([0.0, 1.0])  # z
    cb = np.array([1.0, -1.0])  # 1 - z; R = S = 1
    tol = {"residual": 1e-9, "agreement": 1e-7, "resultant": 1e-6}

    def sol(r, residual):
        return {"R": {"coeffs": [[r, 0.0]]}, "S": {"coeffs": [[1.0, 0.0]]},
                "residual": residual}

    good = checks.Outcome()
    checks.check_solve(ca, cb, 0, {"sylvester": sol(1.0, 0.0),
                                   "residue": sol(1.0, 0.0)}, tol, good)
    assert good.failures == [] and good.false_claims == [] and good.skipped

    off = checks.Outcome()
    checks.check_solve(ca, cb, 0, {"sylvester": sol(1.0, 0.0),
                                   "residue": sol(1.0 + 1e-6, 1e-6)}, tol, off)
    assert [f.split(":")[0] for f in off.failures] == ["residue residual", "agreement"]
    assert off.false_claims == []

    lying = checks.Outcome()
    checks.check_solve(ca, cb, 0, {"sylvester": sol(1.0 + 1e-6, 0.0)}, tol, lying)
    assert lying.false_claims

    refused = checks.Outcome()
    checks.check_solve(ca, cb, 3, None, tol, refused)
    assert refused.failures == ["solve exit: 3"] and refused.skipped


def test_times_rescale_by_the_nearby_reference_median():
    from run import REF_S, scaled

    assert scaled([1.0, 2.0], [2 * REF_S, 2 * REF_S]) == [0.5, 1.0]
    # one slow kernel sample next to a pair does not move its scale
    refs = [REF_S] * 9
    refs[4] = 10 * REF_S
    assert scaled([1.0] * 9, refs) == [1.0] * 9

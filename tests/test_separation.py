import cmath
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize
from scipy.stats import qmc

import bezmin
from bezmin.errors import CommonRootError, SeparationViolation
from bezmin.ensemble import random_pair, sample_degrees
from bezmin.poly import Polynomial
from bezmin.roots import find_roots
from bezmin.separation import (
    DescentStats,
    _descent_seeds,
    _scrambled_halton,
    check_separation,
    delta,
    delta_report,
    delta_tilde,
    sublevel_member,
)

Z = Polynomial([0, 1])
ONE_MINUS_Z = Polynomial([1, -1])


def _pair(A, B):
    return A, B, find_roots(A), find_roots(B)


def test_delta_monomial_pair():
    rep = delta(*_pair(Z, ONE_MINUS_Z))
    assert rep.delta == 1.0


def test_delta_sharpness_small_case():
    # A = z^N, B with roots a w^j: delta = a^N for N=2, a=1/2
    n, a = 2, 0.5
    w = cmath.exp(2j * cmath.pi / (2 * n - 1))
    A = Polynomial.monomial(n)
    B = Polynomial.from_roots([a * w**j for j in range(1, n + 1)])
    rep = delta(*_pair(A, B))
    assert rep.delta == pytest.approx(a**n, abs=1e-12)


def test_delta_identical_raises():
    with pytest.raises(CommonRootError):
        delta(*_pair(Z, Z))


def test_delta_scale_law():
    rng = np.random.default_rng(21)
    for _ in range(10):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=1e-3)
        c = 0.3 + 1.7j * rng.random()
        rep = delta(
            inst.A.scale(c), inst.B.scale(c), inst.rootsA, inst.rootsB
        )
        assert rep.delta == pytest.approx(abs(c) * inst.delta, rel=1e-12)


def test_delta_translation_invariance():
    rng = np.random.default_rng(22)
    for _ in range(10):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=1e-3)
        shift = complex(rng.standard_normal(), rng.standard_normal())
        A2 = inst.A.translate(shift)
        B2 = inst.B.translate(shift)
        rep = delta(*_pair(A2, B2))
        assert rep.delta == pytest.approx(inst.delta, rel=1e-9)


def test_delta_tilde_monomial_pair():
    lower, upper, witness = delta_tilde(Z, ONE_MINUS_Z)
    assert abs(upper - 0.5) <= 1e-6
    assert abs(witness - 0.5) <= 1e-5
    assert lower == pytest.approx(1.0 / 3.0)


def test_delta_tilde_bracket_order():
    rng = np.random.default_rng(23)
    for _ in range(8):
        da, db = sample_degrees(rng, 1, 4)
        inst = random_pair(rng, da, db, delta_floor=0.02)
        lower, upper, _ = delta_tilde(inst.A, inst.B, inst.rootsA, inst.rootsB)
        assert lower <= upper + 1e-12
        assert upper <= inst.delta + 1e-9


def test_delta_tilde_double_root_case():
    # A = z^2, B = (z - w/2)(z - w^2/2), w = e^(2 pi i/3)
    w = cmath.exp(2j * cmath.pi / 3)
    A = Polynomial.monomial(2)
    B = Polynomial.from_roots([0.5 * w, 0.5 * w**2])
    lower, upper, _ = delta_tilde(A, B)
    assert upper <= 0.25 + 1e-9
    assert lower == pytest.approx(0.25 / 9.0, rel=1e-9)


def _scalar_tilde_upper(A, B, rootsA, rootsB, n_rings, n_angles,
                        restart_tol=1e-10, max_restarts=8):
    """Reference for delta_tilde's upper end: one scipy Nelder-Mead run per
    seed, evaluated by scalar Horner, restarted while it gains restart_tol."""

    def f(xy):
        z = complex(xy[0], xy[1])
        return max(abs(A(z)), abs(B(z)))

    best_val = np.inf
    for s in _descent_seeds(A, B, rootsA, rootsB, n_rings, n_angles):
        x = np.array([s.real, s.imag])
        val = f(x)
        for _ in range(max_restarts):
            res = optimize.minimize(
                f, x, method="Nelder-Mead",
                options={"maxiter": 50, "xatol": 1e-12, "fatol": 1e-14},
            )
            if res.fun <= val - restart_tol:
                val, x = res.fun, res.x
            else:
                if res.fun < val:
                    val, x = res.fun, res.x
                break
        best_val = min(best_val, val)
    return best_val


def test_delta_tilde_matches_scalar_nelder_mead():
    # certify's settings: degrees 1..5, delta >= 0.05, 3 rings of 8 seeds
    rng = np.random.default_rng(25)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=0.05)
        lower, upper, witness = delta_tilde(
            inst.A, inst.B, inst.rootsA, inst.rootsB, n_rings=3, n_angles=8
        )
        ref = _scalar_tilde_upper(
            inst.A, inst.B, inst.rootsA, inst.rootsB, n_rings=3, n_angles=8
        )
        assert upper == pytest.approx(ref, rel=1e-9, abs=0)
        assert upper <= ref + 1e-12
        assert lower <= upper <= inst.delta
        assert max(abs(inst.A(witness)), abs(inst.B(witness))) == pytest.approx(
            upper, rel=1e-12
        )


def test_delta_tilde_counts_its_work():
    stats = DescentStats()
    delta_tilde(Z, ONE_MINUS_Z, stats=stats)
    # each step evaluates six candidate points; starting each run costs more
    assert stats.evals > 6 * stats.steps > 0
    before = stats.evals
    delta_tilde(Z, ONE_MINUS_Z, stats=stats)
    assert stats.evals == 2 * before


def test_scrambled_halton_is_as_uniform_as_scipy():
    for seed in range(4):
        uv = _scrambled_halton(4096, seed)
        assert uv.shape == (4096, 2)
        assert uv.min() >= 0.0 and uv.max() < 1.0
        ref = qmc.Halton(d=2, scramble=True, seed=seed).random(4096)
        assert qmc.discrepancy(uv) <= 1.5 * qmc.discrepancy(ref)
    assert not np.array_equal(_scrambled_halton(64, 0), _scrambled_halton(64, 1))


def test_cli_import_skips_scipy_optimize_and_stats():
    code = (
        "import sys, bezmin.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.optimize', 'scipy.stats'))))"
    )
    src = str(Path(bezmin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    assert out.stdout.strip() == "[]"


def test_sublevel_member():
    assert sublevel_member(Z, 0.5, 0.25)
    assert not sublevel_member(Z, 0.5, 1.0)
    with pytest.raises(ValueError):
        sublevel_member(Z, -1.0, 0.0)


def test_separation_trivial_pair():
    A, B, ra, rb = _pair(Z, ONE_MINUS_Z)
    rep = check_separation(A, B, ra, rb, 1.0, 20_000, seed=5)
    assert rep.joint_hits == 0
    assert rep.hits_a > 0 and rep.hits_b > 0


def test_separation_figure_instance():
    # the separation result needs the pair normalized into the unit ball;
    # dividing by the norms keeps the roots of the caption instance
    A = Polynomial.from_roots([0.25 + 0.125j, -0.5, 0.4])
    B = Polynomial.from_roots([1 / 9 + 5j / 6, 1 / 8 + 0.5j, 1j / 3, 1j / 5])
    A = A.scale(1.0 / A.norm())
    B = B.scale(1.0 / B.norm())
    ra, rb = find_roots(A), find_roots(B)
    rep_delta = delta(A, B, ra, rb)
    rep = check_separation(A, B, ra, rb, rep_delta.delta, 100_000, seed=6)
    assert rep.joint_hits == 0


def test_separation_random_pairs():
    rng = np.random.default_rng(24)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=0.01)
        rep = check_separation(
            inst.A, inst.B, inst.rootsA, inst.rootsB, inst.delta,
            5_000, seed=int(rng.integers(2**31)),
        )
        assert rep.joint_hits == 0


def test_separation_violation_raised_for_wrong_delta():
    # an inflated delta makes the sub-level sets overlap, which must raise
    A, B, ra, rb = _pair(Z, ONE_MINUS_Z)
    with pytest.raises(SeparationViolation):
        check_separation(A, B, ra, rb, 40.0, 20_000, seed=7)


def test_separation_requires_normalized_inputs():
    A = Z.scale(3.0)
    with pytest.raises(ValueError):
        check_separation(A, ONE_MINUS_Z, find_roots(A), find_roots(ONE_MINUS_Z),
                         1.0, 100)


def test_discontinuity_family():
    base = delta(*_pair(Z, ONE_MINUS_Z))
    assert base.delta == 1.0
    for n in range(2, 11):
        An = Polynomial([0.0, 1.0, 1.0 / n])
        Bn = Polynomial([1.0, -1.0, -(1.0 / n + 1.0 / n**2)])
        try:
            dval = delta(*_pair(An, Bn)).delta
        except CommonRootError as exc:
            dval = exc.report.delta
        assert dval <= 1e-9
        assert (An - Z).norm() == 1.0 / n


def test_full_report_fields():
    rep = delta_report(Z, ONE_MINUS_Z)
    assert rep.sandwich_ok
    assert rep.delta == 1.0
    assert rep.delta_tilde_lower <= rep.delta_tilde_upper <= rep.delta + 1e-9
    d = rep.to_json_dict()
    assert set(d) >= {"delta", "delta_tilde_lower", "delta_tilde_upper",
                      "sandwich_ok", "argmin_witness"}

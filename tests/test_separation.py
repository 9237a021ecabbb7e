import cmath
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import bezmin
from bezmin import separation
from bezmin.errors import CommonRootError, SeparationViolation
from bezmin.poly import Polynomial
from bezmin.roots import find_roots
from bezmin.separation import (
    DescentStats,
    check_separation,
    delta_report,
    delta_tilde,
    sandwich_holds,
)
from bezmin.sylvester import build
from oracles import random_pair, sample_degrees, sublevel_member, translate

Z = Polynomial([0, 1])
ONE_MINUS_Z = Polynomial([1, -1])


def test_delta_is_read_from_the_pair_only():
    # no public function takes delta next to the pair it comes from
    for info in pkgutil.iter_modules(bezmin.__path__, "bezmin."):
        module = importlib.import_module(info.name)
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == info.name and not name.startswith("_"):
                assert "delta_value" not in inspect.signature(fn).parameters, name
    assert not hasattr(separation, "delta")


def test_delta_monomial_pair():
    assert build(Z, ONE_MINUS_Z).delta == 1.0


def test_delta_sharpness_small_case():
    # A = z^N, B with roots a w^j: delta = a^N for N=2, a=1/2
    n, a = 2, 0.5
    w = cmath.exp(2j * cmath.pi / (2 * n - 1))
    A = Polynomial.monomial(n)
    B = Polynomial.from_roots([a * w**j for j in range(1, n + 1)])
    assert build(A, B).delta == pytest.approx(a**n, abs=1e-12)


def test_delta_identical_raises():
    with pytest.raises(CommonRootError):
        build(Z, Z).delta


@pytest.mark.parametrize("c", [1e-13, 1e13])
def test_delta_accepts_a_separated_pair_whatever_the_scale_of_a(c):
    # |B| at a root of A scales with B alone, and |A| at a root of B with A
    # alone, so neither is measured against the larger of the two norms
    A, B = Polynomial([-1, 1]).scale(c), Polynomial([2, 1])
    pair = build(A, B)
    assert pair.delta_min[2] is None
    assert pair.delta == pytest.approx(3 * min(c, 1), rel=1e-12)


@pytest.mark.parametrize("c", [1e-13, 1.0, 1e13])
@pytest.mark.parametrize("side", ["A", "B"])
def test_delta_refuses_a_common_root_at_every_scale(c, side):
    # z + z^2 and 2 + 3z + z^2 = (z + 1)(z + 2) share the root -1 with 1 + z
    for shared in (Polynomial([0, 1, 1]), Polynomial([2, 3, 1])):
        A, B = shared, Polynomial([1, 1])
        A, B = (A.scale(c), B) if side == "A" else (A, B.scale(c))
        with pytest.raises(CommonRootError):
            build(A, B).delta


def test_delta_scale_law():
    rng = np.random.default_rng(21)
    for _ in range(10):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=1e-3)
        c = 0.3 + 1.7j * rng.random()
        pair = build(inst.A.scale(c), inst.B.scale(c))
        assert pair.delta == pytest.approx(abs(c) * inst.delta, rel=1e-12)


def test_delta_translation_invariance():
    rng = np.random.default_rng(22)
    for _ in range(10):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=1e-3)
        shift = complex(rng.standard_normal(), rng.standard_normal())
        pair = build(translate(inst.A, shift), translate(inst.B, shift))
        assert pair.delta == pytest.approx(inst.delta, rel=1e-9)


def test_delta_tilde_monomial_pair():
    pair = build(Z, ONE_MINUS_Z)
    lower, upper, witness = delta_tilde(pair)
    assert abs(upper - 0.5) <= 1e-6
    assert abs(witness - 0.5) <= 1e-5
    # the paper's bound delta / 3 = 1/3 sits below the certified lower end
    assert 1.0 / 3.0 <= lower <= 0.5 <= upper
    assert lower >= 0.99 * upper
    assert sandwich_holds(pair, lower, upper, 0.0)


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
def test_delta_tilde_brackets_the_exact_value_at_every_scale(scale):
    # for z, 1 - z the minimum of max(|z|, |1 - z|) is exactly 1/2, at 1/2
    lower, upper, _ = delta_tilde(build(Z.scale(scale), ONE_MINUS_Z.scale(scale)))
    assert lower <= 0.5 * scale <= upper
    assert upper == pytest.approx(0.5 * scale, rel=1e-12, abs=0)


def test_delta_tilde_bracket_order():
    rng = np.random.default_rng(23)
    for _ in range(8):
        da, db = sample_degrees(rng, 1, 4)
        inst = random_pair(rng, da, db, delta_floor=0.02)
        lower, upper, _ = delta_tilde(inst.pair)
        assert lower <= upper + 1e-12
        assert upper <= inst.delta + 1e-9


def test_delta_tilde_double_root_case():
    # A = z^2, B = (z - w/2)(z - w^2/2), w = e^(2 pi i/3)
    w = cmath.exp(2j * cmath.pi / 3)
    A = Polynomial.monomial(2)
    B = Polynomial.from_roots([0.5 * w, 0.5 * w**2])
    pair = build(A, B)
    lower, upper, _ = delta_tilde(pair)
    assert upper <= 0.25 + 1e-9
    # the paper's bound is delta / 3^2 = 0.25 / 9
    assert 0.25 / 9.0 <= lower <= upper
    assert sandwich_holds(pair, lower, upper, 0.0)


def _descent_seeds(pair):
    """The roots of A, B, A' and B', then a polar grid of 3 rings by 8
    angles over the joint Cauchy disk: the seeds the multistart descent
    that delta_tilde's box search replaced ran from."""
    seeds = list(pair.rootsA.roots) + list(pair.rootsB.roots)
    for p, degree in ((pair.An, pair.N), (pair.Bn, pair.K)):
        if degree >= 2:
            seeds.extend(find_roots(p.derivative()).roots)
    radius = max(pair.rootsA.cauchy_bound, pair.rootsB.cauchy_bound)
    seeds.append(0j)
    for k in range(3):
        r = radius * np.sqrt((k + 0.5) / 3)
        for m in range(8):
            seeds.append(r * cmath.exp(2j * np.pi * (m + 0.5 * (k % 2)) / 8))
    return seeds


def _scalar_tilde_upper(pair, restart_tol=1e-10, max_restarts=8):
    """Reference for delta_tilde's upper end: one scipy Nelder-Mead run per
    seed of _descent_seeds, evaluated by scalar Horner, restarted while it
    gains restart_tol."""
    A, B = pair.A, pair.B

    def f(xy):
        z = complex(xy[0], xy[1])
        return max(abs(A(z)), abs(B(z)))

    best_val = np.inf
    for s in _descent_seeds(pair):
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
    # certify's and criterion 05's settings: degrees 1..5, delta >= 0.05;
    # the certified lower end lies between the paper's bound and the
    # Nelder-Mead minimum, within 1% of the upper end
    rng = np.random.default_rng(25)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=0.05)
        lower, upper, witness = delta_tilde(inst.pair)
        ref = _scalar_tilde_upper(inst.pair)
        assert upper == pytest.approx(ref, rel=1e-9, abs=0)
        assert upper <= ref + 1e-12
        assert lower <= upper <= inst.delta
        assert inst.delta / 3.0 ** max(da, db) <= lower <= ref
        assert lower >= 0.99 * upper
        assert max(abs(inst.A(witness)), abs(inst.B(witness))) == pytest.approx(
            upper, rel=1e-12
        )


def test_delta_tilde_counts_its_work():
    stats = DescentStats()
    delta_tilde(build(Z, ONE_MINUS_Z), stats=stats)
    # the Taylor table is evaluated once at each square's centre and at each
    # Newton seed (the best point and settled centres), then at four
    # candidate points per seed and iteration
    seeds = stats.evals - stats.boxes - 4 * stats.steps
    assert 1 <= seeds <= stats.boxes + 1
    assert stats.steps > 0
    assert stats.unconverged == 0
    before = stats.evals
    delta_tilde(build(Z, ONE_MINUS_Z), stats=stats)
    assert stats.evals == 2 * before


def test_delta_tilde_witness_lies_on_the_curve():
    # by the minimum-modulus principle the minimiser of max(|A|, |B|) lies
    # on |A| = |B|; certify's settings: degrees 1..5, delta >= 0.05
    rng = np.random.default_rng(26)
    for _ in range(100):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=0.05)
        _, upper, w = delta_tilde(inst.pair)
        assert abs(abs(inst.A(w)) - abs(inst.B(w))) <= 1e-9 * upper


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(1e-3, 1e3))
def test_delta_tilde_scales_with_the_pair(seed, c):
    # max(|cA|, |cB|) = c max(|A|, |B|), and delta scales by c too
    rng = np.random.default_rng(seed)
    da, db = sample_degrees(rng, 1, 5)
    inst = random_pair(rng, da, db, delta_floor=0.05)
    lower, upper, _ = delta_tilde(inst.pair)
    lower_c, upper_c, _ = delta_tilde(build(inst.A.scale(c), inst.B.scale(c)))
    assert lower_c == pytest.approx(c * lower, rel=1e-9, abs=0)
    assert upper_c == pytest.approx(c * upper, rel=1e-9, abs=0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_delta_tilde_ignores_root_order(data):
    # A and B built from permuted root lists differ only by rounding
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    da, db = sample_degrees(rng, 1, 5)
    inst = random_pair(rng, da, db, delta_floor=0.05)
    ra, rb = list(inst.pair.rootsA.roots), list(inst.pair.rootsB.roots)
    pa = data.draw(st.permutations(range(da)))
    pb = data.draw(st.permutations(range(db)))
    _, upper, _ = delta_tilde(
        build(Polynomial.from_roots(ra), Polynomial.from_roots(rb))
    )
    _, upper_p, _ = delta_tilde(
        build(
            Polynomial.from_roots([ra[i] for i in pa]),
            Polynomial.from_roots([rb[i] for i in pb]),
        )
    )
    assert upper_p == pytest.approx(upper, rel=1e-10, abs=0)


def test_cli_import_skips_scipy_optimize_and_stats(tmp_path):
    # importing the CLI and running certify, solve --backend all and
    # sylvester loads no scipy module at all
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(Polynomial([0.5, 1]).to_json_dict()))
    b.write_text(json.dumps(Polynomial([1, -1, 0.25]).to_json_dict()))
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from bezmin.cli import main
        runs = [
            ["--out", {str(tmp_path)!r}, "certify", "--count", "2"],
            ["--json", "solve", {str(a)!r}, {str(b)!r}, "--backend", "all"],
            ["--json", "sylvester", {str(a)!r}, {str(b)!r}],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
        print(codes, sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    src = str(Path(bezmin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    assert out.stdout.strip() == "[0, 0, 0] []"


def test_sublevel_member():
    assert sublevel_member(Z, 0.5, 0.25)
    assert not sublevel_member(Z, 0.5, 1.0)
    with pytest.raises(ValueError):
        sublevel_member(Z, -1.0, 0.0)


def test_separation_trivial_pair():
    rep = check_separation(build(Z, ONE_MINUS_Z))
    assert rep.joint_hits == 0
    assert rep.n_samples > 0
    assert (rep.eps_a, rep.eps_b) == (1.0 / 3.0, 1.0 / 3.0)


def test_separation_figure_instance():
    # the separation result needs the pair normalized into the unit ball;
    # dividing by the norms keeps the roots of the caption instance
    A = Polynomial.from_roots([0.25 + 0.125j, -0.5, 0.4])
    B = Polynomial.from_roots([1 / 9 + 5j / 6, 1 / 8 + 0.5j, 1j / 3, 1j / 5])
    A = A.scale(1.0 / A.norm())
    B = B.scale(1.0 / B.norm())
    pair = build(A, B)
    rep = check_separation(pair)
    assert rep.joint_hits == 0


def test_separation_random_pairs():
    rng = np.random.default_rng(24)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 5)
        inst = random_pair(rng, da, db, delta_floor=0.01)
        rep = check_separation(inst.pair)
        assert rep.joint_hits == 0


def test_separation_violation_raised_for_wrong_delta():
    # an inflated delta makes the sub-level sets overlap, which must raise;
    # it is set over the pair's cached delta (its true value is 1)
    pair = build(Z, ONE_MINUS_Z)
    object.__setattr__(pair, "delta", 40.0)
    with pytest.raises(SeparationViolation):
        check_separation(pair)


def test_the_search_cap_settles_or_refuses_the_squares_left(monkeypatch):
    # with one level only, delta_tilde folds the start square's bound into
    # its lower end, and check_separation names the square it left undecided
    monkeypatch.setattr(separation, "_MAX_DEPTH", 1)
    pair = build(Z.scale(0.5), ONE_MINUS_Z.scale(0.5))
    lower, upper, _ = delta_tilde(pair)
    assert lower == 0.0 and upper == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(SeparationViolation, match="1 squares undecided"):
        check_separation(pair)


def test_the_search_caps_the_squares_of_a_level():
    # roots near 1000 give coefficients up to 1e15, so the rounding margin
    # dwarfs every value near the roots and no square there is decided; the
    # search stops at the first level of more than _MAX_BOXES squares, so no
    # level holds more than four times that many
    A = Polynomial.from_roots([1000, 1001, 1002, 1003, 1004])
    B = Polynomial.from_roots([1000.5, 1001.5, 1002.5, 1003.5, 1004.5])
    stats = DescentStats()
    lower, upper, _ = delta_tilde(build(A, B), stats=stats)
    assert lower == 0.0 < upper
    assert stats.boxes <= 4 * separation._MAX_BOXES * separation._MAX_DEPTH


def test_delta_report_on_a_near_common_root():
    # B's root sits 1e-13 from A's, so delta is about 4e-14: the search
    # stops at its cap with a lower end of 0, and the report still holds
    A = Polynomial.from_roots([0.3, -0.5])
    B = Polynomial.from_roots([0.3 + 1e-13, 0.7])
    rep = delta_report(build(A, B), 1e-9)
    assert 1e-14 < rep.delta < 1e-13
    assert 0.0 <= rep.delta_tilde_lower <= rep.delta_tilde_upper <= rep.delta * (1 + 1e-9)
    assert rep.sandwich_ok


def test_separation_requires_normalized_inputs():
    with pytest.raises(ValueError):
        check_separation(build(Z.scale(3.0), ONE_MINUS_Z))


def test_discontinuity_family():
    assert build(Z, ONE_MINUS_Z).delta == 1.0
    for n in range(2, 11):
        An = Polynomial([0.0, 1.0, 1.0 / n])
        Bn = Polynomial([1.0, -1.0, -(1.0 / n + 1.0 / n**2)])
        # A_n and B_n share the root -n, so delta_min reports it unrefused
        assert build(An, Bn).delta_min[0] <= 1e-9
        assert (An - Z).norm() == 1.0 / n


def test_full_report_fields():
    rep = delta_report(build(Z, ONE_MINUS_Z), 1e-9)
    assert rep.sandwich_ok
    assert rep.delta == 1.0
    assert rep.delta_tilde_lower <= rep.delta_tilde_upper <= rep.delta + 1e-9
    d = rep.to_json_dict()
    assert set(d) >= {"delta", "delta_tilde_lower", "delta_tilde_upper",
                      "sandwich_ok", "argmin_witness"}

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezmin.errors import DegreeZeroError
from bezmin.poly import Polynomial
from bezmin.roots import CLUSTER_TOL_FACTOR, find_roots
from oracles import numpy_find_roots


def _match(got, expected, tol):
    got = sorted(got, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    expected = sorted(expected, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    return max(abs(g - e) for g, e in zip(got, expected)) <= tol


def test_quadratic_units():
    rs = find_roots(Polynomial([1, 0, 1]))
    assert _match(rs.roots, [1j, -1j], 1e-12)
    assert rs.verified


def test_scaled_cyclotomic_family():
    # z^(2N-1) - a^(2N-1) for N=2, a=1/2: roots (1/2) e^(2 pi i j / 3)
    n, a = 2, 0.5
    m = 2 * n - 1
    p = Polynomial([-(a**m)] + [0] * (m - 1) + [1])
    expected = [a * cmath.exp(2j * cmath.pi * j / m) for j in range(m)]
    rs = find_roots(p)
    assert _match(rs.roots, expected, 1e-10)


def test_figure_cubic_roots():
    expected = [0.25 + 0.125j, -0.5, 0.4]
    p = Polynomial.from_roots(expected)
    rs = find_roots(p)
    assert _match(rs.roots, expected, 1e-10)


def test_constant_raises():
    with pytest.raises(DegreeZeroError):
        find_roots(Polynomial([3.0]))


def test_cauchy_bound_holds_exactly():
    rng = np.random.default_rng(10)
    for _ in range(30):
        deg = int(rng.integers(1, 9))
        p = Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        rs = find_roots(p)
        for r in rs.roots:
            assert abs(r) <= rs.cauchy_bound


def test_product_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(2, 11))
        # well separated roots on a jittered grid
        roots = [
            (i - deg / 2) * 0.7 + 0.3j * rng.standard_normal() for i in range(deg)
        ]
        lead = 0.5 + rng.random()
        p = Polynomial.from_roots(roots).scale(lead)
        rs = find_roots(p)
        q = Polynomial.from_roots(rs.roots).scale(lead)
        err = max(abs(p.coeff(k) - q.coeff(k)) for k in range(deg + 1))
        assert err <= 1e-8 * p.norm()


def test_reverse_gives_reciprocal_roots():
    rng = np.random.default_rng(12)
    for _ in range(20):
        deg = int(rng.integers(1, 8))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        coeffs[0] += 2.5
        p = Polynomial(coeffs)
        rs = find_roots(p)
        rs_rev = find_roots(p.reverse(deg))
        want = sorted(1.0 / np.array(rs.roots), key=lambda z: (z.real, z.imag))
        got = sorted(rs_rev.roots, key=lambda z: (z.real, z.imag))
        assert max(abs(w - g) for w, g in zip(want, got)) < 1e-8 * max(
            1.0, max(abs(x) for x in want)
        )


def test_multiplicity_flags():
    p = Polynomial.from_roots([0.5, 0.5, -1.0])
    rs = find_roots(p)
    assert rs.any_suspect
    assert sum(rs.multiplicity_suspect) >= 2


def _robustness_cases():
    rng = np.random.default_rng(13)
    for deg in range(2, 9):
        for _ in range(4):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            yield Polynomial(c * np.logspace(0, 8, deg + 1))
            radii = 10.0 ** rng.uniform(-3, 3, deg)
            angles = 2 * np.pi * rng.random(deg)
            yield Polynomial.from_roots(radii * np.exp(1j * angles))


def test_graded_and_spread_roots_verify_and_scale_invariant():
    for p in _robustness_cases():
        base = find_roots(p)
        assert base.verified
        for c in (1e-8, 1e8, 3 - 4j):
            rs = find_roots(p.scale(c))
            assert rs.verified == base.verified
            assert rs.multiplicity_suspect == base.multiplicity_suspect
            got, want = np.array(rs.roots), np.array(base.roots)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_huge_coefficients_raise_no_warning():
    # the numpy polish divided inf by inf here; warnings are errors in the suite
    rs = find_roots(Polynomial([1e308] * 3))
    assert len(rs.roots) == 2


UNIT = st.floats(0, 2 * math.pi).map(lambda t: cmath.rect(1.0, t))
SMALL = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@st.composite
def polish_cases(draw):
    """Random polynomials of degree 1-8, graded ones (coefficients spread
    over 1e-6..1e6), and ones with two roots 1e-9 or 1e-5 apart."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "graded", 1e-9, 1e-5]))
    if kind in ("random", "graded"):
        coeffs = draw(st.lists(SMALL, min_size=n, max_size=n))
        coeffs.append(draw(st.floats(0.5, 1)) * draw(UNIT))
        if kind == "graded":
            exps = draw(st.lists(st.floats(-6, 6), min_size=n + 1, max_size=n + 1))
            coeffs = [c * 10.0**e for c, e in zip(coeffs, exps)]
        return Polynomial(coeffs)
    center = draw(SMALL)
    others = draw(st.lists(SMALL, min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    roots = [center, center + kind * draw(UNIT)] + others
    return Polynomial.from_roots(roots[: max(n, 2)])


@settings(max_examples=200, deadline=None)
@given(polish_cases())
def test_python_polish_matches_numpy_polish(p):
    got = find_roots(p)
    with np.errstate(all="ignore"):  # the numpy polish can overflow a step
        want = numpy_find_roots(p)
    assert got.cauchy_bound == want.cauchy_bound
    assert got.verified == want.verified
    n = len(want.roots)
    # the residual is |p| at the root, from the same Horner scheme
    for r, res in zip(got.roots, got.residuals):
        v = p(r)
        assert res == math.hypot(v.real, v.imag)

    # numpy's complex product, quotient and modulus round differently from
    # Python's, so the two polishes agree to rounding in well separated
    # roots, and to the root's first-order condition, 2(n+1)u sum|c_k||r|^k
    # / |p'(r)| for each side, where p cannot resolve a cluster; roots that
    # tie in real part may swap places in the sort, so match by distance
    dp = p.derivative()
    gamma = 2 * len(p.coeffs) * 2.0**-53
    free = list(range(n))
    match = []
    for w in want.roots:
        j = min(free, key=lambda k: abs(got.roots[k] - w))
        free.remove(j)
        match.append(j)
        noise = gamma * sum(abs(c) * abs(w) ** k for k, c in enumerate(p.coeffs))
        tol = 1e-14 * (1 + abs(w)) + 2 * noise / max(abs(dp(w)), 1e-300)
        assert abs(got.roots[j] - w) <= tol

    # the cluster rule is the same; a flag may differ only where the two
    # polishes put a pair of roots on either side of the cluster tolerance
    cluster_tol = CLUSTER_TOL_FACTOR * (1 + want.cauchy_bound)
    for i, j in enumerate(match):
        if got.multiplicity_suspect[j] != want.multiplicity_suspect[i]:
            assert any(
                (abs(want.roots[i] - want.roots[k]) < cluster_tol)
                != (abs(got.roots[j] - got.roots[match[k]]) < cluster_tol)
                for k in range(n) if k != i
            )

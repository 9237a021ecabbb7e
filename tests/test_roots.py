import cmath

import numpy as np
import pytest

from bezmin.errors import DegreeZeroError
from bezmin.poly import Polynomial
from bezmin.roots import find_roots


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
        p = Polynomial.from_roots(roots, lead)
        rs = find_roots(p)
        q = Polynomial.from_roots(rs.roots, lead)
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

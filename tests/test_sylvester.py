import numpy as np
import pytest

from bezmin import sylvester
from bezmin.ensemble import random_pair, sample_degrees
from bezmin.errors import ConstantPolynomialError, SingularSystemError
from bezmin.poly import Polynomial
from bezmin.roots import find_roots

Z = Polynomial([0, 1])
ONE_MINUS_Z = Polynomial([1, -1])


def test_build_layout_remark_example():
    a = 0.25
    A = Polynomial([0, a])
    B = Polynomial([1, a])
    M = sylvester.build(A, B)
    assert np.allclose(M.entries, [[0, 1], [a, a]])


def test_build_layout_monomial_pair():
    M = sylvester.build(Z, ONE_MINUS_Z)
    assert np.allclose(M.entries, [[0, 1], [1, -1]])


def test_build_rejects_constants():
    with pytest.raises(ConstantPolynomialError):
        sylvester.build(Polynomial([1.0]), Z)


def test_matvec_matches_polynomial_product():
    # S(A,B) @ [r, s] must equal the coefficients of A*R + B*S
    rng = np.random.default_rng(31)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 6)
        A = Polynomial(rng.standard_normal(da + 1) + 1j * rng.standard_normal(da + 1))
        B = Polynomial(rng.standard_normal(db + 1) + 1j * rng.standard_normal(db + 1))
        M = sylvester.build(A, B)
        n, k = M.N, M.K
        R = Polynomial(rng.standard_normal(k) + 1j * rng.standard_normal(k))
        S = Polynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        x = np.array([R.coeff(i) for i in range(k)] + [S.coeff(i) for i in range(n)])
        got = M.entries @ x
        want = A * R + B * S
        assert max(abs(got[i] - want.coeff(i)) for i in range(n + k)) < 1e-12


def test_solve_monomial_pair():
    sol = sylvester.solve(Z, ONE_MINUS_Z)
    assert sol.R == Polynomial([1.0])
    assert sol.S == Polynomial([1.0])
    assert sol.residual == 0.0


def test_solve_sharpness_example():
    import cmath

    n, a = 2, 0.5
    w = cmath.exp(2j * cmath.pi / (2 * n - 1))
    A = Polynomial.monomial(n)
    B = Polynomial.from_roots([a * w**j for j in range(1, n + 1)])
    sol = sylvester.solve(A, B)
    # R = z^(N-1) / a^(2N-1) = 8 z
    assert abs(sol.R.coeff(1) - 8.0) < 1e-9
    assert abs(sol.R.coeff(0)) < 1e-9
    assert sol.R.norm() == pytest.approx(8.0, rel=1e-12)


def test_solve_tiny_scale_pair_is_not_singular():
    # the pivot test is relative: scaling a coprime pair by 1e-15 keeps it
    # solvable, with cofactors scaled by 1e15
    sol = sylvester.solve(Z.scale(1e-15), ONE_MINUS_Z.scale(1e-15))
    assert sol.R.norm() == pytest.approx(1e15, rel=1e-12)
    assert sol.S.norm() == pytest.approx(1e15, rel=1e-12)
    assert sol.residual <= 1e-12


def test_solve_common_root_raises():
    with pytest.raises(SingularSystemError):
        sylvester.solve(Z, Z)


def test_degree_bounds_hold():
    rng = np.random.default_rng(32)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 6)
        inst = random_pair(rng, da, db, delta_floor=0.02)
        sol = sylvester.solve(inst.A, inst.B)
        assert sol.R.degree <= db - 1 or sol.R.is_zero
        assert sol.S.degree <= da - 1 or sol.S.is_zero
        assert sol.residual <= 1e-10


def test_resultant_monomial_pair():
    ra, rb = find_roots(Z), find_roots(ONE_MINUS_Z)
    triple = sylvester.resultant(Z, ONE_MINUS_Z, ra, rb)
    assert abs(triple.det_value) == pytest.approx(1.0)
    assert triple.product_via_roots_of_B == pytest.approx(1.0)
    assert triple.product_via_roots_of_A == pytest.approx(1.0)


def test_resultant_leading_coefficient_family():
    for a in (0.5, 0.125, 2.0):
        A = Polynomial([0, a])
        B = Polynomial([1, a])
        triple = sylvester.resultant(A, B, find_roots(A), find_roots(B))
        assert abs(triple.det_value) == pytest.approx(abs(a), rel=1e-12)
        assert triple.product_via_roots_of_B == pytest.approx(abs(a), rel=1e-12)
        assert triple.product_via_roots_of_A == pytest.approx(abs(a), rel=1e-12)


def test_resultant_scaling_homogeneity():
    rng = np.random.default_rng(33)
    inst = random_pair(rng, 3, 2, delta_floor=0.02)
    base = abs(
        sylvester.resultant(inst.A, inst.B, inst.rootsA, inst.rootsB).det_value
    )
    c = 1.3 - 0.4j
    scaled = abs(
        sylvester.resultant(
            inst.A.scale(c), inst.B.scale(c), inst.rootsA, inst.rootsB
        ).det_value
    )
    assert scaled == pytest.approx(abs(c) ** (3 + 2) * base, rel=1e-10)


def test_resultant_triple_agreement_random():
    rng = np.random.default_rng(34)
    for _ in range(30):
        da, db = sample_degrees(rng, 1, 6)
        inst = random_pair(rng, da, db, delta_floor=0.05)
        t = sylvester.resultant(inst.A, inst.B, inst.rootsA, inst.rootsB)
        m = abs(t.det_value)
        assert t.product_via_roots_of_B == pytest.approx(m, rel=1e-6)
        assert t.product_via_roots_of_A == pytest.approx(m, rel=1e-6)


def test_inverse_norm_remark_family():
    # A = a z, B = a z + 1: inverse is [[-1, 1/a], [1, 0]]
    for a in [2.0**-i for i in range(11)]:
        A = Polynomial([0, a])
        B = Polynomial([1, a])
        rep = sylvester.inverse_norm_report(A, B, 1.0)
        assert rep.max_entry_norm == pytest.approx(max(1.0, 1.0 / a), abs=1e-12)
        # M = 1/a, exponent = 2; ratio = (1/a) / (1/a)^2 = a stays bounded
        assert rep.tightness_ratio <= 1.0 + 1e-12


def test_inverse_norm_requires_positive_delta():
    with pytest.raises(ValueError):
        sylvester.inverse_norm_report(Z, ONE_MINUS_Z, 0.0)


def test_monomial_family_assembles_inverse():
    rng = np.random.default_rng(35)
    inst = random_pair(rng, 3, 4, delta_floor=0.05)
    M = sylvester.build(inst.A, inst.B)
    family = sylvester.solve_monomial_all(inst.A, inst.B)
    assert len(family) == M.size
    R = sylvester.assemble_inverse(M, family)
    assert np.max(np.abs(M.entries @ R - np.eye(M.size))) < 1e-12


def test_monomial_family_consistent_with_solve_rhs():
    rng = np.random.default_rng(36)
    inst = random_pair(rng, 2, 3, delta_floor=0.05)
    M = sylvester.build(inst.A, inst.B)
    family = sylvester.solve_monomial_all(inst.A, inst.B)
    direct = sylvester.solve_rhs(M, inst.A, inst.B, Polynomial([1.0]))
    assert (family[0].R - direct.R).norm() < 1e-12
    assert (family[0].S - direct.S).norm() < 1e-12


def test_residual_bound_invariant():
    rng = np.random.default_rng(37)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 8)
        inst = random_pair(rng, da, db, delta_floor=1e-3)
        M = sylvester.build(inst.A, inst.B)
        P = Polynomial(rng.standard_normal(da + db) + 1j * rng.standard_normal(da + db))
        sol = sylvester.solve_rhs(M, inst.A, inst.B, P)
        inv = sylvester.inverse_norm_report(inst.A, inst.B, inst.delta)
        cap = 1e-10 * (1.0 + inv.max_entry_norm) * P.norm()
        assert sol.residual <= cap

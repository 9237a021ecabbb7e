import json
import warnings

import mpmath
import numpy as np
import pytest

from bezmin import sylvester
from bezmin.backends import solve_quadrature, solve_residue, solve_reversed
from bezmin.cli import main, sharpness_instance
from bezmin.errors import CommonRootError, DegreeZeroError, SingularSystemError
from bezmin.poly import Polynomial
from bezmin.separation import check_separation, delta_tilde
from oracles import random_pair, sample_degrees

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


def test_pairs_compare_by_identity():
    # a Pair holds an array; equality and hashing go by identity, so pairs
    # can be compared and used as keys without an ambiguous array truth value
    pair = sylvester.build(Z, ONE_MINUS_Z)
    assert pair == pair and pair != sylvester.build(Z, ONE_MINUS_Z)
    assert {pair: 1}[pair] == 1


def test_build_rejects_constants():
    with pytest.raises(DegreeZeroError):
        sylvester.build(Polynomial([1.0]), Z)


def test_layout_of_stacked_rows_matches_entrywise_definition():
    rng = np.random.default_rng(38)
    n, k = 3, 5
    ca = rng.standard_normal((4, n + 1)) + 1j * rng.standard_normal((4, n + 1))
    cb = rng.standard_normal((4, k + 1)) + 1j * rng.standard_normal((4, k + 1))
    mats = sylvester.layout(ca, cb)
    for b in range(4):
        want = np.zeros((n + k, n + k), dtype=complex)
        for c in range(k):
            for i in range(n + 1):
                want[c + i, c] = ca[b, i]
        for c in range(n):
            for i in range(k + 1):
                want[c + i, k + c] = cb[b, i]
        assert np.array_equal(mats[b], want)
        M = sylvester.build(Polynomial(ca[b]), Polynomial(cb[b]))
        assert np.array_equal(M.entries, want)


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
    sol = sylvester.solve(sylvester.build(Z, ONE_MINUS_Z))
    assert sol.R == Polynomial([1.0])
    assert sol.S == Polynomial([1.0])
    assert sol.residual == 0.0


def test_solve_sharpness_example():
    import cmath

    n, a = 2, 0.5
    w = cmath.exp(2j * cmath.pi / (2 * n - 1))
    A = Polynomial.monomial(n)
    B = Polynomial.from_roots([a * w**j for j in range(1, n + 1)])
    sol = sylvester.solve(sylvester.build(A, B))
    # R = z^(N-1) / a^(2N-1) = 8 z
    assert abs(sol.R.coeff(1) - 8.0) < 1e-9
    assert abs(sol.R.coeff(0)) < 1e-9
    assert sol.R.norm() == pytest.approx(8.0, rel=1e-12)


def test_solve_tiny_scale_pair_is_not_singular():
    # the pivot test is relative: scaling a coprime pair by 1e-15 keeps it
    # solvable, with cofactors scaled by 1e15
    sol = sylvester.solve(sylvester.build(Z.scale(1e-15), ONE_MINUS_Z.scale(1e-15)))
    assert sol.R.norm() == pytest.approx(1e15, rel=1e-12)
    assert sol.S.norm() == pytest.approx(1e15, rel=1e-12)
    assert sol.residual <= 1e-12


def test_solve_common_root_raises():
    with pytest.raises(SingularSystemError):
        sylvester.solve(sylvester.build(Z, Z))


def test_degree_bounds_hold():
    rng = np.random.default_rng(32)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 6)
        inst = random_pair(rng, da, db, delta_floor=0.02)
        sol = sylvester.solve(inst.pair)
        assert sol.R.degree <= db - 1
        assert sol.S.degree <= da - 1
        assert sol.residual <= 1e-10


def test_resultant_monomial_pair():
    triple = sylvester.resultant(sylvester.build(Z, ONE_MINUS_Z))
    assert abs(triple.det_value) == pytest.approx(1.0)
    assert triple.product_via_roots_of_B == pytest.approx(1.0)
    assert triple.product_via_roots_of_A == pytest.approx(1.0)


def test_resultant_leading_coefficient_family():
    for a in (0.5, 0.125, 2.0):
        A = Polynomial([0, a])
        B = Polynomial([1, a])
        triple = sylvester.resultant(sylvester.build(A, B))
        assert abs(triple.det_value) == pytest.approx(abs(a), rel=1e-12)
        assert triple.product_via_roots_of_B == pytest.approx(abs(a), rel=1e-12)
        assert triple.product_via_roots_of_A == pytest.approx(abs(a), rel=1e-12)


def test_resultant_scaling_homogeneity():
    rng = np.random.default_rng(33)
    inst = random_pair(rng, 3, 2, delta_floor=0.02)
    base = abs(sylvester.resultant(inst.pair).det_value)
    c = 1.3 - 0.4j
    scaled = abs(
        sylvester.resultant(sylvester.build(inst.A.scale(c), inst.B.scale(c))).det_value
    )
    assert scaled == pytest.approx(abs(c) ** (3 + 2) * base, rel=1e-10)


def test_resultant_triple_agreement_random():
    rng = np.random.default_rng(34)
    for _ in range(30):
        da, db = sample_degrees(rng, 1, 6)
        inst = random_pair(rng, da, db, delta_floor=0.05)
        t = sylvester.resultant(inst.pair)
        m = abs(t.det_value)
        assert t.product_via_roots_of_B == pytest.approx(m, rel=1e-6)
        assert t.product_via_roots_of_A == pytest.approx(m, rel=1e-6)


def _random_poly(rng, degree):
    return Polynomial(
        rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    )


def test_resultant_det_matches_high_precision_det():
    # numpy's LAPACK determinant against mpmath's at 50 digits on the same
    # entries
    rng = np.random.default_rng(39)
    with mpmath.workdps(50):
        for _ in range(60):
            da, db = sample_degrees(rng, 1, 8)
            M = sylvester.build(_random_poly(rng, da), _random_poly(rng, db))
            got = sylvester.resultant(M).det_value
            want = complex(mpmath.det(mpmath.matrix(M.entries.tolist())))
            assert abs(got - want) <= 1e-12 * abs(want)


def test_reversed_sylvester_matrix_permutes_the_pairs_entries():
    # the reversed pair's Sylvester matrix holds the pair's entries with the
    # rows reversed and the columns reversed within each block, so the
    # reversed backend may read the pair's singular values
    rng = np.random.default_rng(40)
    for _ in range(100):
        da, db = sample_degrees(rng, 1, 8)
        M = sylvester.build(_random_poly(rng, da), _random_poly(rng, db))
        inner = sylvester.build(M.A.reverse(M.N), M.B.reverse(M.K))
        cols = np.r_[M.K - 1 : -1 : -1, M.size - 1 : M.K - 1 : -1]
        assert np.array_equal(inner.entries, M.entries[::-1, cols])
        sv, want = inner.singular_values, M.singular_values
        assert np.max(np.abs(sv - want)) <= 1e-13 * want[0]


# nonzero constant terms, so the reversed backend reaches its singularity check
COMMON_ROOT_PAIRS = [
    (ONE_MINUS_Z, ONE_MINUS_Z),
    (Polynomial.from_roots([0.5, -0.25]), Polynomial.from_roots([0.5, 0.8])),
    (Polynomial.from_roots([1j, -1j, 2]), Polynomial.from_roots([-1j, 0.3])),
]


@pytest.mark.parametrize("A, B", COMMON_ROOT_PAIRS)
def test_common_root_pairs_are_refused(A, B):
    pair = sylvester.build(A, B)
    sv = pair.singular_values
    assert sv[-1] <= 1e-14 * sv[0]
    with pytest.raises(SingularSystemError):
        sylvester.solve(pair)
    with pytest.raises(SingularSystemError):
        solve_reversed(pair)
    with pytest.raises(CommonRootError):
        sylvester.inverse_norm_report(pair)


def test_sharpness_refusal_follows_the_singular_value_ratio():
    # sharpness_instance(4, 0.01) has delta 1e-8 and singular value ratio
    # 4.9e-15, at or below the 1e-14 rule; (4, 0.02) has 6.3e-13 and solves
    refused = sylvester.build(*sharpness_instance(4, 0.01))
    sv = refused.singular_values
    assert sv[-1] <= 1e-14 * sv[0]
    with pytest.raises(SingularSystemError):
        sylvester.solve(refused)
    solved = sylvester.build(*sharpness_instance(4, 0.02))
    sv = solved.singular_values
    assert sv[-1] >= 10 * 1e-14 * sv[0]
    assert sylvester.solve(solved).residual < 1e-3


def test_resultant_of_common_root_pair_is_zero():
    A, B = Z, Polynomial([0, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triple = sylvester.resultant(sylvester.build(A, B))
    assert triple.det_value == 0
    assert isinstance(triple.det_value, complex)


def test_inverse_norm_remark_family():
    # A = a z, B = a z + 1: inverse is [[-1, 1/a], [1, 0]]
    for a in [2.0**-i for i in range(11)]:
        A = Polynomial([0, a])
        B = Polynomial([1, a])
        rep = sylvester.inverse_norm_report(sylvester.build(A, B))
        assert rep.max_entry_norm == pytest.approx(max(1.0, 1.0 / a), abs=1e-12)
        # M = 1/a, exponent = 2; ratio = (1/a) / (1/a)^2 = a stays bounded
        assert rep.tightness_ratio <= 1.0 + 1e-12


def test_inverse_norm_refuses_a_common_root():
    # the pair's delta refuses before the singular LU is looked at
    with pytest.raises(CommonRootError):
        sylvester.inverse_norm_report(sylvester.build(Z, Z))


def _monomial_family(M, size):
    return [sylvester.solve(M, Polynomial.monomial(ell)) for ell in range(size)]


def test_monomial_family_assembles_inverse():
    # the packed solutions for P = z^l are the columns of the inverse
    rng = np.random.default_rng(35)
    inst = random_pair(rng, 3, 4, delta_floor=0.05)
    M = inst.pair
    family = _monomial_family(M, M.size)
    inv = np.array(
        [[sol.R.coeff(i) for i in range(M.K)] + [sol.S.coeff(i) for i in range(M.N)]
         for sol in family]
    ).T
    assert np.max(np.abs(M.entries @ inv - np.eye(M.size))) < 1e-12
    report = sylvester.inverse_norm_report(M)
    assert np.max(np.abs(inv)) == pytest.approx(report.max_entry_norm, rel=1e-12)


def test_residual_bound_invariant():
    rng = np.random.default_rng(37)
    for _ in range(20):
        da, db = sample_degrees(rng, 1, 8)
        inst = random_pair(rng, da, db, delta_floor=1e-3)
        M = inst.pair
        P = Polynomial(rng.standard_normal(da + db) + 1j * rng.standard_normal(da + db))
        sol = sylvester.solve(M, P)
        inv = sylvester.inverse_norm_report(M)
        cap = 1e-10 * (1.0 + inv.max_entry_norm) * P.norm()
        assert sol.residual <= cap


def _tailed(p):
    """p with one more leading coefficient, 1e-16 of its norm, which
    normalize() trims."""
    return Polynomial([*p.coeffs, 1e-16 * p.norm()])


def _outputs(pair):
    """The delta-tilde bracket and witness, the separation report, the
    roots, each backend's R, S and residual, the resultant and the
    inverse-norm report of a pair."""
    solutions = [backend(pair) for backend in
                 (sylvester.solve, solve_residue, solve_quadrature, solve_reversed)]
    return (
        delta_tilde(pair), check_separation(pair), pair.rootsA, pair.rootsB,
        [(sol.R.coeffs, sol.S.coeffs, sol.residual) for sol in solutions],
        sylvester.resultant(pair), sylvester.inverse_norm_report(pair).to_json_dict(),
    )


def test_a_negligible_leading_coefficient_changes_no_output(tmp_path, capsys):
    # build trims the tails, and every layer reads the trimmed polynomials
    rng = np.random.default_rng(7)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for _ in range(60):
        pair = random_pair(rng, *sample_degrees(rng, 1, 5), delta_floor=0.05).pair
        tails = _tailed(pair.A), _tailed(pair.B)
        assert _outputs(sylvester.build(*tails)) == _outputs(pair)
        printed = []
        for A, B in ((pair.A, pair.B), tails):
            a.write_text(json.dumps(A.to_json_dict()))
            b.write_text(json.dumps(B.to_json_dict()))
            assert main(["--json", "delta", str(a), str(b)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

import math

import numpy as np
import pytest

from bezmin.poly import Polynomial, Stack
from bezmin.roots import find_roots
from bezmin.sylvester import build
from oracles import horner_reference, translate


def test_eval_linear():
    assert Polynomial([1, 2])(3) == 7


def test_eval_square_of_i():
    assert Polynomial([0, 0, 1])(1j) == -1


def test_eval_discontinuity_root():
    # B_n(-n) = 0 exactly for B_n = 1 - z - (1/n + 1/n^2) z^2
    n = 5
    B = Polynomial([1.0, -1.0, -(1.0 / n + 1.0 / n**2)])
    assert abs(B(-n)) <= 1e-12


def test_eval_vectorized_matches_scalar():
    rng = np.random.default_rng(1)
    p = Polynomial(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    zs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    vec = p(zs)
    for z, v in zip(zs, vec):
        assert abs(p(z) - v) < 1e-12 * max(1.0, abs(v))


def test_norm_examples():
    assert Polynomial([1, 2, -3]).norm() == 3
    assert Polynomial([0, 0, 0, 0, 1]).norm() == 1
    assert Polynomial([0, 0.1**2]).norm() == pytest.approx(0.01)


# each part is finite, but the modulus is not: |1.5e308 (1 + i)| > 1.8e308
OVERFLOWING = Polynomial([1, 1.5e308 + 1.5e308j])


def test_norm_of_an_overflowing_modulus_is_inf():
    assert OVERFLOWING.norm() == math.inf
    # a modulus just below the largest double keeps its value
    assert Polynomial([1, 1.2e308 + 1.2e308j]).norm() == abs(1.2e308 + 1.2e308j)


def test_normalize_refuses_a_non_finite_norm():
    with pytest.raises(ValueError, match="finite"):
        OVERFLOWING.normalize()
    with pytest.raises(ValueError, match="finite"):
        find_roots(OVERFLOWING)
    with pytest.raises(ValueError, match="finite"):
        build(OVERFLOWING, Polynomial([1, 1]))


def test_degree_tracks_last_nonzero():
    assert Polynomial([1, 2, 0]).degree == 1
    assert Polynomial([0]).degree == 0
    assert Polynomial([0, 0, 5]).degree == 2


def test_normalize_trims_only_tiny_trailing():
    p = Polynomial([1, 1, 1e-20])
    assert p.degree == 2  # kept until an explicit normalize
    assert p.normalize().degree == 1
    q = Polynomial([1, 1, 1e-3])
    assert q.normalize() is q  # nothing trimmed, nothing copied


def test_reverse_examples():
    assert Polynomial([1, 2, 3]).reverse(2) == Polynomial([3, 2, 1])
    assert Polynomial([0, 1]).reverse(1) == Polynomial([1])


def test_reverse_rejects_small_target():
    with pytest.raises(ValueError):
        Polynomial([1, 2, 3]).reverse(1)


def test_reverse_involution():
    rng = np.random.default_rng(2)
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        coeffs[0] += 3.0  # nonzero constant term
        p = Polynomial(coeffs)
        q = p.reverse(deg).reverse(deg)
        assert max(abs(p.coeff(k) - q.coeff(k)) for k in range(deg + 1)) == 0


def test_reverse_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        p = Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        assert p.reverse(p.degree).norm() == p.norm()


def test_mul_trivial():
    assert Polynomial([0, 1]) * Polynomial([1, -1]) == Polynomial([0, 1, -1])


def test_stack_matches_the_horner_reference_bit_for_bit():
    # unequal degrees, a constant among them, on 1-D and 3-D points
    rng = np.random.default_rng(7)
    polys = [
        Polynomial(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
        for d in (5, 0, 2, 8)
    ]
    stack = Stack(polys)
    for shape in ((40,), (3, 4, 5)):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = stack(z)
        assert got.shape == (len(polys),) + shape
        assert got.tobytes() == horner_reference(polys, z).tobytes()
    assert stack.evals == 40 + 60


def test_translate_trivial():
    assert translate(Polynomial([0, 0, 1]), 1) == Polynomial([1, 2, 1])


def test_mul_eval_homomorphism():
    rng = np.random.default_rng(4)
    p = Polynomial(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    q = Polynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    pq = p * q
    zs = np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    for z in zs:
        want = p(z) * q(z)
        assert abs(pq(z) - want) <= 1e-10 * max(1.0, abs(want))


def test_translate_round_trip():
    # 1e-12 coefficientwise over |a| <= 2, degree <= 10 on the unit ball,
    # scaled by the binomial amplification (1+|a|)^deg that double-precision
    # intermediate storage necessarily rounds through
    rng = np.random.default_rng(5)
    for _ in range(50):
        deg = int(rng.integers(1, 11))
        coeffs = np.sqrt(rng.random(deg + 1)) * np.exp(2j * np.pi * rng.random(deg + 1))
        p = Polynomial(coeffs)
        a = 2 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        q = translate(translate(p, a), -a)
        err = max(abs(p.coeff(k) - q.coeff(k)) for k in range(deg + 1))
        assert err < 1e-12 * max(1.0, (1.0 + abs(a)) ** deg)
        assert err < 1e-9


def test_from_roots_and_eval():
    roots = [1.0, -2.0, 3j]
    p = Polynomial.from_roots(roots).scale(2.0)
    for r in roots:
        assert abs(p(r)) < 1e-12
    assert p.coeff(3) == 2.0


def test_json_round_trip():
    p = Polynomial([1 + 2j, 0, -0.5j])
    q = Polynomial.from_json_dict(p.to_json_dict())
    assert p == q


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        Polynomial.from_json_dict({"nope": 1})
    for coeffs in (5, [1.0], [["a", 0.0]], [[1.0, 0.0, 2.0]], [None]):
        with pytest.raises(ValueError, match="pairs"):
            Polynomial.from_json_dict({"coeffs": coeffs})


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_json_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="coefficient 1"):
        Polynomial.from_json_dict({"coeffs": [[1.0, 0.0], [float(bad), 0.0]]})
    with pytest.raises(ValueError, match="coefficient 0"):
        Polynomial.from_json_dict({"coeffs": [[0.0, float(bad)]]})


def test_json_rejects_coefficients_whose_modulus_overflows():
    with pytest.raises(ValueError, match="coefficient 1"):
        Polynomial.from_json_dict({"coeffs": [[1.0, 0.0], [1.5e308, 1.5e308]]})
    # a modulus just below the largest double is accepted
    p = Polynomial.from_json_dict({"coeffs": [[1.7e308, 0.0], [0.0, -1.7e308]]})
    assert p.norm() == 1.7e308

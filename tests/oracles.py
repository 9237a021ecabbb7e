"""Reference helpers that only the tests use: the literal residue sum (an
oracle for the interpolation backend), a root-free translation point, and a
sub-level set predicate."""

from __future__ import annotations

import numpy as np

from bezmin.backends import _guard_coprime, _guard_simple
from bezmin.poly import Polynomial
from bezmin.roots import RootSet
from bezmin.sylvester import BezoutSolution


def residue_sum_solution(
    A: Polynomial,
    B: Polynomial,
    rootsA: RootSet,
    rootsB: RootSet,
    P: Polynomial | None = None,
) -> BezoutSolution:
    """Literal residue summation of the coefficient integrals. Identical in
    exact arithmetic to solve_residue but worse conditioned; debug oracle."""
    P = P if P is not None else Polynomial([1.0])
    _guard_simple(rootsA, "A")
    _guard_simple(rootsB, "B")
    _guard_coprime(A, B, rootsA, rootsB)
    An, Bn = A.normalize(), B.normalize()
    n, k = An.degree, Bn.degree
    dA, dB = A.derivative(), B.derivative()

    s = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = 0j
        for kk in range(j + 1, n + 1):
            integral = sum(
                P(a) * a ** (kk - j - 1) / (dA(a) * B(a)) for a in rootsA.roots
            )
            acc += An.coeff(kk) * integral
        s[j] = acc
    r = np.zeros(k, dtype=complex)
    for j in range(k):
        acc = 0j
        for kk in range(j + 1, k + 1):
            integral = sum(
                P(b) * b ** (kk - j - 1) / (dB(b) * A(b)) for b in rootsB.roots
            )
            acc += Bn.coeff(kk) * integral
        r[j] = acc
    R, S = Polynomial(r), Polynomial(s)
    residual = (A * R + B * S - P).norm()
    return BezoutSolution(R=R, S=S, residual=residual, backend="residue:literal")


def translation_point(rootsA: RootSet, rootsB: RootSet, n: int, k: int) -> complex:
    """A point z0 in the unit disk whose 2*eps neighborhood avoids all roots,
    found among N+K+1 packed candidate centers on the real axis; after
    translating the pair by z0 no root sits near the origin."""
    eps = 1.0 / (4.0 * (n + k + 2.0))
    roots = list(rootsA.roots) + list(rootsB.roots)
    for m in range(n + k + 1):
        z0 = complex(-1.0 + 2 * eps + 4 * eps * m, 0.0)
        if all(abs(r - z0) > 2 * eps for r in roots):
            return z0
    raise ArithmeticError("pigeonhole failure: no root-free candidate disk")


def sublevel_member(p: Polynomial, eps: float, z: complex) -> bool:
    """Whether |p(z)| < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return bool(abs(p(z)) < eps)

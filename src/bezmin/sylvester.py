"""Sylvester matrix: construction, linear-system backend, resultant checks,
and the inverse-norm conditioning report.

The matrix layout puts K shifted copies of A's coefficient column first and N
shifted copies of B's column after, so that S(A,B) @ [r_0..r_{K-1}, s_0..
s_{N-1}] is exactly the coefficient vector of A*R + B*S. Solves use partial
pivoting LU plus iterative refinement with an extended-precision residual;
the refinement is what keeps ill-conditioned instances (tiny separation)
accurate to ~1e-12 relative instead of eps * cond.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import ConstantPolynomialError, SingularSystemError
from .poly import Polynomial
from .roots import RootSet

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SylvesterMatrix:
    entries: np.ndarray
    N: int
    K: int

    @property
    def size(self) -> int:
        return self.N + self.K


@dataclass
class BezoutSolution:
    R: Polynomial
    S: Polynomial
    residual: float
    backend: str
    bound_report: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "R": self.R.to_json_dict(),
            "S": self.S.to_json_dict(),
            "residual": self.residual,
            "backend": self.backend,
        }
        if self.bound_report is not None:
            out["bound_report"] = self.bound_report
        return out


def build(A: Polynomial, B: Polynomial) -> SylvesterMatrix:
    """Sylvester matrix of the pair; degrees are taken after normalize()."""
    An, Bn = A.normalize(), B.normalize()
    n, k = An.degree, Bn.degree
    if n < 1 or k < 1:
        raise ConstantPolynomialError("both polynomials must be nonconstant")
    m = np.zeros((n + k, n + k), dtype=complex)
    for c in range(k):
        for i in range(n + 1):
            m[c + i, c] = An.coeff(i)
    for c in range(n):
        for i in range(k + 1):
            m[c + i, k + c] = Bn.coeff(i)
    return SylvesterMatrix(entries=m, N=n, K=k)


def _rhs_vector(M: SylvesterMatrix, P: Polynomial) -> np.ndarray:
    size = M.size
    if P.degree > size - 1:
        raise ValueError(f"deg P = {P.degree} exceeds N+K-1 = {size - 1}")
    return np.array([P.coeff(i) for i in range(size)], dtype=complex)


def _factor(M: SylvesterMatrix):
    with warnings.catch_warnings():
        # singularity is detected below and raised as SingularSystemError
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(M.entries, check_finite=False)
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * diag.max():
        raise SingularSystemError(
            "Sylvester system is singular to working precision "
            "(the polynomials share a root)"
        )
    return lu, piv


def _refined_solve(M: SylvesterMatrix, lu_piv, b: np.ndarray, steps: int = 3) -> np.ndarray:
    """LU solve plus iterative refinement with clongdouble residuals."""
    x = lu_solve(lu_piv, b, check_finite=False)
    se = M.entries.astype(np.clongdouble)
    be = b.astype(np.clongdouble)
    best = x
    best_res = float(np.max(np.abs(be - se @ best.astype(np.clongdouble))))
    for _ in range(steps):
        if best_res == 0.0:
            break
        r = be - se @ best.astype(np.clongdouble)
        corr = lu_solve(lu_piv, r.astype(complex), check_finite=False)
        cand = best + corr
        res = float(np.max(np.abs(be - se @ cand.astype(np.clongdouble))))
        if res < best_res:
            best, best_res = cand, res
        else:
            break
    return best


def _pack(M: SylvesterMatrix, x: np.ndarray) -> tuple[Polynomial, Polynomial]:
    R = Polynomial(x[: M.K])
    S = Polynomial(x[M.K :])
    return R, S


def solve_rhs(M: SylvesterMatrix, A: Polynomial, B: Polynomial, P: Polynomial) -> BezoutSolution:
    """Minimal-degree (R, S) with A*R + B*S = P via the linear system."""
    b = _rhs_vector(M, P)
    x = _refined_solve(M, _factor(M), b)
    R, S = _pack(M, x)
    residual = (A * R + B * S - P).norm()
    return BezoutSolution(R=R, S=S, residual=residual, backend="sylvester")


def solve(A: Polynomial, B: Polynomial, P: Polynomial | None = None) -> BezoutSolution:
    """Convenience wrapper: build the matrix and solve (default P = 1)."""
    return solve_rhs(build(A, B), A, B, P if P is not None else Polynomial([1.0]))


class ResultantTriple(NamedTuple):
    det_value: complex
    product_via_roots_of_B: float  # |b_K|^N * prod |A(beta_j)|
    product_via_roots_of_A: float  # |a_N|^K * prod |B(alpha_i)|


def resultant(
    A: Polynomial, B: Polynomial, rootsA: RootSet, rootsB: RootSet
) -> ResultantTriple:
    """Determinant of the Sylvester matrix and the two root-product formulas
    for its modulus; all three magnitudes must agree for coprime inputs."""
    M = build(A, B)
    det = complex(np.linalg.det(M.entries))
    An, Bn = A.normalize(), B.normalize()
    a_lead = An.coeffs[An.degree]
    b_lead = Bn.coeffs[Bn.degree]
    via_b = abs(b_lead) ** M.N * float(np.prod([abs(A(b)) for b in rootsB.roots]))
    via_a = abs(a_lead) ** M.K * float(np.prod([abs(B(a)) for a in rootsA.roots]))
    return ResultantTriple(det, via_b, via_a)


def default_c3(n: int, k: int) -> float:
    """Aggregated constant from the chain of contour estimates. This is an
    explicit valid choice, not a published value; the tightness ratio is the
    meaningful output."""
    lmax = n + k + max(n, k) - 2
    c1 = (10.0 * math.pi / 3.0) * max(n**k, k**n) * (5.0 / 3.0) ** lmax * 3.0 ** (n + k)
    return max(n, k) * 2.0 ** (n + k + max(n, k) - 1) * c1


@dataclass
class InverseNormReport:
    max_entry_norm: float
    op_norm_1: float
    op_norm_2: float
    op_norm_inf: float
    M_ratio: float
    exponent: int
    delta: float
    C3: float
    bound_value: float
    tightness_ratio: float
    normalized_inputs: bool
    unnormalized_bound: float | None = None

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def inverse_norm_report(
    A: Polynomial,
    B: Polynomial,
    delta_value: float,
    C3: float | None = None,
) -> InverseNormReport:
    """Exact max-entry norm of the inverse (via N+K solves against the
    identity) against the degree- and leading-coefficient-driven bound.

    The certification norm is max-entry because the underlying estimate
    bounds entries; operator norms are included for convenience only.
    """
    if delta_value <= 0:
        raise ValueError("inverse-norm report requires delta > 0")
    M = build(A, B)
    lu_piv = _factor(M)
    inv = lu_solve(lu_piv, np.eye(M.size, dtype=complex), check_finite=False)
    max_entry = float(np.max(np.abs(inv)))

    An, Bn = A.normalize(), B.normalize()
    a_lead = abs(An.coeffs[An.degree])
    b_lead = abs(Bn.coeffs[Bn.degree])
    m_ratio = max(A.norm() / a_lead, B.norm() / b_lead)
    exponent = M.N + M.K + max(M.N, M.K) - 1
    c3 = default_c3(M.N, M.K) if C3 is None else float(C3)
    bound = c3 * m_ratio**exponent / delta_value**2
    ratio = max_entry * delta_value**2 / m_ratio**exponent

    max_norm = max(A.norm(), B.norm())
    normalized = max_norm <= 1 + 1e-12
    report = InverseNormReport(
        max_entry_norm=max_entry,
        op_norm_1=float(np.linalg.norm(inv, 1)),
        op_norm_2=float(np.linalg.norm(inv, 2)),
        op_norm_inf=float(np.linalg.norm(inv, np.inf)),
        M_ratio=m_ratio,
        exponent=exponent,
        delta=delta_value,
        C3=c3,
        bound_value=bound,
        tightness_ratio=ratio,
        normalized_inputs=normalized,
    )
    if not normalized:
        report.unnormalized_bound = bound * max_norm
    return report


def solve_monomial_all(A: Polynomial, B: Polynomial) -> list[BezoutSolution]:
    """Solutions for P = z^l, l = 0..N+K-1, sharing one factorization.

    The packed solution vectors are the columns of the inverse matrix.
    """
    M = build(A, B)
    lu_piv = _factor(M)
    out = []
    for ell in range(M.size):
        P = Polynomial.monomial(ell)
        x = _refined_solve(M, lu_piv, _rhs_vector(M, P))
        R, S = _pack(M, x)
        residual = (A * R + B * S - P).norm()
        out.append(BezoutSolution(R=R, S=S, residual=residual,
                                  backend="sylvester:monomial"))
    return out


def assemble_inverse(M: SylvesterMatrix, family: list[BezoutSolution]) -> np.ndarray:
    """Stack the monomial-family solution vectors into the inverse matrix."""
    cols = []
    for sol in family:
        cols.append(
            [sol.R.coeff(i) for i in range(M.K)] + [sol.S.coeff(i) for i in range(M.N)]
        )
    return np.array(cols, dtype=complex).T

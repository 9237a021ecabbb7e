"""Sylvester matrix: construction, linear-system backend, resultant checks,
and the inverse-norm conditioning report.

`build(A, B)` gives the pair's one system, a SylvesterMatrix that keeps A and
B as given, their degrees after normalize(), the entries, and the LU factors
with partial pivoting, computed at most once. `solve`, `resultant` and
`inverse_norm_report` all read that matrix, so a pair is built and factored
once however many of them it needs.

The matrix layout puts K shifted copies of A's coefficient column first and N
shifted copies of B's column after, so that S(A,B) @ [r_0..r_{K-1}, s_0..
s_{N-1}] is exactly the coefficient vector of A*R + B*S. `layout` builds it
for stacked coefficient rows too, which the ceiling calibration uses. The
inverse's columns are the solutions for P = z^l, l = 0..N+K-1, that is
solve(M, Polynomial.monomial(l)).

Solves use the LU factors plus iterative refinement with an
extended-precision residual; the refinement is what keeps ill-conditioned
instances (tiny separation) accurate to ~1e-12 relative instead of
eps * cond. The determinant is read from the same factors, as the product
of U's diagonal times the sign of the row permutation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import ConstantPolynomialError, SingularSystemError
from .poly import Polynomial
from .roots import RootSet


@dataclass(frozen=True)
class SylvesterMatrix:
    """The Sylvester system of one pair: A and B as given, N and K their
    degrees after normalize(), and the entries. The LU factors are computed
    on first use and kept."""

    A: Polynomial
    B: Polynomial
    N: int
    K: int
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.N + self.K

    @cached_property
    def _lu(self) -> tuple[np.ndarray, np.ndarray]:
        with warnings.catch_warnings():
            # a singular matrix is refused by _factor and has det 0 in
            # resultant; neither wants scipy's LinAlgWarning
            warnings.simplefilter("ignore")
            return lu_factor(self.entries, check_finite=False)


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


def layout(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Sylvester entries for coefficient rows ca (degree N) and cb (degree
    K), constant term first; leading axes, the same for both, are batch
    axes."""
    n, k = ca.shape[-1] - 1, cb.shape[-1] - 1
    m = np.zeros(ca.shape[:-1] + (n + k, n + k), dtype=complex)
    for c in range(k):
        m[..., c : c + n + 1, c] = ca
    for c in range(n):
        m[..., c : c + k + 1, k + c] = cb
    return m


def build(A: Polynomial, B: Polynomial) -> SylvesterMatrix:
    """Sylvester matrix of the pair; degrees are taken after normalize()."""
    An, Bn = A.normalize(), B.normalize()
    n, k = An.degree, Bn.degree
    if n < 1 or k < 1:
        raise ConstantPolynomialError("both polynomials must be nonconstant")
    m = layout(np.array(An.coeffs), np.array(Bn.coeffs))
    return SylvesterMatrix(A=A, B=B, N=n, K=k, entries=m)


def _factor(M: SylvesterMatrix):
    lu, piv = M._lu
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


def solve(M: SylvesterMatrix, P: Polynomial | None = None) -> BezoutSolution:
    """Minimal-degree (R, S) with A*R + B*S = P via the linear system
    (default P = 1)."""
    P = P if P is not None else Polynomial([1.0])
    if P.degree > M.size - 1:
        raise ValueError(f"deg P = {P.degree} exceeds N+K-1 = {M.size - 1}")
    b = np.array([P.coeff(i) for i in range(M.size)], dtype=complex)
    x = _refined_solve(M, _factor(M), b)
    R, S = Polynomial(x[: M.K]), Polynomial(x[M.K :])
    residual = (M.A * R + M.B * S - P).norm()
    return BezoutSolution(R=R, S=S, residual=residual, backend="sylvester")


class ResultantTriple(NamedTuple):
    det_value: complex
    product_via_roots_of_B: float  # |b_K|^N * prod |A(beta_j)|
    product_via_roots_of_A: float  # |a_N|^K * prod |B(alpha_i)|


def resultant(M: SylvesterMatrix, rootsA: RootSet, rootsB: RootSet) -> ResultantTriple:
    """Determinant of the Sylvester matrix and the two root-product formulas
    for its modulus; all three magnitudes must agree for coprime inputs. A
    singular matrix gives det 0."""
    lu, piv = M._lu
    swaps = np.count_nonzero(piv != np.arange(M.size))
    det = complex(np.prod(np.diag(lu)) * (-1) ** swaps)
    a_lead = M.A.coeff(M.N)
    b_lead = M.B.coeff(M.K)
    via_b = abs(b_lead) ** M.N * float(np.prod([abs(M.A(b)) for b in rootsB.roots]))
    via_a = abs(a_lead) ** M.K * float(np.prod([abs(M.B(a)) for a in rootsA.roots]))
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


def inverse_norm_report(M: SylvesterMatrix, delta_value: float) -> InverseNormReport:
    """Exact max-entry norm of the inverse (via N+K solves against the
    identity) against the degree- and leading-coefficient-driven bound.

    The certification norm is max-entry because the underlying estimate
    bounds entries; operator norms are included for convenience only.
    """
    if delta_value <= 0:
        raise ValueError("inverse-norm report requires delta > 0")
    inv = lu_solve(_factor(M), np.eye(M.size, dtype=complex), check_finite=False)
    max_entry = float(np.max(np.abs(inv)))

    A, B = M.A, M.B
    a_lead = abs(A.coeff(M.N))
    b_lead = abs(B.coeff(M.K))
    m_ratio = max(A.norm() / a_lead, B.norm() / b_lead)
    exponent = M.N + M.K + max(M.N, M.K) - 1
    c3 = default_c3(M.N, M.K)
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

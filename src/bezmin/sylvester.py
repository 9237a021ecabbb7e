"""The pair object, the Sylvester matrix's linear-system backend, resultant
checks, and the inverse-norm conditioning report.

`build(A, B)` gives the one Pair of an input pair: A and B as given, An and
Bn after normalize() with their degrees N and K, and the Sylvester entries.
The roots of A and B, delta's value and witness, and the LU factors with
partial pivoting are computed on first use and kept. Every layer of the
package (separation, the solvers, the reports, the contour metrics) reads
the same Pair, so no per-pair quantity is computed twice.

The matrix layout puts K shifted copies of A's coefficient column first and N
shifted copies of B's column after, so that S(A,B) @ [r_0..r_{K-1}, s_0..
s_{N-1}] is exactly the coefficient vector of A*R + B*S. `layout` builds it
for stacked coefficient rows too, which the ceiling calibration uses. The
inverse's columns are the solutions for P = z^l, l = 0..N+K-1, that is
solve(pair, Polynomial.monomial(l)).

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

from .errors import DegreeZeroError, SingularSystemError
from .poly import Polynomial
from .roots import RootSet, find_roots


@dataclass(frozen=True, eq=False)
class Pair:
    """One input pair: A and B as given, An and Bn after normalize() with
    degrees N and K, and the Sylvester entries. The roots, delta's value and
    witness, and the LU factors are computed on first use and kept."""

    A: Polynomial
    B: Polynomial
    An: Polynomial
    Bn: Polynomial
    N: int
    K: int
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.N + self.K

    @cached_property
    def rootsA(self) -> RootSet:
        return find_roots(self.A)

    @cached_property
    def rootsB(self) -> RootSet:
        return find_roots(self.B)

    @cached_property
    def delta_min(self) -> tuple[float, complex]:
        """delta's value, the min of |B| over the roots of A and |A| over the
        roots of B, and the first root where it is attained."""
        vals = [(abs(self.B(r)), r) for r in self.rootsA.roots]
        vals += [(abs(self.A(r)), r) for r in self.rootsB.roots]
        value, witness = min(vals, key=lambda t: t[0])
        return float(value), complex(witness)

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


def build(A: Polynomial, B: Polynomial) -> Pair:
    """The Pair of A and B; degrees are taken after normalize()."""
    An, Bn = A.normalize(), B.normalize()
    n, k = An.degree, Bn.degree
    if n < 1 or k < 1:
        # find_roots's error: a constant input fails the same way whether
        # the pair or its roots come first
        raise DegreeZeroError("cannot extract roots of a constant polynomial")
    m = layout(np.array(An.coeffs), np.array(Bn.coeffs))
    return Pair(A=A, B=B, An=An, Bn=Bn, N=n, K=k, entries=m)


def _factor(pair: Pair):
    lu, piv = pair._lu
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * diag.max():
        raise SingularSystemError(
            "Sylvester system is singular to working precision "
            "(the polynomials share a root)"
        )
    return lu, piv


def _refined_solve(pair: Pair, lu_piv, b: np.ndarray, steps: int = 3) -> np.ndarray:
    """LU solve plus iterative refinement with clongdouble residuals."""
    x = lu_solve(lu_piv, b, check_finite=False)
    se = pair.entries.astype(np.clongdouble)
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


def solve(pair: Pair, P: Polynomial | None = None) -> BezoutSolution:
    """Minimal-degree (R, S) with A*R + B*S = P via the linear system
    (default P = 1)."""
    P = P if P is not None else Polynomial([1.0])
    if P.degree > pair.size - 1:
        raise ValueError(f"deg P = {P.degree} exceeds N+K-1 = {pair.size - 1}")
    b = np.array([P.coeff(i) for i in range(pair.size)], dtype=complex)
    x = _refined_solve(pair, _factor(pair), b)
    R, S = Polynomial(x[: pair.K]), Polynomial(x[pair.K :])
    residual = (pair.A * R + pair.B * S - P).norm()
    return BezoutSolution(R=R, S=S, residual=residual, backend="sylvester")


class ResultantTriple(NamedTuple):
    det_value: complex
    product_via_roots_of_B: float  # |b_K|^N * prod |A(beta_j)|
    product_via_roots_of_A: float  # |a_N|^K * prod |B(alpha_i)|


def resultant(pair: Pair) -> ResultantTriple:
    """Determinant of the Sylvester matrix and the two root-product formulas
    for its modulus; all three magnitudes must agree for coprime inputs. A
    singular matrix gives det 0."""
    lu, piv = pair._lu
    swaps = np.count_nonzero(piv != np.arange(pair.size))
    det = complex(np.prod(np.diag(lu)) * (-1) ** swaps)
    A, B, n, k = pair.A, pair.B, pair.N, pair.K
    via_b = abs(B.coeff(k)) ** n * float(np.prod([abs(A(b)) for b in pair.rootsB.roots]))
    via_a = abs(A.coeff(n)) ** k * float(np.prod([abs(B(a)) for a in pair.rootsA.roots]))
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


def inverse_norm_report(pair: Pair, delta_value: float) -> InverseNormReport:
    """Exact max-entry norm of the inverse (via N+K solves against the
    identity) against the degree- and leading-coefficient-driven bound.

    The certification norm is max-entry because the underlying estimate
    bounds entries; operator norms are included for convenience only.
    """
    if delta_value <= 0:
        raise ValueError("inverse-norm report requires delta > 0")
    inv = lu_solve(_factor(pair), np.eye(pair.size, dtype=complex), check_finite=False)
    max_entry = float(np.max(np.abs(inv)))

    A, B, n, k = pair.A, pair.B, pair.N, pair.K
    m_ratio = max(A.norm() / abs(A.coeff(n)), B.norm() / abs(B.coeff(k)))
    exponent = n + k + max(n, k) - 1
    c3 = default_c3(n, k)
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

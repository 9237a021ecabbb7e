"""The pair object, the Sylvester matrix's linear-system backend, resultant
checks, and the inverse-norm conditioning report.

`build(A, B)` gives the one Pair of an input pair: A and B as given, An and
Bn after normalize() with their degrees N and K, and the Sylvester entries.
The roots of A and B, the values of B at the roots of A and of A at the
roots of B, delta (with its witness and the common-root test), and the
singular values of the Sylvester matrix are computed on first use and kept.
Every layer of the package (separation, the solvers, the reports, the
contour metrics) reads the same Pair, so no per-pair quantity is computed
twice: delta_min, resultant and the residue backend share the cross values,
every report that needs delta reads Pair.delta, and the sylvester and
reversed backends and the inverse-norm report share one singularity check.

The matrix layout puts K shifted copies of A's coefficient column first and N
shifted copies of B's column after, so that S(A,B) @ [r_0..r_{K-1}, s_0..
s_{N-1}] is exactly the coefficient vector of A*R + B*S. `layout` builds it
for stacked coefficient rows too, which the ceiling calibration uses. The
inverse's columns are the solutions for P = z^l, l = 0..N+K-1, that is
solve(pair, Polynomial.monomial(l)).

A matrix is refused as singular when its smallest singular value is at most
1e-14 times its largest, a test that does not depend on the scale of A and
B. The determinant is numpy.linalg.det (LAPACK getrf). Solves call
numpy.linalg.solve (LAPACK gesv, the same getrf and getrs pair) plus
iterative refinement with an extended-precision residual; the refinement is
what keeps ill-conditioned instances (tiny separation) accurate to ~1e-12
relative instead of eps * cond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CommonRootError, DegreeZeroError, SingularSystemError
from .poly import Polynomial
from .roots import RootSet, find_roots

# solve refines at most this often, stopping at a step that does not help
REFINE_STEPS = 3

COMMON_ROOT_REL = 1e-12


@dataclass(frozen=True, eq=False)
class Pair:
    """One input pair: A and B as given, An and Bn after normalize() with
    degrees N and K, and the Sylvester entries. The roots, the cross values,
    delta's value, witness and common-root threshold, and the singular values
    of the entries are computed on first use and kept."""

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
    def B_at_rootsA(self) -> list[complex]:
        """B at each root of A, in the order of rootsA.roots."""
        return [self.B(a) for a in self.rootsA.roots]

    @cached_property
    def A_at_rootsB(self) -> list[complex]:
        """A at each root of B, in the order of rootsB.roots."""
        return [self.A(b) for b in self.rootsB.roots]

    @cached_property
    def delta_min(self) -> tuple[float, complex, float | None]:
        """delta's value, the min of |B| over the roots of A and |A| over the
        roots of B; the first root where it is attained; and the common-root
        threshold it falls below, or None. |B| at a root of A scales with B
        alone, so A and B share a root when |B| there is below
        COMMON_ROOT_REL * norm(B), or |A| at a root of B below that of A."""
        sides = [
            (*min(zip(map(abs, values), roots.roots), key=lambda t: t[0]),
             COMMON_ROOT_REL * other.norm())
            for roots, values, other in ((self.rootsA, self.B_at_rootsA, self.B),
                                         (self.rootsB, self.A_at_rootsB, self.A))
        ]
        value, witness, _ = min(sides, key=lambda t: t[0])
        common = [threshold for side, _, threshold in sides if side < threshold]
        return value, witness, common[0] if common else None

    @cached_property
    def delta(self) -> float:
        """delta's value from delta_min; CommonRootError when A and B share
        a root, which every solver and report that needs delta refuses."""
        value, _, threshold = self.delta_min
        if threshold is not None:
            raise CommonRootError(
                f"delta = {value:.3e} below common-root threshold {threshold:.3e}"
            )
        return value

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the Sylvester entries, largest first."""
        return np.linalg.svd(self.entries, compute_uv=False)


@dataclass
class BezoutSolution:
    R: Polynomial
    S: Polynomial
    residual: float
    backend: str
    bound_report: dict | None = None

    @classmethod
    def checked(
        cls, pair: Pair, P: Polynomial, R: Polynomial, S: Polynomial, backend: str
    ) -> "BezoutSolution":
        """The solution (R, S) of A*R + B*S = P with its residual
        norm(A*R + B*S - P); every backend builds its result here."""
        residual = (pair.A * R + pair.B * S - P).norm()
        return cls(R=R, S=S, residual=residual, backend=backend)

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


def _factor(pair: Pair) -> None:
    """Refuse a Sylvester matrix whose smallest singular value is at most
    1e-14 times the largest."""
    sv = pair.singular_values
    if sv[-1] <= 1e-14 * sv[0]:
        raise SingularSystemError(
            "Sylvester system is singular to working precision "
            "(the polynomials share a root)"
        )


def _refined_solve(entries: np.ndarray, b: np.ndarray) -> np.ndarray:
    """entries^-1 b by solve plus up to REFINE_STEPS steps of iterative
    refinement with clongdouble residuals; each iterate's residual is
    computed once."""
    se = entries.astype(np.clongdouble)
    be = b.astype(np.clongdouble)
    best = np.linalg.solve(entries, b)
    r = be - se @ best.astype(np.clongdouble)
    best_res = float(np.max(np.abs(r)))
    for _ in range(REFINE_STEPS):
        if best_res == 0.0:
            break
        cand = best + np.linalg.solve(entries, r.astype(complex))
        r_cand = be - se @ cand.astype(np.clongdouble)
        res = float(np.max(np.abs(r_cand)))
        if res < best_res:
            best, best_res, r = cand, res, r_cand
        else:
            break
    return best


def right_hand_side(pair: Pair, P: Polynomial | None) -> Polynomial:
    """The right-hand side every backend solves for: P, or 1 when P is None.
    The minimal pair exists for deg P <= N+K-1 only."""
    if P is None:
        return Polynomial([1.0])
    if P.degree > pair.size - 1:
        raise ValueError(f"deg P = {P.degree} exceeds N+K-1 = {pair.size - 1}")
    return P


def solve(pair: Pair, P: Polynomial | None = None) -> BezoutSolution:
    """Minimal-degree (R, S) with A*R + B*S = P via the linear system
    (default P = 1)."""
    P = right_hand_side(pair, P)
    b = np.array([P.coeff(i) for i in range(pair.size)], dtype=complex)
    _factor(pair)
    x = _refined_solve(pair.entries, b)
    R, S = Polynomial(x[: pair.K]), Polynomial(x[pair.K :])
    return BezoutSolution.checked(pair, P, R, S, "sylvester")


class ResultantTriple(NamedTuple):
    det_value: complex
    product_via_roots_of_B: float  # |b_K|^N * prod |A(beta_j)|
    product_via_roots_of_A: float  # |a_N|^K * prod |B(alpha_i)|


def resultant(pair: Pair) -> ResultantTriple:
    """Determinant of the Sylvester matrix and the two root-product formulas
    for its modulus; all three magnitudes must agree for coprime inputs. A
    singular matrix gives det 0."""
    det = complex(np.linalg.det(pair.entries))
    A, B, n, k = pair.A, pair.B, pair.N, pair.K
    via_b = abs(B.coeff(k)) ** n * float(np.prod([abs(v) for v in pair.A_at_rootsB]))
    via_a = abs(A.coeff(n)) ** k * float(np.prod([abs(v) for v in pair.B_at_rootsA]))
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


def inverse_norm_report(pair: Pair) -> InverseNormReport:
    """Exact max-entry norm of the inverse (via N+K solves against the
    identity) against the degree- and leading-coefficient-driven bound at
    the pair's delta.

    The certification norm is max-entry because the underlying estimate
    bounds entries; operator norms are included for convenience only.
    """
    delta = pair.delta
    _factor(pair)
    inv = np.linalg.inv(pair.entries)
    max_entry = float(np.max(np.abs(inv)))

    A, B, n, k = pair.A, pair.B, pair.N, pair.K
    m_ratio = max(A.norm() / abs(A.coeff(n)), B.norm() / abs(B.coeff(k)))
    exponent = n + k + max(n, k) - 1
    c3 = default_c3(n, k)
    bound = c3 * m_ratio**exponent / delta**2
    ratio = max_entry * delta**2 / m_ratio**exponent

    max_norm = max(A.norm(), B.norm())
    normalized = max_norm <= 1 + 1e-12
    report = InverseNormReport(
        max_entry_norm=max_entry,
        op_norm_1=float(np.linalg.norm(inv, 1)),
        op_norm_2=float(1.0 / pair.singular_values[-1]),
        op_norm_inf=float(np.linalg.norm(inv, np.inf)),
        M_ratio=m_ratio,
        exponent=exponent,
        delta=delta,
        C3=c3,
        bound_value=bound,
        tightness_ratio=ratio,
        normalized_inputs=normalized,
    )
    if not normalized:
        report.unnormalized_bound = bound * max_norm
    return report

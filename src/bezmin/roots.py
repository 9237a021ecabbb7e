"""Root extraction with residual certificates and multiplicity flags.

Roots come from the eigenvalues of the companion matrix (LAPACK balances it
before the QR iteration) and are then polished with a few Newton steps, root
by root on Python complex numbers: at degree <= ~32 a numpy call per step
costs more than its arithmetic. A root's residual is |p| at its last kept
Newton point. Every downstream quantity in the package (separation, contours,
interpolation) consumes the RootSet produced here, so residuals and cluster
flags are recorded explicitly rather than trusted implicitly.
`companion_roots` also serves stacked coefficient rows, which the ceiling
calibration uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeZeroError
from .poly import Polynomial

DEFAULT_RESIDUAL_TOL = 1e-9
CLUSTER_TOL_FACTOR = 1e-7


@dataclass(frozen=True)
class RootSet:
    """All roots of one polynomial plus the certificates downstream code needs.

    residuals[i] = |p(roots[i])|. The set is `verified` when every residual is
    below DEFAULT_RESIDUAL_TOL * norm(p) * (1 + |root|)**degree. Roots closer to
    each other than the cluster tolerance are flagged multiplicity_suspect;
    the interpolation backends refuse flagged sets, the Sylvester backend does
    not care.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    multiplicity_suspect: tuple[bool, ...]
    cauchy_bound: float
    verified: bool

    @property
    def any_suspect(self) -> bool:
        return any(self.multiplicity_suspect)

    def to_json_dict(self) -> dict:
        return {
            "roots": [[r.real, r.imag] for r in self.roots],
            "residuals": list(self.residuals),
            "multiplicity_suspect": list(self.multiplicity_suspect),
            "cauchy_bound": self.cauchy_bound,
            "verified": self.verified,
        }


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices of coefficient rows (constant
    first, nonzero leading coefficient last); leading axes are batch axes.

    LAPACK's zgeev balances each matrix (zgebal) before the QR iteration, so
    no balancing is done here.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[-1] - 1
    m = np.zeros(coeffs.shape[:-1] + (n, n), dtype=complex)
    m[..., 1:, :-1] = np.eye(n - 1)
    m[..., :, -1] = -(coeffs[..., :-1] / coeffs[..., -1:])
    return np.linalg.eigvals(m)


def _growth(modulus: float, n: int) -> float:
    """(1 + modulus)**n, inf where it leaves the float range."""
    try:
        return (1.0 + modulus) ** n
    except OverflowError:
        return math.inf


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of p, polished by three Newton steps, with residuals
    and cluster flags.

    The polish runs root by root on Python complex numbers. One Horner pass
    gives p and p' at a point, a step is kept only when it does not raise
    |p|, and the residual is |p| at the last kept point. Moduli come from
    math.hypot, because abs() of a complex raises OverflowError where the
    modulus overflows.

    Raises DegreeZeroError for constant input. A set whose polished residuals
    still exceed tolerance is returned with verified=False rather than raised,
    so callers can inspect it.
    """
    q = p.normalize()
    n = q.degree
    if n < 1:
        raise DegreeZeroError("cannot extract roots of a constant polynomial")
    cs = np.asarray(q.coeffs[: n + 1], dtype=complex)
    cauchy_bound = 1.0 + float(np.max(np.abs(cs))) / abs(cs[-1])

    # p and p' coefficient pairs from the top down; p' gets a zero on top
    terms = list(zip(reversed(p.coeffs), [0j, *reversed(p.derivative().coeffs)]))
    hypot = math.hypot

    def horner(z: complex) -> tuple[complex, complex, float]:
        v = d = 0j
        for c, dc in terms:
            v = v * z + c
            d = d * z + dc
        return v, d, hypot(v.real, v.imag)

    roots, residuals = [], []
    for r in companion_roots(cs).tolist():
        v, d, res = horner(r)
        for _ in range(3):
            # near multiple roots Newton may not help: a step that raises
            # |p| is refused, and then every later step would be the same
            cand = r - v / d if d else r
            cv, cd, cres = horner(cand)
            if not cres <= res:
                break
            r, v, d, res = cand, cv, cd, cres
        roots.append(r)
        residuals.append(res)

    cap = DEFAULT_RESIDUAL_TOL * p.norm()
    verified = all(
        res <= cap * _growth(hypot(r.real, r.imag), n)
        for r, res in zip(roots, residuals)
    )

    cluster_tol = CLUSTER_TOL_FACTOR * (1.0 + cauchy_bound)
    suspect = [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            gap = roots[i] - roots[j]
            if hypot(gap.real, gap.imag) < cluster_tol:
                suspect[i] = True
                suspect[j] = True

    order = sorted(range(n), key=lambda k: (roots[k].real, roots[k].imag))
    return RootSet(
        roots=tuple(roots[k] for k in order),
        residuals=tuple(residuals[k] for k in order),
        multiplicity_suspect=tuple(suspect[k] for k in order),
        cauchy_bound=cauchy_bound,
        verified=verified,
    )

"""Root extraction with residual certificates and multiplicity flags.

Roots come from the eigenvalues of the companion matrix (LAPACK balances it
before the QR iteration) and are then polished with a few Newton steps.
Every downstream quantity in the package (separation, contours,
interpolation) consumes the RootSet produced here, so residuals and cluster
flags are recorded explicitly rather than trusted implicitly.
`companion_roots` also serves stacked coefficient rows, which the ceiling
calibration uses.
"""

from __future__ import annotations

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


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of p, polished by three Newton steps, with residuals
    and cluster flags.

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
    roots = companion_roots(cs)

    dp = p.derivative()
    for _ in range(3):
        vals = p(roots)
        dvals = dp(roots)
        ok = np.abs(dvals) > 0
        step = np.zeros_like(roots)
        step[ok] = vals[ok] / dvals[ok]
        # reject steps that overshoot; near multiple roots Newton may not help
        cand = roots - step
        better = np.abs(p(cand)) <= np.abs(vals)
        roots = np.where(better, cand, roots)

    residuals = np.abs(p(roots))
    nrm = p.norm()
    caps = DEFAULT_RESIDUAL_TOL * nrm * (1.0 + np.abs(roots)) ** n
    verified = bool(np.all(residuals <= caps))

    cluster_tol = CLUSTER_TOL_FACTOR * (1.0 + cauchy_bound)
    suspect = [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < cluster_tol:
                suspect[i] = True
                suspect[j] = True

    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    residuals = residuals[order]
    suspect = [suspect[k] for k in order]

    return RootSet(
        roots=tuple(complex(r) for r in roots),
        residuals=tuple(float(r) for r in residuals),
        multiplicity_suspect=tuple(suspect),
        cauchy_bound=cauchy_bound,
        verified=verified,
    )


"""Output checks, independent of ``bezmin.poly``.

Each check appends to one ``Outcome``:

* ``failures`` ("kind: detail"): the pair missed a pinned tolerance, a certify check failed,
  or the command exited nonzero. Counted in ``failed``; never dropped.
* ``false_claims``: an output contradicts an independent recomputation of
  what it states (a reported residual, the Sylvester matrix, the minimal
  degrees, a certify exit 0 over aggregates outside the tolerances). Any
  false claim makes the run ``correct: false``.
* ``skipped``: an analytic backend returned ``error`` or was never reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

P = np.polynomial.polynomial
EPS = float(np.finfo(float).eps)
BACKENDS = ("sylvester", "residue", "quadrature", "reversed")


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    false_claims: list[str] = field(default_factory=list)
    skipped: bool = False
    agreement: float | None = None


def coeffs(poly: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in poly["coeffs"]])


def sylvester_matrix(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """K shifted columns of A, then N shifted columns of B (bezmin layout)."""
    n, k = len(ca) - 1, len(cb) - 1
    m = np.zeros((n + k, n + k), dtype=complex)
    for c in range(k):
        m[c : c + n + 1, c] = ca
    for c in range(n):
        m[c : c + k + 1, k + c] = cb
    return m


def _pad_diff(x: np.ndarray, y: np.ndarray) -> float:
    n = max(len(x), len(y))
    return float(np.max(np.abs(np.pad(x, (0, n - len(x))) - np.pad(y, (0, n - len(y))))))


def check_solve(ca, cb, rc: int, doc: dict | None, tol: dict, out: Outcome) -> None:
    """``bezmin --json solve A B --backend all`` for the pair (ca, cb)."""
    if rc != 0 or doc is None:
        out.failures.append(f"solve exit: {rc}")
        out.skipped = True
        return
    n, k = len(ca) - 1, len(cb) - 1
    sols = {}
    for name in BACKENDS:
        res = doc.get(name)
        if res is None or "error" in res:
            if name == "sylvester":
                out.failures.append("sylvester error: solve")
            else:
                out.skipped = True
            continue
        R, S = coeffs(res["R"]), coeffs(res["S"])
        if len(R) != k or len(S) != n:
            out.false_claims.append(f"{name}: deg R, S not minimal")
            continue
        resid_vec = P.polyadd(P.polymul(ca, R), P.polymul(cb, S))
        resid_vec[0] -= 1.0
        resid = float(np.max(np.abs(resid_vec)))
        # rounding in either recomputation is below a few eps times the
        # magnitude of the summed products
        slack = 1e3 * EPS * (
            1.0 + np.sum(np.abs(ca)) * np.sum(np.abs(R))
            + np.sum(np.abs(cb)) * np.sum(np.abs(S))
        )
        if abs(resid - res["residual"]) > slack:
            out.false_claims.append(
                f"{name}: reported residual {res['residual']:.3e}, "
                f"recomputed {resid:.3e}"
            )
        if resid > tol["residual"]:
            out.failures.append(f"{name} residual: {resid:.2e}")
        bound = res.get("bound_report") or {}
        if bound.get("passed") is False:
            out.failures.append(f"{name} ratio ceiling: above")
        sols[name] = (R, S)
    names = list(sols)
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            worst = max(
                worst,
                _pad_diff(sols[a][0], sols[b][0]),
                _pad_diff(sols[a][1], sols[b][1]),
            )
    if len(names) > 1:
        out.agreement = worst
        if worst > tol["agreement"]:
            out.failures.append(f"agreement: {worst:.2e}")


def check_sylvester(ca, cb, rc: int, doc: dict | None, tol: dict, out: Outcome) -> None:
    """``bezmin --json sylvester A B`` for the pair (ca, cb)."""
    if rc != 0 or doc is None:
        out.failures.append(f"sylvester exit: {rc}")
        return
    m = sylvester_matrix(ca, cb)
    got = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    if got.shape != m.shape or not np.array_equal(got, m):
        out.false_claims.append("sylvester matrix differs from the definition")
        return
    res = doc["resultant"]
    det = np.linalg.det(m)
    if abs(complex(*res["det"]) - det) > 1e-9 * max(abs(det), 1e-300):
        out.false_claims.append("determinant differs from numpy's")
    mod = abs(det)
    spread = max(
        abs(mod - res["product_via_roots_of_B"]),
        abs(mod - res["product_via_roots_of_A"]),
    ) / max(mod, 1e-300)
    if spread > tol["resultant"]:
        out.failures.append(f"resultant spread: {spread:.2e}")


def check_certify(rc: int, report: dict | None, tol: dict, out: Outcome) -> list[dict]:
    """One ``bezmin certify`` call; returns its records."""
    if report is None:
        out.failures.append(f"certify exit: {rc}, no report")
        return []
    records = report["records"]
    agg = report["aggregates"]
    failed_checks = sorted(
        {name for r in records for name, ok in r["checks"].items() if ok is False}
    )
    out.failures.extend(f"certify check {name}: failed" for name in failed_checks)
    within = all(
        agg[key] is None or agg[key] <= tol[name]
        for key, name in (
            ("max_residual_sylvester", "residual"),
            ("max_agreement", "agreement"),
            ("max_resultant_spread", "resultant"),
        )
    )
    if rc == 0 and (failed_checks or not within):
        out.false_claims.append("certify exit 0 with failed checks or aggregates")
    if rc != 0:
        out.failures.append(f"certify exit: {rc}")
    if not within:
        out.failures.append("certify aggregates: outside tolerances")
    agreements = [r["agreement"] for r in records if "agreement" in r]
    if agreements:
        out.agreement = max(agreements)
    out.skipped = any("quadrature" not in r["backends"] for r in records)
    return records

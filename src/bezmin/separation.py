"""Separation quantities for a coprime pair (A, B).

delta(pair) is the min of |B| over the roots of A and |A| over the roots of
B. delta_tilde(pair) is the global minimum over the plane of max(|A(z)|,
|B(z)|); it cannot be certified cheaply, so it is reported as a bracket: a
rigorous lower bound delta / 3**max(N, K) from the sub-level separation
result, and an upper bound from a multistart Nelder-Mead descent. The descent
advances all seeds together through one vectorised simplex loop that follows
scipy's non-adaptive Nelder-Mead rule seed by seed. All of them read the
roots, degrees and delta's value from the Pair, which computes each once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommonRootError, SeparationViolation
from .roots import find_roots
from .sylvester import Pair

ZERO_THRESHOLD_FACTOR = 1e-12
SANDWICH_TOL = 1e-9


@dataclass
class DeltaReport:
    delta: float
    argmin_witness: complex
    delta_tilde_lower: float | None = None
    delta_tilde_upper: float | None = None
    tilde_witness: complex | None = None
    sandwich_ok: bool | None = None
    common_root: bool = False

    def to_json_dict(self) -> dict:
        def c(z):
            return None if z is None else [z.real, z.imag]

        return {
            "delta": self.delta,
            "argmin_witness": c(self.argmin_witness),
            "delta_tilde_lower": self.delta_tilde_lower,
            "delta_tilde_upper": self.delta_tilde_upper,
            "tilde_witness": c(self.tilde_witness),
            "sandwich_ok": self.sandwich_ok,
            "common_root": self.common_root,
        }


def delta(pair: Pair) -> DeltaReport:
    """Exact-by-construction min over roots; raises CommonRootError when the
    value underflows the zero threshold (downstream solvers must refuse)."""
    value, witness = pair.delta_min
    threshold = ZERO_THRESHOLD_FACTOR * max(pair.A.norm(), pair.B.norm())
    report = DeltaReport(delta=value, argmin_witness=witness,
                         common_root=value < threshold)
    if report.common_root:
        raise CommonRootError(
            f"delta = {value:.3e} below common-root threshold {threshold:.3e}",
            report=report,
        )
    return report


# scipy's non-adaptive Nelder-Mead rule: reflection, expansion, contraction
# and shrink coefficients, the initial simplex offsets, and the per-run stop
# test (maxiter 50 allows 49 steps).
_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
_MAXITER = 50
_XATOL, _FATOL = 1e-12, 1e-14
# a run's result restarts the descent while it gains at least _RESTART_TOL,
# up to _MAX_RESTARTS runs per seed
_RESTART_TOL = 1e-10
_MAX_RESTARTS = 8
# candidates a * xbar - b * worst: reflect, expand, outside and inside
# contraction (columns 3..6 of the working array)
_CAND_A = np.array([1 + _RHO, 1 + _RHO * _CHI, 1 + _PSI * _RHO, 1 - _PSI])
_CAND_B = np.array([_RHO, _RHO * _CHI, _PSI * _RHO, -_PSI])


@dataclass
class DescentStats:
    """Work done by one delta_tilde descent: simplex steps summed over seeds,
    and objective evaluations (points at which max(|A|, |B|) was computed)."""

    steps: int = 0
    evals: int = 0


def _grid_seeds(radius: float, n_rings: int, n_angles: int) -> list[complex]:
    seeds = [0j]
    for k in range(n_rings):
        r = radius * np.sqrt((k + 0.5) / n_rings)
        for m in range(n_angles):
            theta = 2 * np.pi * (m + 0.5 * (k % 2)) / n_angles
            seeds.append(r * np.exp(1j * theta))
    return seeds


def _descent_seeds(pair: Pair, n_rings: int, n_angles: int) -> np.ndarray:
    """Roots of A, B, A', B', then the polar grid over the joint Cauchy disk."""
    rootsA, rootsB = pair.rootsA, pair.rootsB
    seeds: list[complex] = list(rootsA.roots) + list(rootsB.roots)
    for q in (pair.A.derivative(), pair.B.derivative()):
        qn = q.normalize()
        if qn.degree >= 1:
            seeds.extend(find_roots(qn).roots)
    radius = max(rootsA.cauchy_bound, rootsB.cauchy_bound)
    seeds.extend(_grid_seeds(radius, n_rings, n_angles))
    return np.array(seeds, dtype=complex)


class _MaxModulus:
    """max(|A(z)|, |B(z)|) on an array of points, by in-place Horner on both
    polynomials at once (the shorter coefficient vector is zero-padded)."""

    def __init__(self, pair: Pair):
        A, B = pair.A, pair.B
        size = max(len(A.coeffs), len(B.coeffs))
        table = np.zeros((size, 2), dtype=complex)
        table[: len(A.coeffs), 0] = A.coeffs
        table[: len(B.coeffs), 1] = B.coeffs
        self._columns = [c.reshape(2, 1, 1) for c in table[::-1]]
        self.evals = 0

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """z has shape (rows, cols); returns the objective with that shape."""
        self.evals += z.size
        acc = np.empty((2,) + z.shape, dtype=complex)
        acc[...] = self._columns[0]
        for c in self._columns[1:]:
            acc *= z
            acc += c
        mod = np.abs(acc)
        return np.maximum(mod[0], mod[1])


def _initial_vertices(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two vertices scipy adds to x0: one coordinate scaled by 1.05, or
    set to 0.00025 where it is zero."""
    v1 = x.copy()
    v2 = x.copy()
    v1.real = np.where(x.real != 0, (1 + _NONZDELT) * x.real, _ZDELT)
    v2.imag = np.where(x.imag != 0, (1 + _NONZDELT) * x.imag, _ZDELT)
    return v1, v2


def _batched_nelder_mead(
    f: _MaxModulus, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Restarted Nelder-Mead from every seed at once; returns each seed's best
    value and point, and the number of steps taken over all seeds.

    Each seed follows scipy's non-adaptive rule step for step: a run stops
    when its vertices are within xatol and their values within fatol, or
    after 49 steps. A run's result is kept, and the descent restarted from
    it, while it gains at least _RESTART_TOL, up to _MAX_RESTARTS runs.

    Row i of the working arrays z (points) and fz (values) holds seed i's
    simplex, sorted by value, in columns 0..2, and the step's candidates in
    3..8: reflect, expand, outside and inside contraction, and the two shrink
    points. A seed starting a run puts its new vertices in the shrink
    columns. All candidates are evaluated in one pass; a gather then builds
    each next simplex from the columns scipy's branches would have kept, in
    scipy's order, and a stable sort orders it. Seeds whose last run has
    ended are dropped from the working arrays.
    """
    n = len(seeds)
    x = seeds.copy()
    z = np.zeros((n, 9), dtype=complex)
    fz = np.zeros((n, 9))
    z[:, 0] = x
    fz[:, 0] = val = f(x[:, None])[:, 0]
    restart = np.ones(n, dtype=bool)  # every seed starts its first run
    run = np.zeros(n, dtype=int)
    it = np.zeros(n, dtype=int)
    orig = np.arange(n)
    best_val = np.empty(n)
    best_z = np.empty(n, dtype=complex)
    steps = 0
    cols = np.zeros((n, 3), dtype=int)
    base9 = 9 * np.arange(n)[:, None]
    base3 = 3 * np.arange(n)[:, None]

    while True:
        s0, worst = z[:, 0], z[:, 2]
        xbar = (s0 + z[:, 1]) / 2
        z[:, 3:7] = xbar[:, None] * _CAND_A - worst[:, None] * _CAND_B
        z[:, 7:9] = s0[:, None] + _SIGMA * (z[:, 1:3] - s0[:, None])
        if restart.any():
            z[restart, 7], z[restart, 8] = _initial_vertices(z[restart, 0])
        fz[:, 3:] = f(z[:, 3:])

        f0, f1, f2 = fz[:, 0], fz[:, 1], fz[:, 2]
        fr, fe, fc, fcc = fz[:, 3], fz[:, 4], fz[:, 5], fz[:, 6]
        # column replacing the worst vertex; 0 where scipy shrinks
        new = np.where(
            fr < f0, np.where(fe < fr, 4, 3), np.where(
                fr < f1, 3, np.where(
                    fr < f2, np.where(fc <= fr, 5, 0), np.where(fcc < f2, 6, 0)
                )
            )
        )
        fresh = (new == 0) | restart
        cols[:, 1] = np.where(fresh, 7, 1)
        cols[:, 2] = np.where(fresh, 8, new)
        flat = cols + base9
        order = fz.take(flat).argsort(axis=1, kind="stable")
        flat = flat.take(order + base3)
        z[:, :3] = z.take(flat)
        fz[:, :3] = fz.take(flat)
        it += 1

        # scipy tests each coordinate (real and imaginary part) separately
        dz = (z[:, 1:3] - z[:, :1]).view(float)
        z_close = np.maximum.reduce(np.abs(dz), axis=1) <= _XATOL
        df = fz[:, 1:3] - fz[:, :1]
        f_close = np.maximum.reduce(np.abs(df), axis=1) <= _FATOL
        done = (it >= _MAXITER) | (z_close & f_close)
        if not done.any():
            restart[:] = False
            continue
        steps += int(np.sum(it[done] - 1))
        fun = fz[:, 0]
        gain = done & (fun <= val - _RESTART_TOL)
        take = gain | (done & (fun < val))
        val = np.where(take, fun, val)
        x = np.where(take, z[:, 0], x)
        restart = gain & (run + 1 < _MAX_RESTARTS)
        run += restart
        it[restart] = 0
        finish = done & ~restart
        if finish.any():
            best_val[orig[finish]] = val[finish]
            best_z[orig[finish]] = x[finish]
            keep = ~finish
            if not keep.any():
                break
            z, fz, x, val = z[keep], fz[keep], x[keep], val[keep]
            restart, run, it, orig = restart[keep], run[keep], it[keep], orig[keep]
            m = len(orig)
            cols, base9, base3 = cols[:m], base9[:m], base3[:m]

    return best_val, best_z, steps


def delta_tilde(
    pair: Pair,
    n_rings: int = 5,
    n_angles: int = 10,
    stats: DescentStats | None = None,
) -> tuple[float, float, complex]:
    """Bracket (lower, upper) for the global min of max(|A|, |B|) plus the
    argmin of the upper search.

    Seeds: all roots of A, B, A', B' and a polar grid over the joint Cauchy
    disk. All seeds run derivative-free simplex descent together (the
    objective is not smooth at the zeros), each restarted until its gains
    fall below _RESTART_TOL. Ties between seeds go to the first. When `stats`
    is given, the descent's step and evaluation counts are added to it.
    """
    dval, _ = pair.delta_min
    lower = max(dval / 3.0 ** max(pair.N, pair.K), 0.0)

    seeds = _descent_seeds(pair, n_rings, n_angles)
    f = _MaxModulus(pair)
    vals, points, steps = _batched_nelder_mead(f, seeds)
    if stats is not None:
        stats.steps += steps
        stats.evals += f.evals
    best = int(np.argmin(vals))
    return lower, float(vals[best]), complex(points[best])


def delta_report(pair: Pair) -> DeltaReport:
    """Full report: delta, the delta-tilde bracket, and the sandwich flag.

    Unlike delta(), a common root is reported (delta ~ 0) instead of raised.
    """
    try:
        report = delta(pair)
    except CommonRootError as exc:
        report = exc.report
    lower, upper, witness = delta_tilde(pair)
    report.delta_tilde_lower = lower
    report.delta_tilde_upper = upper
    report.tilde_witness = witness
    report.sandwich_ok = bool(
        lower - SANDWICH_TOL <= upper <= report.delta + SANDWICH_TOL
    )
    return report


@dataclass(frozen=True)
class SeparationReport:
    n_samples: int
    hits_a: int
    hits_b: int
    joint_hits: int
    eps_a: float
    eps_b: float


def _scrambled_halton(n: int, seed: int) -> np.ndarray:
    """n points of the 2-d Halton sequence (bases 2 and 3) in [0, 1)^2, each
    digit mapped through a random permutation drawn per base and digit
    position."""
    rng = np.random.default_rng(seed)
    index = np.arange(n)
    out = np.zeros((n, 2))
    for dim, base in enumerate((2, 3)):
        n_digits = 1
        while base**n_digits < n:
            n_digits += 1
        for pos in range(n_digits):
            digit = (index // base**pos) % base
            out[:, dim] += rng.permutation(base)[digit] / float(base) ** (pos + 1)
    return out


def check_separation(
    pair: Pair, delta_value: float, n_samples: int, seed: int = 0
) -> SeparationReport:
    """Sample the plane and verify the sub-level sets L(A, delta/3^N) and
    L(B, delta/3^K) never intersect.

    Sampling mixes a Halton set over the joint Cauchy disk with rings around
    every root at the separation-relevant scale. A joint hit is a numerical
    bug (the sets are provably disjoint), so it raises SeparationViolation.
    """
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    if A.norm() > 1 + 1e-12 or B.norm() > 1 + 1e-12:
        raise ValueError("separation check requires norm(A), norm(B) <= 1")
    if delta_value <= 0:
        raise ValueError("separation check requires delta > 0")

    eps_a = delta_value / 3.0**pair.N
    eps_b = delta_value / 3.0**pair.K

    radius = max(rootsA.cauchy_bound, rootsB.cauchy_bound)
    n_disk = max(1, int(0.7 * n_samples))
    uv = _scrambled_halton(n_disk, seed)
    pts_disk = radius * np.sqrt(uv[:, 0]) * np.exp(2j * np.pi * uv[:, 1])

    ring_pts: list[np.ndarray] = []
    all_roots = [(r, rootsB.roots) for r in rootsA.roots]
    all_roots += [(r, rootsA.roots) for r in rootsB.roots]
    n_rings = 8
    budget = n_samples - n_disk
    per_ring = max(4, budget // max(1, len(all_roots) * n_rings))
    for root, others in all_roots:
        d_near = min(abs(root - o) for o in others)
        if d_near == 0:
            d_near = 1e-3 * (1.0 + radius)
        radii = d_near * np.geomspace(1e-3, 1.5, n_rings)
        for i, r in enumerate(radii):
            ang = 2 * np.pi * (np.arange(per_ring) + 0.37 * i) / per_ring
            ring_pts.append(root + r * np.exp(1j * ang))
    pts = np.concatenate([pts_disk] + ring_pts) if ring_pts else pts_disk

    in_a = np.abs(A(pts)) < eps_a
    in_b = np.abs(B(pts)) < eps_b
    joint = int(np.count_nonzero(in_a & in_b))
    report = SeparationReport(
        n_samples=len(pts),
        hits_a=int(np.count_nonzero(in_a)),
        hits_b=int(np.count_nonzero(in_b)),
        joint_hits=joint,
        eps_a=eps_a,
        eps_b=eps_b,
    )
    if joint:
        bad = pts[in_a & in_b][0]
        raise SeparationViolation(
            f"{joint} joint sub-level hits (first at {bad:.6g}); "
            "this indicates a numerical bug"
        )
    return report

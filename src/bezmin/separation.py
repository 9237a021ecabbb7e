"""Separation quantities for a coprime pair (A, B).

delta, the min of |B| over the roots of A and |A| over the roots of B, lives
on the Pair: Pair.delta_min gives its value, witness and common-root test,
and Pair.delta its value, refusing a common root. delta_tilde(pair) is the
global minimum over the plane of max(|A(z)|, |B(z)|); it cannot be certified
cheaply, so it is reported as a bracket: a rigorous lower bound
delta / 3**max(N, K) from the sub-level separation result, and an upper
bound from a multistart descent. The minimiser lies on |A| = |B| where the
two gradients are opposed, so the descent is damped Newton on that minimax
condition, with a root step toward the zeros of the larger polynomial while
a seed is far from the curve. All seeds advance together through one
vectorised loop, and a seed only moves where max(|A|, |B|) falls. It has no
derivative-free fallback: on 2,083 certify pairs its upper end was never
above that of the restarted Nelder-Mead descent it replaced. All of them
read the roots, degrees and delta from the Pair, which computes each once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeparationViolation
from .poly import Stack
from .roots import find_roots
from .sylvester import Pair


@dataclass
class DeltaReport:
    delta: float
    argmin_witness: complex
    delta_tilde_lower: float
    delta_tilde_upper: float
    tilde_witness: complex
    sandwich_ok: bool
    common_root: bool

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "argmin_witness": [self.argmin_witness.real, self.argmin_witness.imag],
            "delta_tilde_lower": self.delta_tilde_lower,
            "delta_tilde_upper": self.delta_tilde_upper,
            "tilde_witness": [self.tilde_witness.real, self.tilde_witness.imag],
            "sandwich_ok": self.sandwich_ok,
            "common_root": self.common_root,
        }


# Damped Newton on the minimax condition F(z) = 0 (see delta_tilde). Each
# iteration tries three steps: the Newton step d, its reverse -d, and the
# root step of the larger of A and B. Each is capped at the seed's trust
# radius and tried at the fractions _FRACTIONS of its length. The radius
# starts at the joint Cauchy radius and shrinks by _SHRINK whenever no
# candidate lowers max(|A|, |B|). A seed stops when both components of F are
# below _F_TOL relative to their terms, when its radius falls below
# _RADIUS_TOL times 1 + |z|, or after _NEWTON_STEPS iterations.
_FRACTIONS = np.array([1.0, 0.5, 0.25, 0.125]).reshape(4, 1, 1)
_SHRINK = 16.0
_F_TOL = 1e-13
_RADIUS_TOL = 1e-15
_NEWTON_STEPS = 20


@dataclass
class DescentStats:
    """Work done by one delta_tilde descent: Newton iterations summed over
    seeds, objective evaluations (points at which max(|A|, |B|) was
    computed), and the seeds that stopped before |F| was small."""

    steps: int = 0
    evals: int = 0
    unconverged: int = 0


# the polar seed grid over the joint Cauchy disk: rings x angles
_RINGS, _ANGLES = 3, 8


def _grid_seeds(radius: float) -> list[complex]:
    seeds = [0j]
    for k in range(_RINGS):
        r = radius * np.sqrt((k + 0.5) / _RINGS)
        for m in range(_ANGLES):
            theta = 2 * np.pi * (m + 0.5 * (k % 2)) / _ANGLES
            seeds.append(r * np.exp(1j * theta))
    return seeds


def _cauchy_radius(pair: Pair) -> float:
    return max(pair.rootsA.cauchy_bound, pair.rootsB.cauchy_bound)


def _descent_seeds(pair: Pair) -> np.ndarray:
    """Roots of A, B, A', B', then the polar grid over the joint Cauchy disk."""
    seeds: list[complex] = list(pair.rootsA.roots) + list(pair.rootsB.roots)
    for p, degree in ((pair.An, pair.N), (pair.Bn, pair.K)):
        if degree >= 2:
            seeds.extend(find_roots(p.derivative()).roots)
    seeds.extend(_grid_seeds(_cauchy_radius(pair)))
    return np.array(seeds, dtype=complex)


def _newton_descent(
    jet: Stack, seeds: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Damped Newton from every seed at once on F(z) = (|A|^2 - |B|^2,
    Im(A B' conj(A' B))). Returns each seed's lowest max(|A|, |B|) and the
    point where it was reached, the iterations summed over seeds, and the
    number of seeds that stopped with F not small.

    A seed only moves to a candidate that lowers max(|A|, |B|), so its last
    point is its best. The Newton step d solves Re(2 dF_i/dz d) = -F_i for
    i = 1, 2, with the Wirtinger derivatives dF_i/dz in closed form from A''
    and B''. The root step goes to the nearer root of the larger
    polynomial's quadratic Taylor model; unlike -A/A', it stays defined at a
    critical point, such as a seed at a root of A'. A non-finite step is
    replaced by 0. Seeds that stop are dropped from the working arrays.
    """
    n = len(seeds)
    z = seeds.copy()
    jz = jet(z)
    g = np.maximum(np.abs(jz[0]), np.abs(jz[3]))
    best_val, best_z = np.empty(n), np.empty(n, dtype=complex)
    trust = np.full(n, radius)
    orig = np.arange(n)
    steps = unconverged = 0
    for _ in range(_NEWTON_STEPS):
        a, a1, a2, b, b1, b2 = jz
        ma2, mb2 = (a * a.conj()).real, (b * b.conj()).real
        u = ma2 - mb2
        p, q = a * b1, a1 * b
        w = p * q.conj()
        # F_2 = Im(w) is 0 where w is, so only F_1 counts there
        small = np.fmax(np.abs(u) / (ma2 + mb2), np.abs(w.imag) / np.abs(w)) <= _F_TOL
        keep = ~small & (trust > _RADIUS_TOL * (1 + np.abs(z)))
        if not keep.all():
            best_val[orig[~keep]] = g[~keep]
            best_z[orig[~keep]] = z[~keep]
            unconverged += int(np.count_nonzero(~keep & ~small))
            if not keep.any():
                return best_val, best_z, steps, unconverged
            z, g, trust, orig = z[keep], g[keep], trust[keep], orig[keep]
            jz, u, w, p, q = jz[:, keep], u[keep], w[keep], p[keep], q[keep]
            a, a1, a2, b, b1, b2 = jz
        m = len(z)
        steps += m

        du = a1 * a.conj() - b1 * b.conj()
        dv = ((a1 * b1 + a * b2) * q.conj() - p.conj() * (a2 * b + a1 * b1)) * -0.5j
        c0, c1, c2 = np.where(u >= 0, jz[:3], jz[3:])
        disc = np.sqrt(c1 * c1 - 2 * c0 * c2)
        den = np.where(np.abs(c1 + disc) >= np.abs(c1 - disc), c1 + disc, c1 - disc)
        step = np.empty((3, m), dtype=complex)
        step[0] = 0.5j * (u * dv.conj() - w.imag * du.conj()) / (du * dv.conj()).imag
        step[1] = -step[0]
        step[2] = -2 * c0 / den
        length = np.abs(step)
        step = np.where(length > trust, step * (trust / length), step)
        step[~np.isfinite(step)] = 0

        cand = (z + _FRACTIONS * step).reshape(-1, m)
        jc = jet(cand)
        gc = np.maximum(np.abs(jc[0]), np.abs(jc[3]))
        pick = gc.argmin(axis=0)
        cols = np.arange(m)
        lower = gc[pick, cols] < g
        z = np.where(lower, cand[pick, cols], z)
        g = np.where(lower, gc[pick, cols], g)
        jz = np.where(lower, jc[:, pick, cols], jz)
        trust = np.where(lower, trust, trust / _SHRINK)

    best_val[orig] = g
    best_z[orig] = z
    return best_val, best_z, steps, unconverged + len(z)


def delta_tilde(
    pair: Pair, stats: DescentStats | None = None
) -> tuple[float, float, complex]:
    """Bracket (lower, upper) for the global min of max(|A|, |B|) plus the
    argmin of the upper search.

    By the minimum-modulus principle |A| has no local minimum away from the
    zeros of A, so the global minimum lies on the curve |A| = |B|, where the
    gradients 2 A conj(A') and 2 B conj(B') point in opposite directions: it
    is a root of F(z) = (|A|^2 - |B|^2, Im(A B' conj(A' B))) (the minimax
    stationarity condition). Damped Newton on F runs from all seeds at once:
    the roots of A, B, A', B' and a polar grid over the joint Cauchy disk.
    Every evaluated point bounds the minimum from above; the lowest is kept,
    and ties between seeds go to the first. When `stats` is given, the
    descent's iteration, evaluation and unconverged-seed counts are added to
    it.
    """
    dval = pair.delta_min[0]
    lower = max(dval / 3.0 ** max(pair.N, pair.K), 0.0)

    dA, dB = pair.A.derivative(), pair.B.derivative()
    jet = Stack((pair.A, dA, dA.derivative(), pair.B, dB, dB.derivative()))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals, points, steps, unconverged = _newton_descent(
            jet, _descent_seeds(pair), _cauchy_radius(pair)
        )
    if stats is not None:
        stats.steps += steps
        stats.evals += jet.evals
        stats.unconverged += unconverged
    best = int(np.argmin(vals))
    return lower, float(vals[best]), complex(points[best])


def sandwich_holds(lower: float, upper: float, delta: float, tol: float) -> bool:
    """Whether lower <= upper <= delta, each within tol: the delta-tilde
    bracket sits below delta, as the paper's sandwich says it must."""
    return bool(lower - tol <= upper <= delta + tol)


def delta_report(pair: Pair, sandwich_tol: float) -> DeltaReport:
    """Full report: delta, the delta-tilde bracket, and the sandwich flag
    (sandwich_holds within sandwich_tol).

    Unlike Pair.delta, a common root is reported (delta ~ 0) instead of
    raised.
    """
    value, witness, threshold = pair.delta_min
    lower, upper, tilde_witness = delta_tilde(pair)
    return DeltaReport(
        delta=value,
        argmin_witness=witness,
        delta_tilde_lower=lower,
        delta_tilde_upper=upper,
        tilde_witness=tilde_witness,
        sandwich_ok=sandwich_holds(lower, upper, value, sandwich_tol),
        common_root=threshold is not None,
    )


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


# the sampling rings around each root, as multiples of the distance to the
# nearest root of the other polynomial
_RING_SCALES = np.geomspace(1e-3, 1.5, 8)


def check_separation(pair: Pair, n_samples: int, seed: int = 0) -> SeparationReport:
    """Sample the plane and verify the sub-level sets L(A, delta/3^N) and
    L(B, delta/3^K) never intersect, at the pair's delta.

    Sampling mixes a Halton set over the joint Cauchy disk with rings around
    every root at the separation-relevant scale. A joint hit is a numerical
    bug (the sets are provably disjoint), so it raises SeparationViolation.
    """
    A, B, rootsA, rootsB = pair.A, pair.B, pair.rootsA, pair.rootsB
    if A.norm() > 1 + 1e-12 or B.norm() > 1 + 1e-12:
        raise ValueError("separation check requires norm(A), norm(B) <= 1")

    eps_a = pair.delta / 3.0**pair.N
    eps_b = pair.delta / 3.0**pair.K

    radius = _cauchy_radius(pair)
    n_disk = max(1, int(0.7 * n_samples))
    uv = _scrambled_halton(n_disk, seed)
    pts_disk = radius * np.sqrt(uv[:, 0]) * np.exp(2j * np.pi * uv[:, 1])

    # root x ring x angle, the roots of A then of B
    ra, rb = np.array(rootsA.roots), np.array(rootsB.roots)
    dist = np.abs(ra[:, None] - rb)
    d_near = np.concatenate([dist.min(axis=1), dist.min(axis=0)])
    d_near[d_near == 0] = 1e-3 * (1.0 + radius)
    budget = n_samples - n_disk
    per_ring = max(4, budget // max(1, len(d_near) * len(_RING_SCALES)))
    ring = np.arange(len(_RING_SCALES))[:, None]
    ang = 2 * np.pi * (np.arange(per_ring) + 0.37 * ring) / per_ring
    rings = np.concatenate([ra, rb])[:, None, None] + (
        d_near[:, None] * _RING_SCALES
    )[:, :, None] * np.exp(1j * ang)
    pts = np.concatenate([pts_disk, rings.ravel()])

    in_a, in_b = np.abs(Stack((A, B))(pts)) < [[eps_a], [eps_b]]
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

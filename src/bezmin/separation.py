"""Separation quantities for a coprime pair (A, B).

delta, the min of |B| over the roots of A and |A| over the roots of B, lives
on the Pair: Pair.delta_min gives its value, witness and common-root test,
and Pair.delta its value, refusing a common root.

delta_tilde(pair) brackets the global minimum of max(|A(z)|, |B(z)|) over
the plane, and check_separation(pair) proves the paper's sub-level sets
L(A, delta/3^N) and L(B, delta/3^K) disjoint. Both run one box search
(_Taylor.search): from a square about 0 outside of which |A| or |B| stays
above the level searched, it quarters, level by level, each square that its
Taylor bounds leave undecided. The upper end of delta-tilde is polished by
damped Newton on the minimax condition. All of them read the roots, degrees
and delta from the Pair, which computes each once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SeparationViolation
from .poly import Polynomial, Stack

# unused: bench/test_bench.py counts the modules that bind find_roots
from .roots import find_roots  # noqa: F401
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


# A delta_tilde square is settled once its bound is within _PRUNE_REL of the
# best centre value. A search's last level is at depth _MAX_DEPTH - 1, or the
# first with more than _MAX_BOXES squares.
_PRUNE_REL = 1e-2
_MAX_DEPTH = 40
_MAX_BOXES = 4096
# the unit roundoff, and sqrt(2) rounded up (math.sqrt(2)**2 > 2)
_U = 2.0**-53
_SQRT2 = math.sqrt(2)
# the centres of a square's quarters, in half-widths of the square
_QUARTERS = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j]) / 2


def _cover_half_width(p: Polynomial, level: float) -> float:
    """Half-width of a square about 0 outside of which |p| > level, for a
    normalized p (a Pair's) whose last coefficient is a_n, n = deg p: the
    power of two at or above 3M, M = max_j (c_j/|a_n|)^(1/(n-j)) with
    c_0 = |a_0| + level, c_j = |a_j| for 0 < j < n. For |z| = t >= 3M,
    c_j t^j <= |a_n| t^n 3^(j-n), so sum_j c_j t^j < |a_n| t^n / 2 and
    |p(z)| > level; the factor 2 to spare dwarfs the rounding of M. A power
    of two keeps every centre of the search a dyadic number held exactly.
    It is 0 when no z has |p(z)| < level (level 0, p = a_n z^n)."""
    cs = np.abs(np.array(p.coeffs))
    n = len(cs) - 1
    cs[0] += level
    rho = 3 * np.max((cs[:n] / cs[n]) ** (1.0 / (n - np.arange(n))))
    return 2.0 ** math.ceil(math.log2(rho)) if rho > 0 else 0.0


class _Taylor:
    """The box search over the Taylor coefficients t_m(c) = p^(m)(c)/m!,
    m = 0..order, of A and B, from one Stack whose row m of p has the
    coefficients C(j, m) a_j, each rounded once. On the disk |z - c| <= r
    about a square, |p(z)| >= |t_0(c)| - sum_{m>=1} |t_m(c)| r^m - margin(r).

    The start square is the smaller cover of {|A| < level_a} and
    {|B| < level_b}, so |c| <= R = half sqrt(2) at every centre, and Horner's
    scheme evaluates row m there with an error below gamma_(2 order + 2)
    p~_m(R), p~_m having the moduli of the row's coefficients (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.6 and 5.1).
    So the margin gamma sum_m p~_m(R) r^m, one scalar per row per search,
    bounds every centre's error; gamma = 16 (order + 2) u also covers the
    rounding of the moduli, powers, sum and margin.
    """

    def __init__(self, pair: Pair, level_a: float, level_b: float):
        self.order = max(len(pair.A.coeffs), len(pair.B.coeffs), 3) - 1
        rows = [
            Polynomial([math.comb(j, m) * a for j, a in enumerate(p.coeffs)][m:] or [0])
            for p in (pair.A, pair.B)
            for m in range(self.order + 1)
        ]
        self.stack = Stack(rows)
        self.half = min(
            _cover_half_width(pair.A, level_a), _cover_half_width(pair.B, level_b)
        )
        R = self.half * _SQRT2
        moduli = [sum(abs(a) * R**i for i, a in enumerate(row.coeffs)) for row in rows]
        self.margin = 16 * (self.order + 2) * _U * np.array(moduli).reshape(2, -1)

    def search(self, decide) -> tuple[np.ndarray, np.ndarray]:
        """From the start square, quarter level by level the squares that
        decide(centres, vals, low, last) marks: vals and low hold |A| and |B|
        at the centres and their lower bounds on the squares, shape (2, n),
        and on the last level decide marks none. Returns the centres of the
        squares not quartered and their bounds on max(|A|, |B|). Half-widths
        are powers of two, so r = half * _SQRT2 is exact and >= the
        circumradius."""
        centres, half = np.zeros(1 if self.half else 0, dtype=complex), self.half
        settled, bounds = [np.empty(0, dtype=complex)], [np.empty(0)]
        for depth in range(_MAX_DEPTH):
            if not len(centres):
                break
            t = np.abs(self.stack(centres)).reshape(2, self.order + 1, -1)
            powers = (half * _SQRT2) ** np.arange(self.order + 1)
            low = t[:, 0] - powers[1:] @ t[:, 1:] - (self.margin @ powers)[:, None]
            last = depth == _MAX_DEPTH - 1 or len(centres) > _MAX_BOXES
            split = decide(centres, t[:, 0], low, last)
            settled.append(centres[~split])
            bounds.append(low.max(axis=0)[~split])
            centres, half = (centres[split, None] + half * _QUARTERS).ravel(), half / 2
        return np.concatenate(settled), np.concatenate(bounds)

    def jet(self, z: np.ndarray) -> np.ndarray:  # A, A', A''/2, B, B', B''/2
        return self.stack(z)[[0, 1, 2, self.order + 1, self.order + 2, self.order + 3]]


# Damped Newton on the minimax condition F(z) = 0 (see delta_tilde). Each
# iteration tries the Newton step at the fractions _FRACTIONS of its length.
# A seed stops when both components of F are below _F_TOL relative to their
# terms, when no candidate lowers max(|A|, |B|), or after _NEWTON_STEPS
# iterations.
_FRACTIONS = np.array([1.0, 0.5, 0.25, 0.125]).reshape(4, 1)
_F_TOL = 1e-13
_NEWTON_STEPS = 20


@dataclass
class DescentStats:
    """Work done by delta_tilde: Newton iterations summed over seeds, points
    where the Taylor table was evaluated (box centres and Newton points),
    seeds that stopped before |F| was small, and squares bounded."""

    steps: int = 0
    evals: int = 0
    unconverged: int = 0
    boxes: int = 0


def _newton_descent(jet, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Damped Newton from every seed at once on F(z) = (|A|^2 - |B|^2,
    Im(A B' conj(A' B))). `jet(z)` gives A, A', A''/2, B, B', B''/2 at z.
    Returns each seed's lowest max(|A|, |B|) and the point where it was
    reached, the iterations summed over seeds, and the number of seeds that
    stopped with F not small.

    A seed only moves to a candidate that lowers max(|A|, |B|), so its last
    point is its best, and it stops where none does; where F is small its
    step is 0. The Newton step d solves Re(2 dF_i/dz d) = -F_i for i = 1, 2,
    with the Wirtinger derivatives dF_i/dz in closed form from A'' and B''.
    A non-finite step is replaced by 0.
    """
    z = seeds.copy()
    jz = jet(z)
    g = np.maximum(np.abs(jz[0]), np.abs(jz[3]))
    live, small = np.arange(len(z)), np.zeros(len(z), dtype=bool)
    steps = 0
    for _ in range(_NEWTON_STEPS):
        a, a1, a2, b, b1, b2 = jz[:, live]
        ma2, mb2 = (a * a.conj()).real, (b * b.conj()).real
        u = ma2 - mb2
        p, q = a * b1, a1 * b
        w = p * q.conj()
        # F_2 = Im(w) is 0 where w is, so only F_1 counts there
        small[live] = np.fmax(np.abs(u) / (ma2 + mb2), np.abs(w.imag) / np.abs(w)) <= _F_TOL

        # a2 and b2 are half of A'' and B''
        du = a1 * a.conj() - b1 * b.conj()
        dv = ((a1 * b1 + 2 * a * b2) * q.conj() - p.conj() * (2 * a2 * b + a1 * b1)) * -0.5j
        step = 0.5j * (u * dv.conj() - w.imag * du.conj()) / (du * dv.conj()).imag
        step[small[live] | ~np.isfinite(step)] = 0

        cand = z[live] + _FRACTIONS * step
        jc = jet(cand)
        gc = np.maximum(np.abs(jc[0]), np.abs(jc[3]))
        pick, cols = gc.argmin(axis=0), np.arange(len(live))
        moved = gc[pick, cols] < g[live]
        steps += len(live)
        live, pick, cols = live[moved], pick[moved], cols[moved]
        z[live], g[live], jz[:, live] = cand[pick, cols], gc[pick, cols], jc[:, pick, cols]
        if not len(live):
            break
    return g, z, steps, int(np.count_nonzero(~small))


def delta_tilde(
    pair: Pair, stats: DescentStats | None = None
) -> tuple[float, float, complex]:
    """Certified lower and upper ends for the global min of max(|A|, |B|),
    and the point where the upper end is reached.

    The box search runs at level delta, max(|A|, |B|) at delta's witness
    root, where the best value U and point start. Each level lowers U to its
    lowest centre and settles each square whose bound is within _PRUNE_REL
    of U; the last level settles all. A point lies in a settled square or
    outside the start square, where max(|A|, |B|) > delta, so the smallest
    settled bound, or delta when lower, clamped at 0, is a lower end.

    By the minimum-modulus principle the minimum lies on the curve
    |A| = |B|, where the gradients of |A| and |B| are opposed: at a root of
    F(z) = (|A|^2 - |B|^2, Im(A B' conj(A' B))). Damped Newton on F runs from
    the best point and from the centre of each settled square whose bound is
    below U, the only squares that can hold a lower point; the lowest point
    reached is the upper end, ties going to the best point. `stats`, when
    given, gains the work counts.
    """
    upper, best = pair.delta_min[:2]
    taylor = _Taylor(pair, upper, upper)

    def settle(centres, vals, low, last):
        nonlocal upper, best
        f = vals.max(axis=0)
        i = int(f.argmin())
        if f[i] < upper:
            upper, best = float(f[i]), centres[i]
        return (not last) & (low.max(axis=0) < upper * (1 - _PRUNE_REL))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        centres, bound = taylor.search(settle)
        lower = max(float(np.min(bound, initial=pair.delta_min[0])), 0.0)
        seeds = np.concatenate([[best], centres[(bound < upper) & (centres != best)]])
        boxes = taylor.stack.evals
        vals, points, steps, unconverged = _newton_descent(taylor.jet, seeds)
    if stats is not None:
        stats.steps += steps
        stats.evals += taylor.stack.evals
        stats.unconverged += unconverged
        stats.boxes += boxes
    i = int(np.argmin(vals))
    return lower, float(vals[i]), complex(points[i])


def sandwich_holds(pair: Pair, lower: float, upper: float, tol: float) -> bool:
    """Whether delta / 3**max(N, K) <= lower <= upper <= delta, each step
    within tol: the paper's lower bound on delta-tilde sits below the
    certified lower end, and the bracket below delta."""
    delta = pair.delta_min[0]
    paper = delta / 3.0 ** max(pair.N, pair.K)
    return bool(paper - tol <= lower <= upper + tol and upper <= delta + tol)


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
        sandwich_ok=sandwich_holds(pair, lower, upper, sandwich_tol),
        common_root=threshold is not None,
    )


@dataclass(frozen=True)
class SeparationReport:
    n_samples: int
    eps_a: float
    eps_b: float


def check_separation(pair: Pair) -> SeparationReport:
    """Prove that the sub-level sets L(A, delta/3^N) and L(B, delta/3^K)
    are disjoint, at the pair's delta, by the box search: a square is
    dropped once the lower bound of |A| or |B| on it reaches its level.
    SeparationViolation is raised for a centre in both sets, a numerical bug
    as the sets are provably disjoint, and for squares left on the last
    level. `n_samples` counts the centres tested.
    """
    if pair.A.norm() > 1 + 1e-12 or pair.B.norm() > 1 + 1e-12:
        raise ValueError("separation check requires norm(A), norm(B) <= 1")

    eps_a, eps_b = pair.delta / 3.0**pair.N, pair.delta / 3.0**pair.K
    eps = np.array([[eps_a], [eps_b]])

    def drop(centres, vals, low, last):
        joint = (vals < eps).all(axis=0)
        if joint.any():
            raise SeparationViolation(
                f"{np.count_nonzero(joint)} box centres lie in both sub-level sets "
                f"(first at {centres[joint][0]:.6g}); this indicates a numerical bug"
            )
        split = (low < eps).all(axis=0)
        if last and split.any():
            raise SeparationViolation(
                f"{np.count_nonzero(split)} squares undecided on the last level "
                f"(first about {centres[split][0]:.6g}); disjointness is not proved"
            )
        return split

    taylor = _Taylor(pair, eps_a, eps_b)
    taylor.search(drop)
    return SeparationReport(n_samples=taylor.stack.evals, eps_a=eps_a, eps_b=eps_b)

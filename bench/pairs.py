"""Seeded input pairs for the solve workloads, made with numpy alone.

The generators do not call bezmin, so the inputs of a seed stay the same
whatever the program under test does. Coefficients are drawn uniformly from
the closed complex unit disk, as in ``bezmin.ensemble.random_polynomial``.

* ``d8``: degrees 6..8, pairwise-distinct roots in each polynomial and
  ``delta >= 0.05``.
* ``tight``: degrees 1..5, with one root of B placed 1e-4..1e-2 (log-uniform)
  from a root of A, so ``delta`` is small; random sampling practically never
  yields such pairs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

P = np.polynomial.polynomial

DELTA_FLOOR_D8 = 0.05
TIGHT_LOG10_DIST = (-4.0, -2.0)
# roots of one polynomial closer than this (times 1 + Cauchy bound) are
# rejected; bezmin flags clusters at 1e-7, so accepted pairs stay well clear
SIMPLE_SEPARATION = 1e-4
# bezmin's own multiplicity-suspect rule (roots.CLUSTER_TOL_FACTOR)
SUSPECT_FACTOR = 1e-7
LEAD_FLOOR = 1e-6


def unit_disk(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def roots_of(c: np.ndarray) -> np.ndarray:
    """Roots of a coefficient vector stored lowest power first."""
    return np.roots(c[::-1])


def cauchy_bound(c: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(c))) / abs(c[-1])


def min_root_gap(c: np.ndarray) -> float:
    r = roots_of(c)
    if len(r) < 2:
        return np.inf
    gaps = np.abs(r[:, None] - r[None, :]) + np.diag(np.full(len(r), np.inf))
    return float(gaps.min())


def delta_of(ca: np.ndarray, cb: np.ndarray) -> float:
    """min of |B| over the roots of A and |A| over the roots of B."""
    return float(min(
        np.min(np.abs(P.polyval(roots_of(ca), cb))),
        np.min(np.abs(P.polyval(roots_of(cb), ca))),
    ))


def _simple(c: np.ndarray) -> bool:
    return min_root_gap(c) > SIMPLE_SEPARATION * (1.0 + cauchy_bound(c))


def _random_poly(rng: np.random.Generator, degree: int) -> np.ndarray:
    while True:
        c = unit_disk(rng, degree + 1)
        if abs(c[-1]) > LEAD_FLOOR:
            return c


def d8_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    while True:
        na, nb = (int(d) for d in rng.integers(6, 9, size=2))
        ca, cb = _random_poly(rng, na), _random_poly(rng, nb)
        if _simple(ca) and _simple(cb) and delta_of(ca, cb) >= DELTA_FLOOR_D8:
            return ca, cb


def tight_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    while True:
        na, nb = (int(d) for d in rng.integers(1, 6, size=2))
        ca, cb = _random_poly(rng, na), _random_poly(rng, nb)
        alpha = roots_of(ca)[rng.integers(na)]
        dist = 10.0 ** rng.uniform(*TIGHT_LOG10_DIST)
        rb = roots_of(cb)
        rb[0] = alpha + dist * np.exp(2j * np.pi * rng.random())
        cb = P.polyfromroots(rb)
        # back into the unit coefficient ball, with a random norm
        cb = cb / np.max(np.abs(cb)) * np.sqrt(rng.uniform(0.25, 1.0))
        if _simple(ca) and _simple(cb) and delta_of(ca, cb) > 0.0:
            return ca, cb


GENERATORS = {"solve-d8": d8_pair, "solve-tight": tight_pair}


def poly_json(c: np.ndarray) -> str:
    """bezmin's wire format; repr floats, so the file round-trips exactly."""
    return json.dumps({"coeffs": [[float(z.real), float(z.imag)] for z in c]})


class PairPool:
    """Pairs of one workload and seed, written as A/B JSON files on demand.

    Pair i is the i-th draw of one generator seeded once, so the files of a
    seed are identical however many pairs a run ends up using.
    """

    def __init__(self, workload: str, seed: int, directory: Path):
        self._make = GENERATORS[workload]
        self._rng = np.random.default_rng(seed)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []
        self.paths: list[tuple[str, str]] = []

    def ensure(self, n: int) -> None:
        while len(self.pairs) < n:
            i = len(self.pairs)
            ca, cb = self._make(self._rng)
            pa = self.directory / f"{i:05d}_A.json"
            pb = self.directory / f"{i:05d}_B.json"
            pa.write_text(poly_json(ca))
            pb.write_text(poly_json(cb))
            self.pairs.append((ca, cb))
            self.paths.append((str(pa), str(pb)))


def input_properties(degrees, deltas, suspect_flags) -> dict:
    """Degree histogram (over A and B), delta quantiles and shares."""
    hist: dict[str, int] = {}
    for d in degrees:
        hist[str(d)] = hist.get(str(d), 0) + 1
    d = np.asarray(deltas, dtype=float)
    qs = np.quantile(d, [0.1, 0.5, 0.9]) if len(d) else [np.nan] * 3
    return {
        "pairs": len(d),
        "degree_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
        "delta_q10_q50_q90": [float(q) for q in qs],
        "delta_below_1e-2_share": float(np.mean(d < 1e-2)) if len(d) else 0.0,
        "multiplicity_suspect_share": (
            float(np.mean(suspect_flags)) if len(suspect_flags) else 0.0
        ),
    }


def suspect(c: np.ndarray) -> bool:
    """bezmin's multiplicity-suspect rule applied to one polynomial."""
    return min_root_gap(c) < SUSPECT_FACTOR * (1.0 + cauchy_bound(c))

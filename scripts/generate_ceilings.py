#!/usr/bin/env python3
"""Regenerate the empirical ratio-ceiling table shipped with the package.

    PYTHONPATH=src python scripts/generate_ceilings.py [--seed S]
        [--instances N] [--max-degree D] [--out PATH]

For each degree pair (n, k) up to (D, D), in order, N random pairs are drawn
from the normalized coefficient ball; pairs with delta below the floor are
dropped, and the entry is SAFETY_FACTOR times the largest observed
norm(R, S) * delta^2. All pairs of one degree pair are solved at once on
stacked coefficient rows.
"""

import argparse
import json
from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyval

from bezmin.ceilings import DATA_PATH
from bezmin.roots import companion_roots
from bezmin.sylvester import layout

SAFETY_FACTOR = 10.0


def _batch_unit_disk(rng: np.random.Generator, shape) -> np.ndarray:
    return np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))


def max_ratio_for_degrees(
    rng: np.random.Generator,
    n: int,
    k: int,
    n_instances: int,
    delta_floor: float = 1e-4,
) -> float:
    """Largest observed norm(R,S) * delta^2 over the normalized ensemble."""
    ca = _batch_unit_disk(rng, (n_instances, n + 1))
    cb = _batch_unit_disk(rng, (n_instances, k + 1))
    ok = (np.abs(ca[:, -1]) > 1e-6) & (np.abs(cb[:, -1]) > 1e-6)
    ca, cb = ca[ok], cb[ok]

    # polyval with tensor=False evaluates coefficient column i at points row i
    alphas = companion_roots(ca)
    betas = companion_roots(cb)
    delta = np.minimum(
        np.min(np.abs(polyval(alphas, cb.T[..., None], tensor=False)), axis=1),
        np.min(np.abs(polyval(betas, ca.T[..., None], tensor=False)), axis=1),
    )
    keep = delta >= delta_floor
    ca, cb, delta = ca[keep], cb[keep], delta[keep]
    if len(ca) == 0:
        return 0.0

    mats = layout(ca, cb)
    rhs = np.zeros((len(ca), n + k, 1), dtype=complex)
    rhs[:, 0, 0] = 1.0
    x = np.linalg.solve(mats, rhs)[:, :, 0]
    norms = np.max(np.abs(x), axis=1)
    return float(np.max(norms * delta**2))


def generate_table(
    seed: int = 20240601,
    n_instances: int = 10_000,
    max_degree: int = 8,
    delta_floor: float = 1e-4,
) -> dict:
    rng = np.random.default_rng(seed)
    ceilings = {}
    for n in range(1, max_degree + 1):
        for k in range(1, max_degree + 1):
            ratio = max_ratio_for_degrees(rng, n, k, n_instances, delta_floor)
            ceilings[f"{n},{k}"] = SAFETY_FACTOR * ratio
    return {
        "seed": seed,
        "n_instances": n_instances,
        "delta_floor": delta_floor,
        "safety_factor": SAFETY_FACTOR,
        "note": "10x the max of norm(R,S)*delta^2 over a seeded normalized "
        "ensemble per degree pair; empirical calibration, not a proven bound",
        "ceilings": ceilings,
    }


def write_table(path: Path | str = DATA_PATH, **kwargs) -> dict:
    table = generate_table(**kwargs)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return table


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--instances", type=int, default=10_000)
    ap.add_argument("--max-degree", type=int, default=8)
    ap.add_argument("--out", default=str(DATA_PATH))
    args = ap.parse_args()
    table = write_table(
        args.out,
        seed=args.seed,
        n_instances=args.instances,
        max_degree=args.max_degree,
    )
    worst = max(table["ceilings"].items(), key=lambda kv: kv[1])
    print(f"wrote {args.out}; largest ceiling {worst[1]:.3f} at ({worst[0]})")

"""Empirical per-degree ceilings for the coefficient-bound ratio.

The theory guarantees norm(R) * delta^2 / max(1, norms) is bounded by a
constant depending only on the degrees, but gives no usable value. The table
shipped in data/ceilings.json holds, for each degree pair up to (8, 8), ten
times the maximum ratio observed over a seeded random ensemble. It is a
calibration artifact, not a proven constant; regenerate with
scripts/generate_ceilings.py.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyval

from .roots import companion_roots
from .sylvester import layout

DATA_PATH = Path(__file__).parent / "data" / "ceilings.json"
SAFETY_FACTOR = 10.0


@lru_cache(maxsize=1)
def _load() -> dict:
    if not DATA_PATH.exists():
        return {}
    with open(DATA_PATH) as fh:
        return json.load(fh)


def lookup_ceiling(n: int, k: int) -> float | None:
    table = _load().get("ceilings", {})
    return table.get(f"{n},{k}")


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
    _load.cache_clear()
    return table

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

DATA_PATH = Path(__file__).parent / "data" / "ceilings.json"


@lru_cache(maxsize=1)
def _load() -> dict:
    if not DATA_PATH.exists():
        return {}
    with open(DATA_PATH) as fh:
        return json.load(fh)


def lookup_ceiling(n: int, k: int) -> float | None:
    table = _load().get("ceilings", {})
    return table.get(f"{n},{k}")

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bezmin.ceilings import lookup_ceiling

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_ceilings.py"


def _generator():
    spec = importlib.util.spec_from_file_location("generate_ceilings", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_table_reproduces_first_entries():
    # the generator draws the degree pairs in order from one stream, so the
    # first three entries depend on nothing but the seed and the numerics
    gen = _generator()
    rng = np.random.default_rng(20240601)
    for k in (1, 2, 3):
        ratio = gen.max_ratio_for_degrees(rng, 1, k, 10_000, delta_floor=1e-4)
        assert gen.SAFETY_FACTOR * ratio == pytest.approx(
            lookup_ceiling(1, k), rel=1e-12
        )

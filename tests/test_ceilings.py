import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bezmin import ceilings
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


def test_missing_table_raises(monkeypatch, tmp_path):
    # a missing table must not turn every ceiling into None, which would
    # drop certify's ratio_ceiling check without a word
    monkeypatch.setattr(ceilings, "DATA_PATH", tmp_path / "missing.json")
    ceilings._load.cache_clear()
    try:
        with pytest.raises(FileNotFoundError):
            lookup_ceiling(1, 1)
    finally:
        ceilings._load.cache_clear()

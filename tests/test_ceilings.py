import numpy as np
import pytest

from bezmin.ceilings import SAFETY_FACTOR, lookup_ceiling, max_ratio_for_degrees


def test_shipped_table_reproduces_first_entries():
    # the generator draws the degree pairs in order from one stream, so the
    # first three entries depend on nothing but the seed and the numerics
    rng = np.random.default_rng(20240601)
    for k in (1, 2, 3):
        ratio = max_ratio_for_degrees(rng, 1, k, 10_000, delta_floor=1e-4)
        assert SAFETY_FACTOR * ratio == pytest.approx(
            lookup_ceiling(1, k), rel=1e-12
        )

"""Random polynomials for certification sweeps.

Coefficients are drawn from the normalized coefficient ball: every
coefficient uniform in the closed complex unit disk, so the max-coefficient
norm is at most 1.
"""

from __future__ import annotations

import numpy as np

from .poly import Polynomial


def random_polynomial(rng: np.random.Generator, degree: int) -> Polynomial:
    """Exact-degree polynomial with coefficients uniform in the unit disk."""
    while True:
        u = rng.random(degree + 1)
        v = rng.random(degree + 1)
        cs = np.sqrt(u) * np.exp(2j * np.pi * v)
        if abs(cs[-1]) > 1e-6:
            return Polynomial(cs)

"""Dense complex polynomials with explicit degree tracking.

Coefficients are stored lowest power first (index = power of z). Degrees in
this package are small (<= ~32), so everything is a plain dense vector and
products use schoolbook convolution. All values are immutable; operations
return new objects and are safe to share across threads.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Sequence

import numpy as np

_TRIM_REL = 1e-14


class Polynomial:
    """Immutable polynomial sum(coeffs[k] * z**k).

    Trailing coefficients are kept exactly as given; only `normalize()` trims
    near-zero trailing terms, so user intent near degenerate leading
    coefficients is preserved.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
        cs = tuple(complex(c) for c in coeffs)
        if not cs:
            raise ValueError("coefficient vector must be non-empty")
        self._coeffs = cs

    @property
    def coeffs(self) -> tuple[complex, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (0 for the zero polynomial)."""
        for k in range(len(self._coeffs) - 1, -1, -1):
            if self._coeffs[k] != 0:
                return k
        return 0

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def coeff(self, k: int) -> complex:
        """Coefficient of z**k (0 beyond the stored vector)."""
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0j

    def __call__(self, z):
        """Evaluate by Horner's scheme; `z` may be a scalar or an ndarray."""
        if isinstance(z, np.ndarray):
            acc = np.zeros_like(z, dtype=complex)
            for c in reversed(self._coeffs):
                acc = acc * z + c
            return acc
        z = complex(z)
        acc = 0j
        for c in reversed(self._coeffs):
            acc = acc * z + c
        return acc

    def norm(self) -> float:
        """Max modulus of the coefficients."""
        return max(abs(c) for c in self._coeffs)

    def derivative(self) -> "Polynomial":
        if len(self._coeffs) == 1:
            return Polynomial([0])
        return Polynomial([k * c for k, c in enumerate(self._coeffs)][1:])

    def normalize(self) -> "Polynomial":
        """Trim trailing coefficients below _TRIM_REL * norm()."""
        nrm = self.norm()
        if nrm == 0.0:
            return Polynomial([0])
        cut = _TRIM_REL * nrm
        last = 0
        for k, c in enumerate(self._coeffs):
            if abs(c) > cut:
                last = k
        return Polynomial(self._coeffs[: last + 1])

    def reverse(self, target_degree: int | None = None) -> "Polynomial":
        """Return z**target_degree * p(1/z): coefficients reversed in a
        window of length target_degree + 1."""
        d = self.degree
        if target_degree is None:
            target_degree = d
        if target_degree < d:
            raise ValueError(
                f"target_degree {target_degree} below actual degree {d}"
            )
        return Polynomial(
            [self.coeff(target_degree - k) for k in range(target_degree + 1)]
        )

    def scale(self, c: complex) -> "Polynomial":
        c = complex(c)
        return Polynomial([c * a for a in self._coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        other = _as_poly(other)
        da, db = self.degree, other.degree
        out = [0j] * (da + db + 1)
        for i in range(da + 1):
            a = self.coeff(i)
            if a == 0:
                continue
            for j in range(db + 1):
                out[i + j] += a * other.coeff(j)
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    def __hash__(self):
        return hash(self._coeffs[: self.degree + 1])

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    @classmethod
    def from_roots(cls, roots: Sequence[complex], leading: complex = 1.0) -> "Polynomial":
        """leading * prod(z - r) expanded by convolution."""
        out = [complex(leading)]
        for r in roots:
            r = complex(r)
            nxt = [0j] * (len(out) + 1)
            for k, c in enumerate(out):
                nxt[k] += -r * c
                nxt[k + 1] += c
            out = nxt
        return cls(out)

    @classmethod
    def monomial(cls, k: int, c: complex = 1.0) -> "Polynomial":
        return cls([0j] * k + [complex(c)])

    # Shared JSON wire format: {"coeffs": [[re, im], ...]}, index = power.
    def to_json_dict(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self._coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        try:
            pairs = data["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ValueError("polynomial JSON must contain a 'coeffs' list") from exc
        try:
            coeffs = [complex(re, im) for re, im in pairs]
        except (TypeError, ValueError) as exc:
            raise ValueError(
                "polynomial JSON 'coeffs' must be a list of [re, im] number pairs"
            ) from exc
        for k, c in enumerate(coeffs):
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {k} is not finite: {c}")
        return cls(coeffs)


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float, complex)):
        return Polynomial([x])
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")


ONE = Polynomial([1.0])
ZERO = Polynomial([0.0])

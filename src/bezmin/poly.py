"""Dense complex polynomials with explicit degree tracking.

Coefficients are stored lowest power first (index = power of z). Degrees in
this package are small (<= ~32), so everything is a plain dense vector and
products use schoolbook convolution. All values are immutable; operations
return new objects and are safe to share across threads.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

_TRIM_REL = 1e-14


class Polynomial:
    """Immutable polynomial sum(coeffs[k] * z**k).

    Trailing coefficients are kept exactly as given; only `normalize()` trims
    near-zero trailing terms. `sylvester.build` normalizes both polynomials
    of a pair, so every layer reads the trimmed ones.
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

    def coeff(self, k: int) -> complex:
        """Coefficient of z**k (0 beyond the stored vector)."""
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0j

    def __call__(self, z):
        """Evaluate by Horner's scheme; `z` may be a scalar or an ndarray."""
        if isinstance(z, np.ndarray):
            return Stack((self,))(z)[0]
        z = complex(z)
        acc = 0j
        for c in reversed(self._coeffs):
            acc = acc * z + c
        return acc

    def norm(self) -> float:
        """Max modulus of the coefficients by abs() (math.hypot rounds some
        moduli differently); inf when a modulus overflows."""
        try:
            return max(abs(c) for c in self._coeffs)
        except OverflowError:
            return math.inf

    def derivative(self) -> "Polynomial":
        if len(self._coeffs) == 1:
            return Polynomial([0])
        return Polynomial([k * c for k, c in enumerate(self._coeffs)][1:])

    def normalize(self) -> "Polynomial":
        """Trim trailing coefficients below _TRIM_REL * norm(), returning
        self when none is; a norm that is not finite is refused."""
        nrm = self.norm()
        if nrm == 0.0:
            return Polynomial([0])
        if not math.isfinite(nrm):
            raise ValueError(f"polynomial norm is not finite: {nrm}")
        cut = _TRIM_REL * nrm
        last = 0
        for k, c in enumerate(self._coeffs):
            if abs(c) > cut:
                last = k
        if last == len(self._coeffs) - 1:
            return self
        return Polynomial(self._coeffs[: last + 1])

    def reverse(self, target_degree: int) -> "Polynomial":
        """Return z**target_degree * p(1/z): coefficients reversed in a
        window of length target_degree + 1."""
        d = self.degree
        if target_degree < d:
            raise ValueError(
                f"target_degree {target_degree} below actual degree {d}"
            )
        cs = self._coeffs[: target_degree + 1]
        return Polynomial(
            [0j] * (target_degree + 1 - len(cs)) + list(reversed(cs))
        )

    def scale(self, c: complex) -> "Polynomial":
        c = complex(c)
        return Polynomial([c * a for a in self._coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        other = _as_poly(other)
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=0j)
        return Polynomial([a + b for a, b in pairs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        other = _as_poly(other)
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=0j)
        return Polynomial([a - b for a, b in pairs])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        other = _as_poly(other)
        da, db = self.degree, other.degree
        bs = other._coeffs[: db + 1]
        out = [0j] * (da + db + 1)
        for i, a in enumerate(self._coeffs[: da + 1]):
            if a == 0:
                continue
            for j, b in enumerate(bs, i):
                out[j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=0j)
        return all(a == b for a, b in pairs)

    def __hash__(self):
        return hash(self._coeffs[: self.degree + 1])

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "Polynomial":
        """prod(z - r) expanded by convolution."""
        out = [1 + 0j]
        for r in roots:
            r = complex(r)
            nxt = [0j] * (len(out) + 1)
            for k, c in enumerate(out):
                nxt[k] += -r * c
                nxt[k + 1] += c
            out = nxt
        return cls(out)

    @classmethod
    def monomial(cls, k: int) -> "Polynomial":
        return cls([0] * k + [1])

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
            # finite parts can still have a modulus that overflows, which
            # normalize() would refuse without naming the coefficient
            if not math.isfinite(math.hypot(c.real, c.imag)):
                raise ValueError(f"coefficient {k} has no finite modulus: {c}")
        return cls(coeffs)


class Stack:
    """Polynomials evaluated together on arrays by one Horner pass over their
    coefficient table (highest power first, shorter ones padded with zeros on
    top), built once. `evals` counts the points evaluated so far."""

    def __init__(self, polys: Sequence[Polynomial]):
        width = max(len(p.coeffs) for p in polys)
        padded = [p.coeffs + (0j,) * (width - len(p.coeffs)) for p in polys]
        self._rows = np.array(padded, dtype=complex).T[::-1]
        self.evals = 0

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Shape (len(polys),) + z.shape: each polynomial at z."""
        self.evals += z.size
        rows = self._rows.reshape(self._rows.shape + (1,) * z.ndim)
        acc = np.empty(rows.shape[1:2] + z.shape, dtype=complex)
        acc[...] = rows[0]
        for c in rows[1:]:
            acc *= z
            acc += c
        return acc


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float, complex)):
        return Polynomial([x])
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")

"""The benchmark's own exact linear algebra over GF(p) or Q.

This module never imports homcat: the generator builds inputs with it
and the checker verifies homcat's outputs with it, so neither depends on
the code being measured.  Matrices are numpy arrays, int64 with entries
in [0, p) over a prime field and object arrays of ``Fraction`` over Q.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class Field:
    """GF(p) when ``p`` is given, otherwise the rationals."""

    def __init__(self, p: int | None = None) -> None:
        self.p = p

    @property
    def rational(self) -> bool:
        return self.p is None

    def session_payload(self) -> dict:
        return {"kind": "rational"} if self.rational else {"kind": "prime", "p": self.p}

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        if self.rational:
            return np.full((rows, cols), Fraction(0), dtype=object)
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        m = self.zeros(n, n)
        for i in range(n):
            m[i, i] = 1 if not self.rational else Fraction(1)
        return m

    def reduce(self, m: np.ndarray) -> np.ndarray:
        return m if self.rational else m % self.p

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(a + b)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(a - b)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return self.reduce(-a)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact product; large moduli split the left factor into 16-bit limbs."""
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"mul {a.shape} by {b.shape}")
        if self.rational:
            if a.size == 0 or b.size == 0:
                return self.zeros(a.shape[0], b.shape[1])
            return a @ b
        p = self.p
        if a.shape[1] * (p - 1) ** 2 < 2**63:
            return (a @ b) % p
        hi, lo = a >> 16, a & 0xFFFF
        return ((((hi @ b) % p) << 16) + lo @ b) % p

    def inv(self, x):
        return Fraction(1) / x if self.rational else pow(int(x), -1, self.p)

    def rank(self, m: np.ndarray) -> int:
        """Rank by plain Gaussian elimination on Python scalars."""
        rows = [[self._scalar(x) for x in row] for row in m.tolist()]
        ncols = m.shape[1]
        r = 0
        for c in range(ncols):
            sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            inv = self.inv(rows[r][c])
            pivot = [self._norm(x * inv) for x in rows[r]]
            rows[r] = pivot
            for i in range(r + 1, len(rows)):
                fac = rows[i][c]
                if fac != 0:
                    rows[i] = [self._norm(x - fac * y) for x, y in zip(rows[i], pivot)]
            r += 1
            if r == len(rows):
                break
        return r

    def _scalar(self, x):
        return Fraction(x) if self.rational else int(x)

    def _norm(self, x):
        return x if self.rational else x % self.p

    # -- conversion to and from session JSON --------------------------------

    def to_json(self, m: np.ndarray) -> list:
        if not self.rational:
            return m.tolist()
        return [[_fraction_json(x) for x in row] for row in m.tolist()]

    def from_json(self, rows: list) -> np.ndarray:
        """A GF(p) matrix from session JSON; only prime-field output is read back."""
        return np.array(rows, dtype=np.int64).reshape(len(rows), -1) % self.p


def _fraction_json(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def is_complex(fld: Field, diff: list[np.ndarray]) -> bool:
    """d^{i+1} d^i = 0 for every consecutive pair."""
    return all(not fld.mul(d2, d1).any() for d1, d2 in zip(diff, diff[1:]))

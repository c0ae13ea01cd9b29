"""Exact scalar arithmetic over a prime field F_p or the rationals.

Scalars are plain Python values: canonical integers in [0, p) for the
prime case, reduced ``fractions.Fraction`` instances for the rational
case.  A FieldSpec names the field and gives its canonical zero, one and
coercion; the arithmetic itself lives with the matrices, which work on
whole integer forms rather than one scalar at a time.  Floating point
never appears.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

__all__ = ["FieldSpec"]


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its compared fields in ``_fields``; equality, the
    hash and the repr read those, and a value never equals one of another
    class.  Its ``__init__`` checks its arguments and then stores them
    through ``_store``, since assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the tuple of a value's compared fields, read in C
        if "_fields" in cls.__dict__:
            cls._values = attrgetter(*cls._fields)

    def _store(self, **fields) -> None:
        # object.__setattr__ keeps the values inline in the instance; going
        # through self.__dict__ would build a dict of twice the size
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 7 and 61 decide every
    n < 4,759,123,141 (Jaeschke 1993), which covers the moduli [2, 2^31)."""
    if n < 2:
        return False
    for q in (2, 7, 61):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(_Frozen):
    """A coefficient field: ``kind`` is "prime" (with modulus ``p``) or "rational"."""

    _fields = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind == "prime":
            # bool is an int subclass; never a modulus
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"prime field needs an integer modulus, got {p!r}")
            if not 2 <= p < 2**31:
                raise ValueError(f"modulus out of range [2, 2^31): {p}")
            if not _is_prime(p):
                raise ValueError(f"modulus is not prime: {p}")
        elif kind == "rational":
            if p is not None:
                raise ValueError("rational field takes no modulus")
        else:
            raise ValueError(f"unknown field kind: {kind!r}")
        self._store(kind=kind, p=p)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls("rational")

    def __str__(self) -> str:
        return f"F_{self.p}" if self.kind == "prime" else "Q"

    # -- canonical scalars -------------------------------------------------

    def zero(self):
        return 0 if self.kind == "prime" else Fraction(0)

    def one(self):
        return 1 if self.kind == "prime" else Fraction(1)

    def coerce(self, x):
        """Canonicalize a numeric scalar; rejects bools, floats and junk."""
        if isinstance(x, bool):
            raise ValueError(f"not a scalar: {x!r}")
        if self.kind == "prime":
            if not isinstance(x, int):
                raise ValueError(f"not an integer scalar: {x!r}")
            return x % self.p
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise ValueError(f"not a rational scalar: {x!r}")

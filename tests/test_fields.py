"""Field specifications: the primality test behind FieldSpec.prime."""

from math import isqrt

import pytest

from homcat import FieldSpec
from homcat.fields import _is_prime


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_miller_rabin_agrees_with_trial_division_below_200000():
    assert [n for n in range(200_000) if _is_prime(n) != trial_division(n)] == []


@pytest.mark.parametrize(
    "n, factor",
    [
        (2047, 23),  # strong pseudoprime to base 2
        (1373653, 829),  # to bases 2 and 3
        (25326001, 2251),  # to bases 2, 3 and 5
        (3215031751, 151),  # to bases 2, 3, 5 and 7
        (561, 3),  # Carmichael numbers
        (1729, 7),
        (2**31 - 3, 5),
    ],
)
def test_composites_are_rejected(n, factor):
    assert n % factor == 0 and 1 < factor < n
    assert not _is_prime(n)


@pytest.mark.parametrize("p", [2, 3, 7, 61, 2147483647, 2147483629])
def test_primes_are_accepted_as_moduli(p):
    assert _is_prime(p)
    assert FieldSpec.prime(p).p == p


@pytest.mark.parametrize("n", [0, 1, 4, 2047, 1373653, 25326001, 561, 1729, 2**31 - 3])
def test_composite_moduli_are_refused(n):
    with pytest.raises(ValueError):
        FieldSpec.prime(n)

"""Complexes: validation, shift, direct sum, cohomology and its contraction data.

The cohomology oracle for small F2 complexes enumerates every vector of
the relevant spaces and counts cocycles and coboundaries literally.
"""

import gc
import random
from fractions import Fraction
from itertools import product

import pytest

from homcat import (
    CochainComplex,
    FieldMismatchError,
    FieldSpec,
    InvalidComplexError,
    Matrix,
    ShapeMismatchError,
    cohomology,
    direct_sum_complex,
    identity_chain_map,
    induced_cohomology_map,
    is_acyclic,
    mat_add,
    mat_mul,
    mat_sub,
    shift,
    validate_chain_map,
    validate_complex,
)
from homcat.chainmaps import _induced_map
from homcat.complexes import _INTERNED, CACHE_SIZE
from randgen import F2, F5, Q, random_complex, random_matrix


def f2_cohomology_dim(c, i):
    """dim H^i by literal enumeration: count cocycles and coboundaries
    as sets of vectors over F2, then log2 the quotient size."""
    assert c.field == F2
    n = c.dim(i)
    d_out = c.d(i)
    d_in = c.d(i - 1)
    cocycles = set()
    for bits in product([0, 1], repeat=n):
        v = Matrix.from_rows(F2, [[b] for b in bits], cols=1)
        if mat_mul(d_out, v).is_zero():
            cocycles.add(bits)
    coboundaries = set()
    for bits in product([0, 1], repeat=c.dim(i - 1)):
        v = Matrix.from_rows(F2, [[b] for b in bits], cols=1)
        w = mat_mul(d_in, v)
        coboundaries.add(tuple(w[t, 0] for t in range(w.rows)))
    # both are F2 subspaces; quotient size is the ratio of cardinalities
    quotient_size = len(cocycles) // len(coboundaries)
    return quotient_size.bit_length() - 1


def two_term(field, d_entry):
    return CochainComplex.create(
        field,
        dims={0: 1, 1: 1},
        diff={0: Matrix.from_rows(field, [[d_entry]])},
    )


# validate_complex


def test_validate_zero_complex():
    c = CochainComplex.create(F5, dims={0: 0})
    assert validate_complex(c).ok


def test_validate_two_term():
    assert validate_complex(two_term(F5, 1)).ok


def test_validate_d_squared_failure():
    d0 = Matrix.identity(F2, 2)
    d1 = Matrix.from_rows(F2, [[1, 1]])
    product_by_hand = mat_mul(d1, d0)
    assert product_by_hand == Matrix.from_rows(F2, [[1, 1]])
    c = CochainComplex.create(F2, dims={0: 2, 1: 2, 2: 1}, diff={0: d0, 1: d1})
    report = validate_complex(c)
    assert not report.ok
    assert report.degree == 0
    assert report.product == product_by_hand


def test_create_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        CochainComplex.create(
            F5, dims={0: 2, 1: 1}, diff={0: Matrix.from_rows(F5, [[1]])}
        )


def test_differentials_outside_the_window_must_carry_no_entries():
    # off the window [0, 0] a differential fits only with a side of 0
    off = {-1: Matrix.zeros(F5, 1, 0), 3: Matrix.zeros(F5, 0, 0)}
    c = CochainComplex.create(F5, {0: 1}, off, lo=0, hi=0)
    assert c is CochainComplex.create(F5, {0: 1}, lo=0, hi=0)
    with pytest.raises(ShapeMismatchError, match="differential at degree -1 does not fit"):
        CochainComplex.create(F5, {0: 1}, {-1: Matrix.zeros(F5, 1, 1)}, lo=0, hi=0)


def test_window_from_declared_degrees():
    c = CochainComplex.create(F5, dims={-2: 1, 3: 2})
    assert (c.lo, c.hi) == (-2, 3)
    assert c.dim(0) == 0
    assert c.dim(-3) == 0 and c.dim(4) == 0
    d = c.d(-3)
    assert (d.rows, d.cols) == (1, 0)


# shift


def test_shift_by_zero_is_identity():
    c = two_term(F5, 3)
    assert shift(c, 0) == c


def test_shift_sign_and_window():
    c = two_term(F5, 3)
    s = shift(c, 1)
    assert (s.lo, s.hi) == (-1, 0)
    assert s.dim(-1) == 1 and s.dim(0) == 1
    assert s.d(-1) == Matrix.from_rows(F5, [[2]])  # -3 mod 5
    s2 = shift(c, 2)
    assert s2.d(-2) == Matrix.from_rows(F5, [[3]])  # sign squares away


def test_shift_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        c = random_complex(rng, F5)
        assert shift(shift(c, 1), -1) == c
        assert shift(shift(c, -2), 2) == c


def test_shift_preserves_validity():
    rng = random.Random(6)
    for _ in range(50):
        c = random_complex(rng, F5)
        for n in (-2, -1, 1, 2, 3):
            assert validate_complex(shift(c, n)).ok


def test_shift_composes_additively():
    rng = random.Random(8)
    for _ in range(20):
        c = random_complex(rng, Q, max_dim=3)
        assert shift(shift(c, 1), 2) == shift(c, 3)


# direct_sum_complex


def test_direct_sum_with_zero_complex():
    a = two_term(F5, 1)
    z = CochainComplex.create(F5, dims={0: 0, 1: 0})
    assert direct_sum_complex(a, z) == a


def test_direct_sum_two_points():
    p = CochainComplex.create(F5, dims={0: 1})
    s = direct_sum_complex(p, p)
    assert s.dim(0) == 2
    assert s.d(0).is_zero() and s.d(-1).is_zero()


def test_direct_sum_dims_add():
    a = CochainComplex.create(F5, dims={0: 1, 1: 2})
    b = CochainComplex.create(F5, dims={1: 1})
    s = direct_sum_complex(a, b)
    assert s.dim(0) == 1 and s.dim(1) == 3


@pytest.mark.parametrize("other", [FieldSpec.prime(7), Q], ids=str)
def test_direct_sum_refuses_two_fields(other):
    a = CochainComplex.create(F5, dims={0: 1})
    b = CochainComplex.create(other, dims={0: 1})
    with pytest.raises(FieldMismatchError):
        direct_sum_complex(a, b)


# cohomology


def test_cohomology_zero_differential():
    c = CochainComplex.create(F5, dims={0: 3})
    assert cohomology(c, 0).dim == 3


def test_cohomology_contractible():
    c = two_term(F5, 1)
    assert cohomology(c, 0).dim == 0
    assert cohomology(c, 1).dim == 0


def test_cohomology_f2_example():
    c = CochainComplex.create(
        F2, dims={0: 2, 1: 1}, diff={0: Matrix.from_rows(F2, [[1, 1]])}
    )
    assert f2_cohomology_dim(c, 0) == 1
    assert f2_cohomology_dim(c, 1) == 0
    assert cohomology(c, 0).dim == 1
    assert cohomology(c, 1).dim == 0


def test_cohomology_matches_f2_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        c = random_complex(rng, F2, max_dim=3, max_width=3)
        for i in range(c.lo, c.hi + 1):
            assert cohomology(c, i).dim == f2_cohomology_dim(c, i)


def test_cohomology_representatives_are_cocycles_mod_nothing_twice():
    rng = random.Random(19)
    for _ in range(30):
        c = random_complex(rng, F5)
        for i in range(c.lo, c.hi + 1):
            space = cohomology(c, i)
            reps = space.incl
            assert reps.cols == space.dim
            assert mat_mul(c.d(i), reps).is_zero()


def test_cohomology_projection_kills_coboundaries():
    rng = random.Random(23)
    for _ in range(30):
        c = random_complex(rng, F5)
        for i in range(c.lo, c.hi + 1):
            space = cohomology(c, i)
            d_in = c.d(i - 1)
            if d_in.cols == 0 or space.cocycle_basis.cols == 0:
                continue
            # the cocycle basis is the identity on the free rows, so the
            # coordinates of the coboundaries are d_in read there
            coords = d_in.take_rows(space.free_rows)
            assert mat_mul(space.cocycle_basis, coords) == d_in
            assert mat_mul(space.projection, coords).is_zero()


def test_euler_characteristic():
    rng = random.Random(31)
    for field in (F5, Q):
        for _ in range(100):
            c = random_complex(rng, field, max_dim=4)
            chi_dims = sum((-1) ** i * c.dim(i) for i in range(c.lo, c.hi + 1))
            chi_h = sum(
                (-1) ** i * cohomology(c, i).dim for i in range(c.lo, c.hi + 1)
            )
            assert chi_dims == chi_h


def test_cohomology_additive_over_direct_sum():
    rng = random.Random(37)
    for _ in range(40):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        s = direct_sum_complex(a, b)
        for i in range(s.lo, s.hi + 1):
            assert (
                cohomology(s, i).dim
                == cohomology(a, i).dim + cohomology(b, i).dim
            )


def test_cohomology_deterministic():
    rng = random.Random(39)
    c1 = random_complex(rng, F5)
    c2 = CochainComplex.create(
        c1.field,
        dims={i: c1.dim(i) for i in c1.degrees()},
        diff={i: c1.d(i) for i in range(c1.lo, c1.hi)},
    )
    assert c1 == c2
    for i in range(c1.lo, c1.hi + 1):
        s1, s2 = cohomology(c1, i), cohomology(c2, i)
        assert s1.cocycle_basis == s2.cocycle_basis
        assert s1.rep_columns == s2.rep_columns
        assert s1.projection == s2.projection


def test_cocycle_basis_is_identity_on_free_rows():
    rng = random.Random(41)
    for field in (F2, F5, Q):
        for _ in range(20):
            c = random_complex(rng, field)
            for i in range(c.lo, c.hi + 1):
                space = cohomology(c, i)
                n = len(space.free_rows)
                assert space.cocycle_basis.take_rows(space.free_rows) == Matrix.identity(field, n)


# the contraction data of cohomology


@pytest.mark.parametrize("field", [F2, F5, Q], ids=str)
def test_contraction_retracts_onto_cohomology(field):
    rng = random.Random(43)
    # the test matrices for classes() come from their own stream, so the
    # complexes drawn stay the same
    mats = random.Random(47)
    zero_dims = 0
    for _ in range(40):
        c = random_complex(rng, field, max_dim=4)
        # one degree past each end of the window as well
        for i in range(c.lo - 1, c.hi + 2):
            k = cohomology(c, i)
            h = k.dim
            n = c.dim(i)
            zero_dims += n == 0
            assert (k.incl.rows, k.incl.cols) == (n, h)
            assert (k.proj.rows, k.proj.cols) == (h, n)
            assert (k.htpy.rows, k.htpy.cols) == (c.dim(i - 1), n)
            assert mat_mul(k.proj, k.incl) == Matrix.identity(field, h)
            retract = mat_sub(Matrix.identity(field, n), mat_mul(k.incl, k.proj))
            boundary = mat_add(
                mat_mul(c.d(i - 1), k.htpy),
                mat_mul(cohomology(c, i + 1).htpy, c.d(i)),
            )
            assert retract == boundary
            m = random_matrix(mats, field, n, 3)
            assert k.classes(m) == mat_mul(k.proj, m)
    # the two off-window degrees of each complex give 80; the rest are
    # zero-dimensional degrees inside a window
    assert zero_dims > 80


def test_contraction_requires_valid_complex():
    d0 = Matrix.identity(F2, 2)
    d1 = Matrix.from_rows(F2, [[1, 1]])
    c = CochainComplex.create(F2, dims={0: 2, 1: 2, 2: 1}, diff={0: d0, 1: d1})
    with pytest.raises(InvalidComplexError):
        cohomology(c, 2).htpy


def test_caches_stay_at_their_bound_on_fresh_complexes():
    one = Matrix.identity(F2, 1)
    for k in range(CACHE_SIZE + 50):
        c = CochainComplex.create(F2, dims={k: 1})
        assert cohomology(c, k).dim == 1
        assert induced_cohomology_map(identity_chain_map(c), k) == one
    for cache in (cohomology, validate_complex, validate_chain_map, _induced_map):
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize == CACHE_SIZE


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_create_returns_one_object_per_value(field):
    # each call builds its own equal matrices; the second gets the first complex
    def build(entry):
        d = Matrix.from_rows(field, [[entry, 0], [0, 1]])
        return CochainComplex.create(field, dims={0: 2, 1: 2, 2: 1}, diff={0: d})

    entry = Fraction(1, 2) if field == Q else 3
    c = build(entry)
    assert build(entry) is c
    assert build(field.coerce(2)) is not c
    # the zero differential create fills in is the same value as one given
    zero = Matrix.zeros(field, 1, 2)
    assert CochainComplex.create(field, dims={0: 2, 1: 2, 2: 1}, diff={0: c.d(0), 1: zero}) is c
    assert CochainComplex.zero(field) is CochainComplex.create(field, {0: 0})


def test_intern_table_holds_complexes_weakly():
    gc.collect()
    before = len(_INTERNED)
    c = CochainComplex.create(F5, dims={-10**6: 3})
    assert len(_INTERNED) == before + 1
    del c
    gc.collect()
    assert len(_INTERNED) == before
    # a stream of fresh complexes, none kept and cohomology never called
    for k in range(10_000):
        CochainComplex.create(F2, dims={k: 1, k + 1: 1}, diff={k: Matrix.identity(F2, 1)})
    gc.collect()
    assert len(_INTERNED) <= before


def test_shift_is_cached_and_stays_at_its_bound():
    c = CochainComplex.create(Q, dims={0: 1, 1: 1}, diff={0: Matrix.identity(Q, 1)})
    assert shift(c, 1) is shift(c, 1)
    assert shift(shift(c, 1), -1) is c
    for k in range(CACHE_SIZE + 50):
        shifted = shift(CochainComplex.create(F2, dims={k: 1}), 1)
        assert shifted.lo == k - 1
        assert shift.cache_info().currsize <= CACHE_SIZE
    info = shift.cache_info()
    assert info.maxsize == CACHE_SIZE
    assert info.currsize == CACHE_SIZE


def test_cohomology_requires_valid_complex():
    d0 = Matrix.identity(F2, 2)
    d1 = Matrix.from_rows(F2, [[1, 1]])
    c = CochainComplex.create(F2, dims={0: 2, 1: 2, 2: 1}, diff={0: d0, 1: d1})
    with pytest.raises(InvalidComplexError):
        cohomology(c, 0)


# is_acyclic


def test_is_acyclic_zero_complex():
    assert is_acyclic(CochainComplex.create(F5, dims={0: 0}))


def test_is_acyclic_contractible():
    assert is_acyclic(two_term(F5, 1))


def test_is_acyclic_point_fails():
    assert not is_acyclic(CochainComplex.create(F5, dims={0: 1}))


def test_shift_preserves_cohomology_dims():
    rng = random.Random(47)
    for _ in range(30):
        c = random_complex(rng, F5)
        s = shift(c, 1)
        for i in range(s.lo, s.hi + 1):
            assert cohomology(s, i).dim == cohomology(c, i + 1).dim

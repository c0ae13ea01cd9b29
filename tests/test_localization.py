"""Roofs against their classes: an oracle for the localization over a field.

Over a field a roof A <- B' -> B with legs (s, f) has one invariant, its
class H(f) H(s)^{-1}, degree by degree.  Two parallel roofs are
equivalent exactly when their classes agree, and composition multiplies
classes (Gelfand & Manin, Methods of Homological Algebra, ch. III).

Every roof here is built from standard complexes (see randgen), whose
cohomology blocks are H(-) in standard coordinates, so each class is
known from the construction and never read back through
induced_cohomology_map.  Equivalence is decided by verify_roof_equivalence
on one witness built in closed form from a flip, never searched for.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcat import (
    Cospan,
    Matrix,
    Roof,
    RoofEquivalenceWitness,
    compose_chain_maps,
    compose_roofs,
    flip_cospan,
    identity_chain_map,
    is_quasi_iso,
    lift_map_to_roof,
    mat_add,
    mat_mul,
    verify_roof_equivalence,
)
from randgen import (
    F5,
    Q,
    random_invertible,
    random_matrix,
    random_scalar,
    standard_chain_map,
    standard_complex,
)

_SETTINGS = settings(derandomize=True, max_examples=20, deadline=None, database=None)
_FIELDS = pytest.mark.parametrize("field", [F5, Q], ids=str)


def equivalence_witness(r1, r2):
    """The witness that two parallel roofs (s1, f1), (s2, f2) are equivalent.

    Flip the cospan (s1, s2) into K with gamma2: K -> B1' and
    gamma1: K -> B2', so that s1 gamma2 ~ s2 gamma1.  With apex3 = K,
    up = gamma2, down = gamma1, denom3 = s1 gamma2 and numer3 = f1 gamma2,
    three squares close by construction; the fourth, f2 gamma1 ~ f1 gamma2,
    holds exactly when the two classes agree.
    """
    flip = flip_cospan(Cospan(alpha=r1.denom, beta=r2.denom))
    return RoofEquivalenceWitness(
        apex3=flip.k_complex,
        denom3=compose_chain_maps(flip.gamma2, r1.denom),
        numer3=compose_chain_maps(flip.gamma2, r1.numer),
        up=flip.gamma2,
        down=flip.gamma1,
    )


def equivalent(r1, r2):
    return verify_roof_equivalence(r1, r2, equivalence_witness(r1, r2))


def with_cohomology(rng, field, h):
    """A standard complex on degrees 0..len(h)-1 with dim H^i = h[i]."""
    ranks = [rng.randint(0, 2) for _ in h[:-1]]
    dims = [b + hi + c for b, hi, c in zip([0] + ranks, h, ranks + [0])]
    return standard_complex(rng, field, dims, ranks)


def h_dims(a):
    return [h for _, h, _ in a.splits]


def random_class(rng, a, b):
    """A class H(a) -> H(b): one dim H_b^i x dim H_a^i matrix per degree."""
    return [random_matrix(rng, a.complex.field, hb, ha) for ha, hb in zip(h_dims(a), h_dims(b))]


def other_class(rng, cls):
    """``cls`` changed by a nonzero scalar in one nonempty block."""
    k = next(i for i, m in enumerate(cls) if m.rows and m.cols)
    m = cls[k]
    field = m.field
    x = field.zero()
    while x == field.zero():
        x = field.coerce(random_scalar(rng, field))
    bump = [[x if (r, c) == (0, 0) else field.zero() for c in range(m.cols)] for r in range(m.rows)]
    return cls[:k] + [mat_add(m, Matrix.from_rows(field, bump, cols=m.cols))] + cls[k + 1 :]


def roof_with_class(rng, a, b, cls):
    """A roof a <- apex -> b on a fresh standard apex, of class ``cls``.

    The denominator is P on cohomology for a random invertible P, and the
    numerator cls P, so the class is cls P P^{-1} = cls.
    """
    field = a.complex.field
    apex = with_cohomology(rng, field, h_dims(a))
    ps = [random_invertible(rng, field, h) for h in h_dims(a)]
    denom = standard_chain_map(rng, apex, a, [p.to_rows() for p in ps])
    numer = standard_chain_map(rng, apex, b, [mat_mul(c, p).to_rows() for c, p in zip(cls, ps)])
    return Roof(apex=apex.complex, denom=denom, numer=numer)


def objects(rng, field, count, hot, degrees=3):
    """``count`` standard complexes on ``degrees`` degrees, H^hot nonzero in each.

    So every class between them has a nonempty block at ``hot``, and both
    verdicts of the oracle occur.
    """
    out = []
    for _ in range(count):
        h = [rng.randint(0, 2) for _ in range(degrees)]
        h[hot] = rng.randint(1, 2)
        out.append(with_cohomology(rng, field, h))
    return out


@_FIELDS
@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), hot=st.integers(0, 2), same=st.booleans())
def test_witness_verifies_exactly_when_classes_agree(field, seed, hot, same):
    rng = random.Random(seed)
    a, b = objects(rng, field, 2, hot)
    cls = random_class(rng, a, b)
    r1 = roof_with_class(rng, a, b, cls)
    r2 = roof_with_class(rng, a, b, cls if same else other_class(rng, cls))
    w = equivalence_witness(r1, r2)
    assert is_quasi_iso(w.up) and is_quasi_iso(w.down)
    assert verify_roof_equivalence(r1, r2, w) is same


@_FIELDS
@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), hot=st.integers(0, 2))
def test_composite_class_is_the_product_of_classes(field, seed, hot):
    rng = random.Random(seed)
    a, b, c = objects(rng, field, 3, hot)
    c1, c2 = random_class(rng, a, b), random_class(rng, b, c)
    composite = compose_roofs(roof_with_class(rng, a, b, c1), roof_with_class(rng, b, c, c2))
    assert is_quasi_iso(composite.denom)
    want = [mat_mul(y, x) for x, y in zip(c1, c2)]  # first c1, then c2
    assert equivalent(composite, roof_with_class(rng, a, c, want))
    assert not equivalent(composite, roof_with_class(rng, a, c, other_class(rng, want)))


@_FIELDS
@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), hot=st.integers(0, 2))
def test_identity_roofs_are_units(field, seed, hot):
    rng = random.Random(seed)
    a, b = objects(rng, field, 2, hot)
    cls = random_class(rng, a, b)
    r = roof_with_class(rng, a, b, cls)
    other = roof_with_class(rng, a, b, other_class(rng, cls))
    for unit in (
        compose_roofs(lift_map_to_roof(identity_chain_map(a.complex)), r),
        compose_roofs(r, lift_map_to_roof(identity_chain_map(b.complex))),
    ):
        assert equivalent(unit, r)
        assert not equivalent(unit, other)


@_FIELDS
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), hot=st.integers(0, 1))
def test_composition_is_associative_up_to_the_constructed_witness(field, seed, hot):
    rng = random.Random(seed)
    a, b, c, d = objects(rng, field, 4, hot, degrees=2)
    r1 = roof_with_class(rng, a, b, random_class(rng, a, b))
    r2 = roof_with_class(rng, b, c, random_class(rng, b, c))
    r3 = roof_with_class(rng, c, d, random_class(rng, c, d))
    assert equivalent(compose_roofs(compose_roofs(r1, r2), r3), compose_roofs(r1, compose_roofs(r2, r3)))


@_FIELDS
@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), hot=st.integers(0, 2))
def test_lifted_map_has_the_class_of_the_map(field, seed, hot):
    rng = random.Random(seed)
    a, b = objects(rng, field, 2, hot)
    cls = random_class(rng, a, b)
    f = standard_chain_map(rng, a, b, [m.to_rows() for m in cls])
    lifted = lift_map_to_roof(f)
    assert is_quasi_iso(lifted.denom)
    assert equivalent(lifted, roof_with_class(rng, a, b, cls))
    assert not equivalent(lifted, roof_with_class(rng, a, b, other_class(rng, cls)))

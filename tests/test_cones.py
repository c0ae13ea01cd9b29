"""Mapping cones, triangles, rotation, LES exactness, morphism completion."""

import random

import pytest

from homcat import (
    CochainComplex,
    ChainMap,
    FieldSpec,
    Homotopy,
    InvalidChainMapError,
    Matrix,
    Triangle,
    block,
    check_homotopy,
    check_les_exact,
    cohomology,
    complete_triangle_morphism,
    compose_chain_maps,
    cone_triangle,
    identity_chain_map,
    is_acyclic,
    is_quasi_iso,
    mapping_cone,
    mat_neg,
    negate_chain_map,
    rotate_triangle,
    shift,
    shift_chain_map,
    validate_chain_map,
    validate_complex,
    zero_chain_map,
)
from randgen import F2, F5, Q, random_chain_map, random_complex


def point(field):
    return CochainComplex.create(field, dims={0: 1})


def contractible(field):
    return CochainComplex.create(
        field, dims={0: 1, 1: 1}, diff={0: Matrix.identity(field, 1)}
    )


# mapping_cone


def test_cone_of_identity_on_point():
    p = point(F5)
    mc = mapping_cone(identity_chain_map(p))
    assert (mc.cone.lo, mc.cone.hi) == (-1, 0)
    assert mc.cone.dim(-1) == 1 and mc.cone.dim(0) == 1
    # top block -d_A is empty here, so the differential is the f block
    assert mc.cone.d(-1) == Matrix.from_rows(F5, [[1]])
    assert is_acyclic(mc.cone)


def test_cone_of_zero_map_is_direct_sum():
    p = point(F5)
    mc = mapping_cone(zero_chain_map(p, p))
    assert mc.cone.dim(-1) == 1 and mc.cone.dim(0) == 1
    assert mc.cone.d(-1).is_zero()
    assert cohomology(mc.cone, -1).dim == 1
    assert cohomology(mc.cone, 0).dim == 1


def test_cone_dims_and_validity_random():
    rng = random.Random(3)
    for _ in range(60):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        f = random_chain_map(rng, a, b)
        mc = mapping_cone(f)
        assert validate_complex(mc.cone).ok
        for i in range(mc.cone.lo, mc.cone.hi + 1):
            assert mc.cone.dim(i) == a.dim(i + 1) + b.dim(i)
        assert validate_chain_map(mc.incl).ok
        assert validate_chain_map(mc.proj).ok


def test_cone_structural_maps_compose_to_shifted_f():
    # proj then incl vanishes; proj recovers the shifted source
    rng = random.Random(5)
    for _ in range(20):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        f = random_chain_map(rng, a, b)
        mc = mapping_cone(f)
        through = compose_chain_maps(mc.incl, mc.proj)
        assert through == zero_chain_map(b, shift(a, 1))


def readme_cone(f):
    """MC(f)^i = A^{i+1} (+) B^i with differential [[-d_A^{i+1}, 0], [f^{i+1}, d_B^i]],
    every block written out and the top-left one negated by mat_neg."""
    a, b = f.source, f.target
    fld = a.field
    lo, hi = min(a.lo - 1, b.lo), max(a.hi - 1, b.hi)
    dims = {i: a.dim(i + 1) + b.dim(i) for i in range(lo, hi + 1)}
    diff = {
        i: block(fld, [
            [mat_neg(a.d(i + 1)), Matrix.zeros(fld, a.dim(i + 2), b.dim(i))],
            [f.component(i + 1), b.d(i)],
        ])
        for i in range(lo, hi)
    }
    return CochainComplex.create(fld, dims, diff, lo=lo, hi=hi)


@pytest.mark.parametrize("field", [F5, Q, FieldSpec.prime(2**31 - 1)], ids=str)
def test_cone_matches_the_readme_block_form(field):
    rng = random.Random(17)
    for _ in range(25):
        a = random_complex(rng, field)
        b = random_complex(rng, field)
        f = random_chain_map(rng, a, b)
        mc = mapping_cone(f)
        assert mc.cone == readme_cone(f)
        # incl and proj are the bottom and top bands of the identity, written out
        for i in mc.cone.degrees():
            ident = Matrix.identity(field, mc.cone.dim(i))
            assert mc.incl.component(i) == ident.take_columns(range(a.dim(i + 1), mc.cone.dim(i)))
            assert mc.proj.component(i) == ident.take_rows(range(a.dim(i + 1)))
        # the projection lands on the cached shift, which the triangle meets again
        assert mc.proj.target is shift(a, 1)
        assert cone_triangle(f).h.target is shift(f.source, 1)


def test_cone_rejects_invalid_map():
    a = CochainComplex.create(F5, dims={0: 1, 1: 1})
    b = contractible(F5)
    bad = ChainMap.create(a, b, {0: Matrix.from_rows(F5, [[1]])})
    with pytest.raises(InvalidChainMapError):
        mapping_cone(bad)


# cone_triangle and rotation


def test_triangle_from_zero_source():
    z = CochainComplex.create(F5, dims={0: 0})
    b = point(F5)
    t = cone_triangle(zero_chain_map(z, b))
    # cone of 0 -> B is B itself up to the empty A-block
    assert t.g.target.dim(0) == 1
    assert check_les_exact(t)


def test_triangle_endpoints_random():
    rng = random.Random(7)
    for _ in range(30):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        f = random_chain_map(rng, a, b)
        t = cone_triangle(f)
        assert t.f == f
        assert t.g.source == f.target
        assert t.h.target == shift(f.source, 1)


def test_rotation_of_identity_cone():
    p = point(F5)
    t = cone_triangle(identity_chain_map(p))
    r = rotate_triangle(t)
    assert r.f == t.g and r.g == t.h
    # third map is -f[1]: the only component sits at degree -1
    assert r.h.component(-1) == Matrix.from_rows(F5, [[-1]])
    assert r.h == negate_chain_map(shift_chain_map(t.f, 1))


def test_rotation_preserves_endpoint_invariant():
    rng = random.Random(9)
    for _ in range(20):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        f = random_chain_map(rng, a, b)
        t = rotate_triangle(cone_triangle(f))
        assert t.h.target == shift(t.f.source, 1)
        t2 = rotate_triangle(t)
        assert t2.h.target == shift(t2.f.source, 1)


def test_triple_rotation_shifts_everything():
    rng = random.Random(11)
    for _ in range(15):
        a = random_complex(rng, F5, max_dim=3)
        b = random_complex(rng, F5, max_dim=3)
        f = random_chain_map(rng, a, b)
        t = cone_triangle(f)
        r3 = rotate_triangle(rotate_triangle(rotate_triangle(t)))
        assert r3.f == negate_chain_map(shift_chain_map(t.f, 1))
        assert r3.g == negate_chain_map(shift_chain_map(t.g, 1))
        assert r3.h == negate_chain_map(shift_chain_map(t.h, 1))


# check_les_exact


def test_les_zero_triangle():
    z = CochainComplex.create(F5, dims={0: 0})
    f = zero_chain_map(z, z)
    t = Triangle(f, f, zero_chain_map(z, shift(z, 1)))
    assert check_les_exact(t)


def test_les_rejects_non_exact_triangle():
    # (id, id, 0) on the point: at the middle node the incoming induced
    # map has rank 1 but the outgoing identity has kernel 0, and the
    # composite id∘id = id is nonzero, so exactness fails
    p = point(F5)
    one = identity_chain_map(p)
    t = Triangle(one, one, zero_chain_map(p, shift(p, 1)))
    assert not check_les_exact(t)


def test_les_for_cone_triangles_random():
    rng = random.Random(13)
    for field in (F5, Q):
        for _ in range(40):
            a = random_complex(rng, field, max_dim=3)
            b = random_complex(rng, field, max_dim=3)
            f = random_chain_map(rng, a, b)
            t = cone_triangle(f)
            assert check_les_exact(t)
            assert check_les_exact(rotate_triangle(t))


# complete_triangle_morphism


def test_complete_identity_square():
    rng = random.Random(15)
    a = random_complex(rng, F5)
    b = random_complex(rng, F5)
    f = random_chain_map(rng, a, b)
    k3 = complete_triangle_morphism(f, f, identity_chain_map(a), identity_chain_map(b))
    assert k3 == identity_chain_map(mapping_cone(f).cone)


def test_complete_zero_square():
    rng = random.Random(17)
    a = random_complex(rng, F5)
    b = random_complex(rng, F5)
    f = random_chain_map(rng, a, b)
    k3 = complete_triangle_morphism(f, f, zero_chain_map(a, a), zero_chain_map(b, b))
    cone = mapping_cone(f).cone
    assert k3 == zero_chain_map(cone, cone)


def test_complete_witnessed_square():
    # on the contractible two-term complex, k1 = 0 and k2 = id do not
    # commute strictly with f1 = f2 = id; the single unknown s^1 = [[1]]
    # solves id = d s + s d and unlocks the completion
    x = contractible(F5)
    one = identity_chain_map(x)
    k1 = zero_chain_map(x, x)
    k2 = one
    with pytest.raises(InvalidChainMapError):
        complete_triangle_morphism(one, one, k1, k2)
    s = Homotopy.create(x, x, {1: Matrix.from_rows(F5, [[1]])})
    k3 = complete_triangle_morphism(one, one, k1, k2, s)
    assert validate_chain_map(k3).ok
    # blocks: top row (k1, 0) = 0, bottom row (s, k2)
    assert k3.component(0) == Matrix.from_rows(F5, [[0, 0], [1, 1]])


def test_complete_rejects_bad_witness():
    x = contractible(F5)
    one = identity_chain_map(x)
    s = Homotopy.create(x, x, {1: Matrix.from_rows(F5, [[3]])})
    with pytest.raises(InvalidChainMapError):
        complete_triangle_morphism(one, one, zero_chain_map(x, x), one, s)


def test_complete_impossible_witness_rejected():
    # on the point (zero differential) no s can repair id vs 0
    p = point(F5)
    one = identity_chain_map(p)
    with pytest.raises(InvalidChainMapError):
        complete_triangle_morphism(one, one, zero_chain_map(p, p), one)


def test_completed_morphism_naturality_squares():
    rng = random.Random(19)
    for _ in range(15):
        a = random_complex(rng, F5, max_dim=3)
        b = random_complex(rng, F5, max_dim=3)
        f = random_chain_map(rng, a, b)
        mc = mapping_cone(f)
        k3 = complete_triangle_morphism(f, f, identity_chain_map(a), identity_chain_map(b))
        # incl naturality: k3 ∘ incl = incl ∘ k2, proj naturality:
        # proj ∘ k3 = k1[1] ∘ proj; with identity verticals both squares
        # collapse to strict equalities of the structural maps
        assert compose_chain_maps(mc.incl, k3) == mc.incl
        assert compose_chain_maps(k3, mc.proj) == mc.proj


def test_completed_morphism_witnessed_naturality():
    # naturality of incl/proj holds strictly even for the witnessed case
    x = contractible(F5)
    one = identity_chain_map(x)
    s = Homotopy.create(x, x, {1: Matrix.from_rows(F5, [[1]])})
    k1 = zero_chain_map(x, x)
    k2 = one
    k3 = complete_triangle_morphism(one, one, k1, k2, s)
    mc = mapping_cone(one)
    assert compose_chain_maps(mc.incl, k3) == compose_chain_maps(k2, mc.incl)
    assert compose_chain_maps(k3, mc.proj) == compose_chain_maps(
        mc.proj, shift_chain_map(k1, 1)
    )


def test_cone_acyclic_iff_qis():
    from homcat import is_quasi_iso
    from randgen import random_quasi_iso

    rng = random.Random(21)
    for _ in range(25):
        q = random_quasi_iso(rng, F5)
        assert is_quasi_iso(q)
        assert is_acyclic(mapping_cone(q).cone)
    for _ in range(25):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        f = random_chain_map(rng, a, b)
        assert is_quasi_iso(f) == is_acyclic(mapping_cone(f).cone)


# each leg of a triangle is validated once, with the error of the first bad one


def _triangle_with_bad_legs(field, bad):
    """The cone triangle of the identity on the contractible complex,
    with g^1 doubled (so g fails to commute at degree 0) and h^{-1}
    tripled (so h fails at degree -1) for each leg named in ``bad``."""
    a = contractible(field)
    t = cone_triangle(identity_chain_map(a))
    g, h = t.g, t.h
    if "g" in bad:
        g = ChainMap.create(g.source, g.target, {**{i: g.component(i) for i in g.window},
                                                 1: Matrix.from_rows(field, [[2]])})
    if "h" in bad:
        h = ChainMap.create(h.source, h.target, {**{i: h.component(i) for i in h.window},
                                                 -1: Matrix.from_rows(field, [[3]])})
    return Triangle(t.f, g, h)


@pytest.mark.parametrize("field", [F5, Q], ids=str)
@pytest.mark.parametrize("bad, degree", [("g", 0), ("h", -1), ("gh", 0)])
def test_non_commuting_leg_raises_the_first_failure(field, bad, degree):
    t = _triangle_with_bad_legs(field, bad)
    message = f"square fails to commute at degree {degree}"
    with pytest.raises(InvalidChainMapError) as caught:
        check_les_exact(t)
    assert str(caught.value) == message
    leg = t.g if "g" in bad else t.h
    with pytest.raises(InvalidChainMapError) as caught:
        is_quasi_iso(leg)
    assert str(caught.value) == message

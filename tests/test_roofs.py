"""Roofs, cospan flips, roof composition, and equivalence witnesses.

The flip construction has an independent oracle: the flipped complex
must equal shift(MC(incl ∘ alpha), -1) where incl is the cone inclusion
of beta.  That identity is derived by unwinding both definitions and is
checked here degreewise as exact data equality.
"""

import random

import pytest

from homcat import (
    ChainMap,
    CochainComplex,
    Cospan,
    FieldSpec,
    Homotopy,
    Matrix,
    NotQuasiIsoError,
    Roof,
    RoofEquivalenceWitness,
    block,
    check_homotopy,
    check_les_exact,
    cohomology,
    compose_chain_maps,
    compose_roofs,
    find_homotopy,
    flip_cospan,
    identity_chain_map,
    is_quasi_iso,
    lift_map_to_roof,
    mapping_cone,
    mat_neg,
    mat_sub,
    shift,
    validate_chain_map,
    validate_complex,
    verify_roof_equivalence,
    zero_chain_map,
)
from randgen import (
    F2,
    F5,
    Q,
    random_chain_map,
    random_complex,
    random_cospan,
    random_quasi_iso,
)


def point(field):
    return CochainComplex.create(field, dims={0: 1})


def identity_cospan(field):
    p = point(field)
    one = identity_chain_map(p)
    return Cospan(alpha=one, beta=one)


# Roof / Cospan invariants


def test_roof_requires_qis_denominator():
    p = point(F5)
    with pytest.raises(NotQuasiIsoError):
        Roof(apex=p, denom=zero_chain_map(p, p), numer=identity_chain_map(p))


def test_cospan_requires_qis_beta():
    p = point(F5)
    with pytest.raises(NotQuasiIsoError):
        Cospan(alpha=identity_chain_map(p), beta=zero_chain_map(p, p))


# flip_cospan: frozen point example


@pytest.mark.parametrize("field", [F2, F5])
def test_flip_point_example(field):
    res = flip_cospan(identity_cospan(field))
    k = res.k_complex
    assert (k.lo, k.hi) == (0, 1)
    assert k.dim(0) == 2 and k.dim(1) == 1
    minus_one = field.coerce(-1)
    assert k.d(0) == Matrix.from_rows(field, [[minus_one, minus_one]])
    assert cohomology(k, 0).dim == 1
    assert cohomology(k, 1).dim == 0
    # the cocycle (1, -1) spans H^0
    v = Matrix.from_rows(field, [[1], [minus_one]])
    from homcat import mat_mul

    assert mat_mul(k.d(0), v).is_zero()
    assert is_quasi_iso(res.gamma2)
    assert res.witness.component(1) == Matrix.from_rows(field, [[minus_one]])
    # gamma2 = (id, 0, .), gamma1 = (0, -id, .)
    assert res.gamma2.component(0) == Matrix.from_rows(field, [[1, 0]])
    assert res.gamma1.component(0) == Matrix.from_rows(field, [[0, minus_one]])


def test_flip_dims_bookkeeping():
    # blocks of the flipped complex: alpha's source, beta's source, and
    # the shared target pushed down one degree
    rng = random.Random(3)
    for _ in range(20):
        cs = random_cospan(rng, F5)
        res = flip_cospan(cs)
        left = cs.alpha.source
        right = cs.beta.source
        shared = cs.alpha.target
        k = res.k_complex
        for i in range(k.lo, k.hi + 1):
            assert k.dim(i) == left.dim(i) + right.dim(i) + shared.dim(i - 1)
        assert res.gamma2.source == k and res.gamma2.target == left
        assert res.gamma1.source == k and res.gamma1.target == right
        assert res.witness.source == k and res.witness.target == shared


def test_flip_witness_identity():
    # the defining identity: beta gamma1 - alpha gamma2 = d h + h d
    rng = random.Random(5)
    for field in (F5, Q):
        for _ in range(15):
            cs = random_cospan(rng, field)
            res = flip_cospan(cs)
            top = compose_chain_maps(res.gamma2, cs.alpha)
            bottom = compose_chain_maps(res.gamma1, cs.beta)
            assert check_homotopy(bottom, top, res.witness)
            rediscovered = find_homotopy(bottom, top)
            assert rediscovered is not None


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_flip_difference_is_alpha_beta_zero(field):
    # (alpha gamma2 - beta gamma1)^i = [alpha^i | beta^i | 0], block order (L, M, Kbar)
    rng = random.Random(6)
    for _ in range(30):
        cs = random_cospan(rng, field)
        res = flip_cospan(cs)
        top = compose_chain_maps(res.gamma2, cs.alpha)
        bottom = compose_chain_maps(res.gamma1, cs.beta)
        kbar = cs.alpha.target
        for i in range(res.k_complex.lo, res.k_complex.hi + 1):
            zero = Matrix.zeros(field, kbar.dim(i), kbar.dim(i - 1))
            want = block(field, [[cs.alpha.component(i), cs.beta.component(i), zero]])
            assert mat_sub(top.component(i), bottom.component(i)) == want


def test_flip_gamma2_is_quasi_iso_over_q():
    # over F_5 acceptance criterion 4 asserts it on 200 flips
    rng = random.Random(8)
    for _ in range(40):
        assert is_quasi_iso(flip_cospan(random_cospan(rng, Q)).gamma2)


def test_flip_alpha_zero():
    # with alpha = 0 the witness exhibits beta gamma1 as null-homotopic
    rng = random.Random(7)
    for _ in range(10):
        cs = random_cospan(rng, F5)
        zero_alpha = zero_chain_map(cs.alpha.source, cs.alpha.target)
        res = flip_cospan(Cospan(alpha=zero_alpha, beta=cs.beta))
        bg1 = compose_chain_maps(res.gamma1, cs.beta)
        zero_map = zero_chain_map(res.k_complex, cs.alpha.target)
        assert check_homotopy(bg1, zero_map, res.witness)


def test_flip_preserves_cohomology_of_source():
    rng = random.Random(9)
    for _ in range(15):
        cs = random_cospan(rng, F5)
        res = flip_cospan(cs)
        big_l = cs.alpha.source
        k = res.k_complex
        lo = min(big_l.lo, k.lo)
        hi = max(big_l.hi, k.hi)
        for i in range(lo, hi + 1):
            assert cohomology(big_l, i).dim == cohomology(k, i).dim


def test_flip_equals_shifted_cone_route():
    # independent construction: form gamma = incl_MC(beta) ∘ alpha into
    # the cone of beta, take its cone, shift by -1; the result must be
    # degreewise identical to the flipped complex, differential included
    rng = random.Random(11)
    for field in (F5, Q):
        for _ in range(12):
            cs = random_cospan(rng, field)
            res = flip_cospan(cs)
            mc_beta = mapping_cone(cs.beta)
            gamma = compose_chain_maps(cs.alpha, mc_beta.incl)
            other = shift(mapping_cone(gamma).cone, -1)
            assert other == res.k_complex


@pytest.mark.parametrize("field", [F5, Q, FieldSpec.prime(2**31 - 1)], ids=str)
def test_flip_matches_the_block_form(field):
    # the block form of the module docstring, every block written out and
    # every negated one negated by mat_neg, and so are the three maps
    rng = random.Random(19)
    for _ in range(15):
        cs = random_cospan(rng, field)
        big_l, big_m, kbar = cs.alpha.source, cs.beta.source, cs.alpha.target
        lo = min(big_l.lo, big_m.lo, kbar.lo + 1)
        hi = max(big_l.hi, big_m.hi, kbar.hi + 1)
        dims = {i: big_l.dim(i) + big_m.dim(i) + kbar.dim(i - 1) for i in range(lo, hi + 1)}

        def zeros(rows, cols):
            return Matrix.zeros(field, rows, cols)

        diff = {
            i: block(field, [
                [big_l.d(i), zeros(big_l.dim(i + 1), big_m.dim(i)), zeros(big_l.dim(i + 1), kbar.dim(i - 1))],
                [zeros(big_m.dim(i + 1), big_l.dim(i)), big_m.d(i), zeros(big_m.dim(i + 1), kbar.dim(i - 1))],
                [mat_neg(cs.alpha.component(i)), mat_neg(cs.beta.component(i)), mat_neg(kbar.d(i - 1))],
            ])
            for i in range(lo, hi)
        }
        want = CochainComplex.create(field, dims, diff, lo=lo, hi=hi)
        res = flip_cospan(cs)
        assert res.k_complex == want
        for i in range(lo, hi + 1):
            ident = Matrix.identity(field, dims[i])
            nl, nlm = big_l.dim(i), big_l.dim(i) + big_m.dim(i)
            assert res.gamma2.component(i) == ident.take_rows(range(nl))
            assert res.gamma1.component(i) == mat_neg(ident.take_rows(range(nl, nlm)))
            assert res.witness.component(i) == mat_neg(ident.take_rows(range(nlm, dims[i])))


def test_flip_acyclicity_chain():
    rng = random.Random(13)
    for _ in range(15):
        cs = random_cospan(rng, F5)
        assert is_acyclic_cone_of_beta(cs)


def is_acyclic_cone_of_beta(cs):
    from homcat import is_acyclic

    return is_acyclic(mapping_cone(cs.beta).cone)


# lift_map_to_roof


def test_lift_identity():
    p = point(F5)
    one = identity_chain_map(p)
    r = lift_map_to_roof(one)
    assert r.apex == p and r.denom == one and r.numer == one


def test_lift_zero():
    p = point(F5)
    r = lift_map_to_roof(zero_chain_map(p, p))
    assert r.denom == identity_chain_map(p)
    assert r.numer == zero_chain_map(p, p)
    assert is_quasi_iso(r.denom)


def test_lift_random_always_roof():
    rng = random.Random(15)
    for _ in range(20):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        f = random_chain_map(rng, a, b)
        r = lift_map_to_roof(f)
        assert is_quasi_iso(r.denom)
        assert r.numer == f


# compose_roofs


def test_compose_identity_lifts_dims():
    rng = random.Random(17)
    a = random_complex(rng, F5)
    one = identity_chain_map(a)
    r = compose_roofs(lift_map_to_roof(one), lift_map_to_roof(one))
    for i in range(r.apex.lo, r.apex.hi + 1):
        assert r.apex.dim(i) == 2 * a.dim(i) + a.dim(i - 1)
    assert is_quasi_iso(r.denom)


def test_compose_output_is_roof():
    rng = random.Random(19)
    for _ in range(12):
        a = random_complex(rng, F5, max_dim=3)
        b = random_complex(rng, F5, max_dim=3)
        c = random_complex(rng, F5, max_dim=3)
        f = random_chain_map(rng, a, b)
        g = random_chain_map(rng, b, c)
        r = compose_roofs(lift_map_to_roof(f), lift_map_to_roof(g))
        assert is_quasi_iso(r.denom)
        assert validate_chain_map(r.numer).ok
        assert r.denom.source == r.apex and r.numer.source == r.apex
        assert r.denom.target == a and r.numer.target == c


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_compose_genuine_roofs_has_qis_denominator(field):
    # A <-s1- B1' -f1-> B <-s2- B2' -f2-> C with non-identity quasi-isos s1, s2
    rng = random.Random(20)
    for _ in range(20):
        s1, s2 = random_quasi_iso(rng, field), random_quasi_iso(rng, field)
        f1 = random_chain_map(rng, s1.source, s2.target)
        c = random_complex(rng, field, max_dim=3)
        f2 = random_chain_map(rng, s2.source, c)
        r = compose_roofs(Roof(s1.source, s1, f1), Roof(s2.source, s2, f2))
        assert r.denom.source == r.apex and r.numer.source == r.apex
        assert r.denom.target == s1.target and r.numer.target == c
        assert is_quasi_iso(r.denom)


def test_compose_rejects_mismatched_roofs():
    p = point(F5)
    q = CochainComplex.create(F5, dims={0: 2})
    r1 = lift_map_to_roof(identity_chain_map(p))
    r2 = lift_map_to_roof(identity_chain_map(q))
    from homcat import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        compose_roofs(r1, r2)


# verify_roof_equivalence


def test_equivalence_reflexive():
    rng = random.Random(21)
    a = random_complex(rng, F5)
    b = random_complex(rng, F5)
    f = random_chain_map(rng, a, b)
    r = lift_map_to_roof(f)
    one = identity_chain_map(a)
    w = RoofEquivalenceWitness(apex3=a, denom3=one, numer3=f, up=one, down=one)
    assert verify_roof_equivalence(r, r, w)


def test_equivalence_rejects_distinct_cohomology_classes():
    # 0 vs id on the point: any conforming witness fails because a
    # passing one would equate the induced maps on H^0
    p = point(F5)
    one = identity_chain_map(p)
    zero = zero_chain_map(p, p)
    r1 = lift_map_to_roof(one)
    r2 = lift_map_to_roof(zero)
    w = RoofEquivalenceWitness(apex3=p, denom3=one, numer3=one, up=one, down=one)
    assert not verify_roof_equivalence(r1, r2, w)
    w2 = RoofEquivalenceWitness(apex3=p, denom3=one, numer3=zero, up=one, down=one)
    assert not verify_roof_equivalence(r1, r2, w2)


def functoriality_witness(f, g, composed):
    """Witness that compose(lift f, lift g) is equivalent to lift(g∘f).

    The composed roof's apex K comes from flipping (alpha = f,
    beta = id_B); gamma2 = its denominator leg, and the flip witness
    makes numer = g∘gamma1 homotopic to g∘f∘gamma2.  Taking apex3 = K,
    up = id_K, down = the denominator leg closes all four squares.
    """
    k = composed.apex
    one_k = identity_chain_map(k)
    return RoofEquivalenceWitness(
        apex3=k,
        denom3=composed.denom,
        numer3=composed.numer,
        up=one_k,
        down=composed.denom,
    )


def test_compose_functorial_up_to_equivalence():
    rng = random.Random(23)
    for _ in range(10):
        a = random_complex(rng, F5, max_dim=3)
        b = random_complex(rng, F5, max_dim=3)
        c = random_complex(rng, F5, max_dim=3)
        f = random_chain_map(rng, a, b)
        g = random_chain_map(rng, b, c)
        composed = compose_roofs(lift_map_to_roof(f), lift_map_to_roof(g))
        plain = lift_map_to_roof(compose_chain_maps(f, g))
        w = functoriality_witness(f, g, composed)
        assert verify_roof_equivalence(composed, plain, w)


def test_compose_with_identity_right_unit():
    rng = random.Random(25)
    for _ in range(8):
        a = random_complex(rng, F5, max_dim=3)
        b = random_complex(rng, F5, max_dim=3)
        f = random_chain_map(rng, a, b)
        r = lift_map_to_roof(f)
        one_b = lift_map_to_roof(identity_chain_map(b))
        composed = compose_roofs(r, one_b)
        w = functoriality_witness(f, identity_chain_map(b), composed)
        assert verify_roof_equivalence(composed, r, w)


def test_equivalence_shape_checks():
    from homcat import ShapeMismatchError

    p = point(F5)
    q = CochainComplex.create(F5, dims={0: 2})
    one = identity_chain_map(p)
    r = lift_map_to_roof(one)
    bad = RoofEquivalenceWitness(
        apex3=q,
        denom3=zero_chain_map(q, q),
        numer3=zero_chain_map(q, q),
        up=zero_chain_map(q, p),
        down=zero_chain_map(q, p),
    )
    with pytest.raises(ShapeMismatchError):
        verify_roof_equivalence(r, r, bad)

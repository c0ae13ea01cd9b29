"""Chain maps, homotopies, induced maps, quasi-isomorphism tests.

The completeness oracle for find_homotopy enumerates every candidate
homotopy over F2; over F5 and Q its verdicts are checked on complexes
conjugated from standard form, whose maps on cohomology are known by
construction.  The induced-map examples are checked against hand
computations recorded inline.
"""

import gc
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest

from homcat import (
    ChainMap,
    CochainComplex,
    Homotopy,
    InvalidChainMapError,
    InvalidComplexError,
    Matrix,
    ShapeMismatchError,
    check_homotopy,
    check_homotopy_equivalence,
    check_les_exact,
    cohomology,
    compose_chain_maps,
    cone_triangle,
    find_homotopy,
    identity_chain_map,
    induced_cohomology_map,
    is_quasi_iso,
    mat_mul,
    perturb_by_homotopy,
    validate_chain_map,
    zero_chain_map,
    zero_homotopy,
)
from homcat.chainmaps import _INTERNED, _induced_map
from randgen import (
    F2,
    F5,
    Q,
    random_chain_map,
    random_complex,
    random_homotopy,
    random_quasi_iso,
    random_scalar,
    standard_chain_map,
    standard_complex,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def contractible(field):
    """0 -> F -> F -> 0 with the identity differential."""
    return CochainComplex.create(
        field, dims={0: 1, 1: 1}, diff={0: Matrix.identity(field, 1)}
    )


def point(field):
    """0 -> F -> 0 concentrated in degree 0."""
    return CochainComplex.create(field, dims={0: 1})


def all_homotopies_f2(a, b):
    """Every homotopy a -> b over F2, by entrywise enumeration."""
    slots = []
    lo, hi = max(a.lo, b.lo + 1), min(a.hi, b.hi + 1)
    for i in range(lo, hi + 1):
        rows, cols = b.dim(i - 1), a.dim(i)
        if rows and cols:
            slots.append((i, rows, cols))
    total = sum(r * c for _, r, c in slots)
    for bits in product([0, 1], repeat=total):
        comps = {}
        pos = 0
        for i, r, c in slots:
            comps[i] = Matrix.from_rows(
                F2,
                [list(bits[pos + t * c : pos + (t + 1) * c]) for t in range(r)],
                cols=c,
            )
            pos += r * c
        yield Homotopy.create(a, b, comps)


# validate_chain_map


def test_validate_identity():
    rng = random.Random(3)
    c = random_complex(rng, F5)
    assert validate_chain_map(identity_chain_map(c)).ok


def test_validate_zero_map():
    rng = random.Random(4)
    a, b = random_complex(rng, F5), random_complex(rng, F5)
    assert validate_chain_map(zero_chain_map(a, b)).ok


def test_validate_failure_reports_degree_and_products():
    # source: two degrees, zero differential; target: contractible.
    # f^0 = [[1]], f^1 = [[0]]: at degree 0, d_B f^0 = [[1]] but
    # f^1 d_A = [[0]], so the first failing degree is 0.
    a = CochainComplex.create(F5, dims={0: 1, 1: 1})
    b = contractible(F5)
    f = ChainMap.create(a, b, {0: Matrix.from_rows(F5, [[1]])})
    report = validate_chain_map(f)
    assert not report.ok
    assert report.degree == 0
    assert report.left == Matrix.from_rows(F5, [[1]])
    assert report.right == Matrix.from_rows(F5, [[0]])


# compose_chain_maps


def test_compose_identity_absorbs():
    rng = random.Random(5)
    a, b = random_complex(rng, F5), random_complex(rng, F5)
    f = random_chain_map(rng, a, b)
    assert compose_chain_maps(identity_chain_map(a), f) == f
    assert compose_chain_maps(f, identity_chain_map(b)) == f


def test_compose_with_zero():
    rng = random.Random(6)
    a, b = random_complex(rng, F5), random_complex(rng, F5)
    f = random_chain_map(rng, a, b)
    z = zero_chain_map(b, a)
    assert compose_chain_maps(f, z) == zero_chain_map(a, a)


def test_compose_one_degree_modular():
    p = point(F5)
    f = ChainMap.create(p, p, {0: Matrix.from_rows(F5, [[3]])})
    g = ChainMap.create(p, p, {0: Matrix.from_rows(F5, [[2]])})
    assert compose_chain_maps(f, g).component(0) == Matrix.from_rows(F5, [[1]])


def test_compose_rejects_mismatched_middle():
    a = point(F5)
    b = contractible(F5)
    with pytest.raises(ShapeMismatchError):
        compose_chain_maps(zero_chain_map(a, a), zero_chain_map(b, b))


# maps and homotopies: the degree 0 and -1 cases of one graded type


def point_and_two_step(field):
    """A point in degree 0, and points in degrees -1 and 0 with zero differential.

    Maps and homotopies between them both have the storage window {0}
    and 1 x 1 components there.
    """
    a = CochainComplex.create(field, dims={0: 1})
    b = CochainComplex.create(field, dims={-1: 1, 0: 1})
    return a, b


def test_map_and_homotopy_with_equal_data_differ():
    a, b = point_and_two_step(F5)
    comps = {0: Matrix.identity(F5, 1)}
    f = ChainMap.create(a, b, comps)
    k = Homotopy.create(a, b, comps)
    assert (f.source, f.target, f.components) == (k.source, k.target, k.components)
    assert f != k and k != f
    assert f == ChainMap.create(a, b, comps)
    assert k == Homotopy.create(a, b, comps)


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_create_returns_one_map_per_value(field):
    # each call builds its own complexes and matrices, equal to the first's
    entry = Fraction(-2, 3) if field == Q else 4

    def build(cls):
        a, b = point_and_two_step(field)
        return cls.create(a, b, {0: Matrix.from_rows(field, [[entry]])})

    f, k = build(ChainMap), build(Homotopy)
    assert build(ChainMap) is f
    assert build(Homotopy) is k
    # the class is part of the value: the same data stays two objects
    assert (f.source, f.target, f.components) == (k.source, k.target, k.components)
    assert f is not k and f != k
    assert type(f) is ChainMap and type(k) is Homotopy
    a, b = point_and_two_step(field)
    assert ChainMap.create(a, b, {0: Matrix.from_rows(field, [[1]])}) is not f


def test_intern_table_holds_maps_weakly():
    gc.collect()
    before = len(_INTERNED)
    f = identity_chain_map(CochainComplex.create(F5, dims={-10**6: 2}))
    assert len(_INTERNED) == before + 1
    del f
    gc.collect()
    assert len(_INTERNED) == before
    # a stream of fresh maps and homotopies, none kept
    for n in range(1_000):
        c = CochainComplex.create(F5, dims={n: 1})
        identity_chain_map(c)
        zero_homotopy(c, c)
    gc.collect()
    assert len(_INTERNED) <= before


@pytest.mark.parametrize("cls, noun", [(ChainMap, "component"), (Homotopy, "homotopy component")])
def test_shape_errors_name_the_component_kind(cls, noun):
    a, b = point_and_two_step(F5)
    wrong = Matrix.zeros(F5, 2, 1)
    with pytest.raises(ShapeMismatchError) as info:
        cls.create(a, b, {0: wrong})
    assert str(info.value) == f"{noun} at degree 0 has shape 2x1, needs 1x1"
    with pytest.raises(ShapeMismatchError) as info:
        cls.create(a, b, {5: wrong})
    assert str(info.value) == f"{noun} at degree 5 does not fit"


# check_homotopy


def test_zero_homotopy_relates_equal_maps():
    rng = random.Random(7)
    a, b = random_complex(rng, F5), random_complex(rng, F5)
    f = random_chain_map(rng, a, b)
    assert check_homotopy(f, f, zero_homotopy(a, b))


def degreewise_homotopy_check(f, g, k):
    """g^i - f^i = d_B^{i-1} k^i + k^{i+1} d_A^i at every degree of the hull, on row lists."""
    s, t = f.source, f.target
    fld = s.field

    def mul(x, y):
        out = [[fld.zero()] * y.cols for _ in range(x.rows)]
        for r in range(x.rows):
            for c in range(y.cols):
                for j in range(x.cols):
                    out[r][c] = fld.coerce(out[r][c] + x[r, j] * y[j, c])
        return out

    for i in range(min(s.lo, t.lo) - 1, max(s.hi, t.hi) + 2):
        gi, fi = g.component(i), f.component(i)
        lhs = [[fld.coerce(gi[r, c] - fi[r, c]) for c in range(gi.cols)] for r in range(gi.rows)]
        dk = mul(t.d(i - 1), k.component(i))
        kd = mul(k.component(i + 1), s.d(i))
        rhs = [[fld.coerce(x + y) for x, y in zip(r1, r2)] for r1, r2 in zip(dk, kd)]
        if lhs != rhs:
            return False
    return True


def corrupt_one_entry(rng, m):
    """m with one entry of one nonempty component moved by 1, or m if all are empty."""
    fld = m.source.field
    nonempty = [i for i in m.window if m.component(i).rows and m.component(i).cols]
    if not nonempty:
        return m
    i = rng.choice(nonempty)
    rows = m.component(i).to_rows()
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[r][c] = fld.coerce(rows[r][c] + 1)
    comps = {j: m.component(j) for j in m.window}
    comps[i] = Matrix.from_rows(fld, rows)
    return type(m).create(m.source, m.target, comps)


def test_check_homotopy_agrees_with_degreewise_evaluation():
    rng = random.Random(17)
    verdicts = []
    one_sided_degrees = 0
    for field in (F2, F5, Q):
        for trial in range(40):
            a = random_complex(rng, field, max_dim=3)
            b = random_complex(rng, field, max_dim=3)
            f = random_chain_map(rng, a, b)
            k = random_homotopy(rng, a, b)
            g = perturb_by_homotopy(f, k)
            kind = trial % 4
            if kind == 1:
                g = corrupt_one_entry(rng, g)
            elif kind == 2:
                k = corrupt_one_entry(rng, k)
            elif kind == 3:
                g = random_chain_map(rng, a, b)
            verdict = check_homotopy(f, g, k)
            assert verdict == degreewise_homotopy_check(f, g, k), (field, trial)
            verdicts.append(verdict)
            hull = range(min(a.lo, b.lo), max(a.hi, b.hi) + 1)
            one_sided_degrees += sum((a.dim(i) > 0) != (b.dim(i) > 0) for i in hull)
    assert len(verdicts) >= 100
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30
    assert one_sided_degrees >= 50


def test_contraction_of_two_term_complex():
    # k^1 = [[-1]]: degree 0 gives k^1 d^0 = -1, degree 1 gives
    # d^0 k^1 = -1, both equal (0 - id)^i
    a = contractible(F5)
    f = identity_chain_map(a)
    g = zero_chain_map(a, a)
    k = Homotopy.create(a, a, {1: Matrix.from_rows(F5, [[-1]])})
    assert check_homotopy(f, g, k)


def test_no_homotopy_on_zero_differential():
    p = point(F5)
    f = zero_chain_map(p, p)
    g = identity_chain_map(p)
    k = zero_homotopy(p, p)  # the only shape-conforming homotopy
    assert not check_homotopy(f, g, k)


# find_homotopy


def test_find_homotopy_equal_maps():
    rng = random.Random(9)
    a, b = random_complex(rng, F5), random_complex(rng, F5)
    f = random_chain_map(rng, a, b)
    k = find_homotopy(f, f)
    assert k is not None
    assert check_homotopy(f, f, k)


def test_find_homotopy_contractible_witness():
    a = contractible(F5)
    f = identity_chain_map(a)
    g = zero_chain_map(a, a)
    k = find_homotopy(f, g)
    assert k is not None
    assert check_homotopy(f, g, k)


def test_find_homotopy_none_on_point():
    p = point(F5)
    assert find_homotopy(identity_chain_map(p), zero_chain_map(p, p)) is None


def test_find_homotopy_agrees_with_enumeration():
    rng = random.Random(11)
    for _ in range(25):
        a = random_complex(rng, F2, max_dim=2, max_width=3)
        b = random_complex(rng, F2, max_dim=2, max_width=3)
        unknowns = sum(
            b.dim(i - 1) * a.dim(i)
            for i in range(max(a.lo, b.lo + 1), min(a.hi, b.hi + 1) + 1)
        )
        if unknowns > 10:
            continue
        f = random_chain_map(rng, a, b)
        g = random_chain_map(rng, a, b)
        found = find_homotopy(f, g)
        exists = any(
            check_homotopy(f, g, k) for k in all_homotopies_f2(a, b)
        )
        assert (found is not None) == exists
        if found is not None:
            assert check_homotopy(f, g, found)


def random_coh(rng, a, b):
    """Random cohomology blocks for standard maps a -> b."""
    return [
        [[random_scalar(rng, a.complex.field) for _ in range(sa[1])] for _ in range(sb[1])]
        for sa, sb in zip(a.splits, b.splits)
    ]


def random_standard_pair(rng, field, max_dim):
    """Two standard complexes on degrees 0..3 with random ranks."""
    out = []
    for _ in range(2):
        dims = [rng.randint(0, max_dim) for _ in range(4)]
        ranks = []
        for i in range(3):
            room = min(dims[i] - (ranks[-1] if ranks else 0), dims[i + 1])
            ranks.append(rng.randint(0, room))
        out.append(standard_complex(rng, field, dims, ranks))
    return out


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_find_homotopy_witnesses_perturbed_pairs(field):
    rng = random.Random(51)
    for _ in range(30):
        a, b = random_standard_pair(rng, field, max_dim=4)
        f = standard_chain_map(rng, a, b, random_coh(rng, a, b))
        g = perturb_by_homotopy(f, random_homotopy(rng, a.complex, b.complex))
        k = find_homotopy(f, g)
        assert k is not None
        assert check_homotopy(f, g, k)


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_find_homotopy_none_when_cohomology_differs(field):
    rng = random.Random(53)
    checked = 0
    for _ in range(40):
        a, b = random_standard_pair(rng, field, max_dim=4)
        coh = random_coh(rng, a, b)
        nonempty = [i for i, m in enumerate(coh) if m and m[0]]
        if not nonempty:
            continue
        i = rng.choice(nonempty)
        other = [[row[:] for row in m] for m in coh]
        other[i][0][0] = field.coerce(other[i][0][0] + 1)
        f = standard_chain_map(rng, a, b, coh)
        g = standard_chain_map(rng, a, b, other)
        assert find_homotopy(f, g) is None
        # equal cohomology blocks with fresh random blocks elsewhere
        h = standard_chain_map(rng, a, b, coh)
        k = find_homotopy(f, h)
        assert k is not None and check_homotopy(f, h, k)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_find_homotopy_none_when_difference_is_not_a_chain_map(field):
    rng = random.Random(55)
    checked = 0
    for _ in range(60):
        a = random_complex(rng, field, max_dim=3)
        b = random_complex(rng, field, max_dim=3)
        f = random_chain_map(rng, a, b)
        g = perturb_by_homotopy(f, random_homotopy(rng, a, b))
        slots = [j for j, m in enumerate(g.components) if m.rows and m.cols]
        if not slots:
            continue
        j = rng.choice(slots)
        m = g.components[j]
        e = list(m.entries)
        spot = rng.randrange(len(e))
        e[spot] = field.coerce(e[spot] + 1)
        bumped = Matrix(m.rows, m.cols, tuple(e), field)
        g = ChainMap(g.source, g.target, g.components[:j] + (bumped,) + g.components[j + 1 :])
        # f is a chain map, so g - f is one exactly when g is
        if validate_chain_map(g).ok:
            continue
        assert find_homotopy(f, g) is None
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_find_homotopy_witnesses_maps_that_share_a_defect(field):
    # f and g both fail the square check by the same defect, yet g - f =
    # D(k) is a chain map: the answer rests on g - f, not on f or g
    rng = random.Random(59)
    checked = 0
    for _ in range(60):
        a = random_complex(rng, field, max_dim=3)
        b = random_complex(rng, field, max_dim=3)
        f = corrupt_one_entry(rng, random_chain_map(rng, a, b))
        if validate_chain_map(f).ok:
            continue
        g = perturb_by_homotopy(f, random_homotopy(rng, a, b))
        assert not validate_chain_map(g).ok
        k = find_homotopy(f, g)
        assert k is not None
        assert check_homotopy(f, g, k)
        checked += 1
    assert checked >= 10


def test_find_homotopy_at_roadmap_size():
    # dims (22, 24, 23, 23) over F5: about 1,600 homotopy entries
    rng = random.Random(57)
    dims = [22, 24, 23, 23]
    a = standard_complex(rng, F5, dims, [9, 10, 9])
    b = standard_complex(rng, F5, dims, [8, 11, 8])
    coh = random_coh(rng, a, b)
    f = standard_chain_map(rng, a, b, coh)
    g = perturb_by_homotopy(f, random_homotopy(rng, a.complex, b.complex))
    k = find_homotopy(f, g)
    assert k is not None
    assert check_homotopy(f, g, k)
    coh[2][0][0] = (coh[2][0][0] + 1) % 5
    assert find_homotopy(f, standard_chain_map(rng, a, b, coh)) is None


def test_find_homotopy_rejects_invalid_complex():
    d0 = Matrix.identity(F2, 2)
    d1 = Matrix.from_rows(F2, [[1, 1]])
    c = CochainComplex.create(F2, dims={0: 2, 1: 2, 2: 1}, diff={0: d0, 1: d1})
    f = identity_chain_map(c)
    with pytest.raises(InvalidComplexError):
        find_homotopy(f, f)


def test_find_homotopy_self_check_survives_optimize():
    # under -O an assert would vanish; the witness check must still raise
    code = textwrap.dedent(
        """
        import homcat.chainmaps as cm
        from homcat import CochainComplex, FieldSpec, Matrix, identity_chain_map, zero_chain_map

        if __debug__:
            raise SystemExit("not running under -O")
        F5 = FieldSpec.prime(5)
        c = CochainComplex.create(F5, dims={0: 1, 1: 1}, diff={0: Matrix.identity(F5, 1)})
        cm.check_homotopy = lambda f, g, k: False
        try:
            cm.find_homotopy(identity_chain_map(c), zero_chain_map(c, c))
        except RuntimeError:
            raise SystemExit(0)
        raise SystemExit("find_homotopy returned without raising")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# perturb_by_homotopy


def test_perturb_by_zero():
    rng = random.Random(13)
    a, b = random_complex(rng, F5), random_complex(rng, F5)
    f = random_chain_map(rng, a, b)
    assert perturb_by_homotopy(f, zero_homotopy(a, b)) == f


def test_perturb_zero_map_to_identity():
    a = contractible(F5)
    k = Homotopy.create(a, a, {1: Matrix.identity(F5, 1)})
    g = perturb_by_homotopy(zero_chain_map(a, a), k)
    assert g == identity_chain_map(a)


def test_perturb_always_valid_and_witnessed():
    rng = random.Random(15)
    for field in (F5, Q):
        for _ in range(30):
            a = random_complex(rng, field, max_dim=3)
            b = random_complex(rng, field, max_dim=3)
            f = random_chain_map(rng, a, b)
            k = random_homotopy(rng, a, b)
            g = perturb_by_homotopy(f, k)
            assert validate_chain_map(g).ok
            assert check_homotopy(f, g, k)


# induced_cohomology_map


def test_induced_identity():
    rng = random.Random(17)
    c = random_complex(rng, F5)
    f = identity_chain_map(c)
    for i in range(c.lo, c.hi + 1):
        m = induced_cohomology_map(f, i)
        assert m == Matrix.identity(F5, cohomology(c, i).dim)


def test_induced_zero():
    rng = random.Random(19)
    a, b = random_complex(rng, F5), random_complex(rng, F5)
    z = zero_chain_map(a, b)
    for i in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
        assert induced_cohomology_map(z, i).is_zero()


def test_null_homotopic_maps_vanish_in_cohomology():
    rng = random.Random(21)
    for _ in range(40):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        k = random_homotopy(rng, a, b)
        f = perturb_by_homotopy(zero_chain_map(a, b), k)
        for i in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
            assert induced_cohomology_map(f, i).is_zero()


def test_homotopic_maps_same_induced():
    rng = random.Random(23)
    for _ in range(60):
        a = random_complex(rng, F5)
        b = random_complex(rng, F5)
        f = random_chain_map(rng, a, b)
        k = random_homotopy(rng, a, b)
        g = perturb_by_homotopy(f, k)
        for i in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
            assert induced_cohomology_map(f, i) == induced_cohomology_map(g, i)


def test_induced_functorial():
    rng = random.Random(25)
    for _ in range(40):
        a = random_complex(rng, F5, max_dim=3)
        b = random_complex(rng, F5, max_dim=3)
        c = random_complex(rng, F5, max_dim=3)
        f = random_chain_map(rng, a, b)
        g = random_chain_map(rng, b, c)
        gf = compose_chain_maps(f, g)
        lo = min(a.lo, b.lo, c.lo)
        hi = max(a.hi, b.hi, c.hi)
        for i in range(lo, hi + 1):
            assert induced_cohomology_map(gf, i) == mat_mul(
                induced_cohomology_map(g, i), induced_cohomology_map(f, i)
            )


@pytest.mark.parametrize("field", [F2, F5, Q], ids=str)
def test_induced_map_is_contraction_sandwich(field):
    rng = random.Random(59)
    for _ in range(30):
        a = random_complex(rng, field, max_dim=3)
        b = random_complex(rng, field, max_dim=3)
        f = random_chain_map(rng, a, b)
        for i in range(min(a.lo, b.lo) - 1, max(a.hi, b.hi) + 2):
            image = mat_mul(f.component(i), cohomology(a, i).incl)
            sandwich = mat_mul(cohomology(b, i).proj, image)
            assert sandwich == induced_cohomology_map(f, i)


def _rebuilt(f):
    """f built again through ChainMap.create, from fresh matrices with equal entries."""
    fresh = {
        i: Matrix.from_rows(m.field, [[m[r, c] for c in range(m.cols)] for r in range(m.rows)], cols=m.cols)
        for i, m in zip(f.window, f.components)
    }
    return ChainMap.create(f.source, f.target, fresh)


def test_induced_map_is_one_object_per_map_and_degree():
    rng = random.Random(61)
    a, b = random_complex(rng, Q), random_complex(rng, Q)
    f = random_chain_map(rng, a, b)
    for i in range(min(a.lo, b.lo) - 1, max(a.hi, b.hi) + 2):
        assert induced_cohomology_map(f, i) is induced_cohomology_map(f, i)
        assert induced_cohomology_map(_rebuilt(f), i) is induced_cohomology_map(f, i)


@pytest.mark.parametrize("field", [F5, Q], ids=str)
@pytest.mark.parametrize(
    "verdict",
    [is_quasi_iso, lambda f: check_les_exact(cone_triangle(f))],
    ids=["is_quasi_iso", "check_les_exact"],
)
def test_a_rebuilt_map_reads_its_induced_maps_from_the_cache(field, verdict):
    rng = random.Random(63)
    f = random_quasi_iso(rng, field)
    assert verdict(f)
    before = _induced_map.cache_info()
    assert verdict(_rebuilt(f))
    after = _induced_map.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_a_map_that_fails_the_square_check_raises_on_every_call():
    # f^0 = 1 from F in degree 0 into F -> F: d_B f^0 = 1 but f^1 d_A = 0
    f = ChainMap.create(point(F5), contractible(F5), {0: Matrix.identity(F5, 1)})
    assert not validate_chain_map(f).ok
    before = _induced_map.cache_info()
    for _ in range(2):
        with pytest.raises(InvalidChainMapError):
            induced_cohomology_map(f, 0)
        with pytest.raises(InvalidChainMapError):
            is_quasi_iso(f)
        with pytest.raises(InvalidChainMapError):
            check_les_exact(cone_triangle(f))
    assert _induced_map.cache_info() == before


# is_quasi_iso


def test_identity_is_qis():
    rng = random.Random(27)
    c = random_complex(rng, F5)
    assert is_quasi_iso(identity_chain_map(c))


def test_zero_to_empty_not_qis():
    p = point(F5)
    z = CochainComplex.create(F5, dims={0: 0})
    assert not is_quasi_iso(zero_chain_map(p, z))


def test_inclusion_into_two_step_is_qis():
    # target 0 -> F^2 -> F -> 0 with d = [[0,1]]: H^0 = span(e1), H^1 = 0;
    # source has H^0 = F, so the inclusion of e1 induces isos everywhere
    # (checked over F2 where enumeration is feasible by hand: kernel of
    # [[0,1]] is {(0,0),(1,0)}, no coboundaries in degree 0)
    src = point(F2)
    tgt = CochainComplex.create(
        F2, dims={0: 2, 1: 1}, diff={0: Matrix.from_rows(F2, [[0, 1]])}
    )
    f = ChainMap.create(src, tgt, {0: Matrix.from_rows(F2, [[1], [0]])})
    assert validate_chain_map(f).ok
    assert is_quasi_iso(f)


def test_constructed_qis_recognized():
    rng = random.Random(29)
    for field in (F2, F5, Q):
        for _ in range(15):
            assert is_quasi_iso(random_quasi_iso(rng, field))


def test_qis_composition_closure():
    rng = random.Random(31)
    for _ in range(20):
        q1 = random_quasi_iso(rng, F5)
        # build a second qis out of q1's target by homotopy perturbation
        m = q1.target
        k = random_homotopy(rng, m, m)
        q2 = perturb_by_homotopy(identity_chain_map(m), k)
        assert is_quasi_iso(q2)
        assert is_quasi_iso(compose_chain_maps(q1, q2))


# check_homotopy_equivalence


def test_identity_equivalence():
    rng = random.Random(33)
    c = random_complex(rng, F5)
    f = identity_chain_map(c)
    assert check_homotopy_equivalence(
        f, f, zero_homotopy(c, c), zero_homotopy(c, c)
    )


def test_contractible_equivalent_to_zero_complex():
    a = contractible(F5)
    z = CochainComplex.create(F5, dims={0: 0, 1: 0})
    f = zero_chain_map(a, z)
    g = zero_chain_map(z, a)
    # g f = 0 vs id_A needs the contraction with dk + kd = +id,
    # so k^1 = [[1]]; f g = 0 = id_Z on the nose
    k_source = Homotopy.create(a, a, {1: Matrix.from_rows(F5, [[1]])})
    k_target = zero_homotopy(z, z)
    assert check_homotopy_equivalence(f, g, k_target, k_source)


def test_point_not_equivalent_to_itself_by_zero_maps():
    p = point(F5)
    f = zero_chain_map(p, p)
    g = zero_chain_map(p, p)
    k = zero_homotopy(p, p)  # every homotopy here is zero-shaped
    assert not check_homotopy_equivalence(f, g, k, k)


def test_homotopy_equivalence_implies_qis():
    a = contractible(F5)
    z = CochainComplex.create(F5, dims={0: 0, 1: 0})
    f = zero_chain_map(a, z)
    g = zero_chain_map(z, a)
    k_source = Homotopy.create(a, a, {1: Matrix.from_rows(F5, [[1]])})
    assert check_homotopy_equivalence(f, g, zero_homotopy(z, z), k_source)
    assert is_quasi_iso(f)
    assert is_quasi_iso(g)


# complexes and graded maps hash once, the same way in every process


def test_equal_distinct_complexes_and_maps_hash_equal():
    def fresh(m):
        return Matrix.from_rows(m.field, m.to_rows(), cols=m.cols)

    rng = random.Random(31)
    for field in (F5, Q):
        for _ in range(10):
            a, b = random_complex(rng, field), random_complex(rng, field)
            f, k = random_chain_map(rng, a, b), random_homotopy(rng, a, b)
            # rebuilt from fresh matrices, so no object is shared
            a2, b2 = (CochainComplex(c.field, c.lo, c.hi, c.dims, tuple(map(fresh, c.diff))) for c in (a, b))
            f2 = ChainMap(a2, b2, tuple(map(fresh, f.components)))
            k2 = Homotopy(a2, b2, tuple(map(fresh, k.components)))
            for old, new in ((a, a2), (b, b2), (f, f2), (k, k2)):
                assert old is not new and old == new and hash(old) == hash(new)
                assert {old: "found"}[new] == "found"


def test_pickled_complex_and_map_hashes_match_fresh_ones_under_another_hash_seed():
    build = textwrap.dedent(
        """
        from fractions import Fraction
        from homcat import ChainMap, CochainComplex, FieldSpec, Homotopy, Matrix
        values = []
        for field in (FieldSpec.rational(), FieldSpec.prime(2**31 - 1)):
            one = Fraction(1, 3) if field.kind == "rational" else 5
            a = CochainComplex.create(field, {0: 1, 1: 2}, {0: Matrix.from_rows(field, [[one], [2]])})
            b = CochainComplex.create(field, {0: 1, 1: 1}, {0: Matrix.from_rows(field, [[one]])})
            f = ChainMap.create(a, b, {0: Matrix.from_rows(field, [[1]]), 1: Matrix.from_rows(field, [[1, 0]])})
            k = Homotopy.create(a, b, {1: Matrix.from_rows(field, [[one, 0]])})
            values += [a, b, f, k]
        """
    )
    write = build + textwrap.dedent(
        """
        import pickle, sys
        for v in values:
            hash(v)  # fill the cache, so the pickle carries it
        sys.stdout.buffer.write(pickle.dumps(values))
        """
    )
    read = build + textwrap.dedent(
        """
        import pickle, sys
        loaded = pickle.loads(sys.stdin.buffer.read())
        for old, new in zip(loaded, values, strict=True):
            assert old._hash is not None, "the pickle dropped the cached hash"
            assert hash(old) == hash(new) and old == new
            assert {old: "found"}[new] == "found" and {new: "found"}[old] == "found"
        print(hash("prime"))
        """
    )

    def child(code, seed, stdin=None):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, input=stdin, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    blob = child(write, "1")
    salt = child(read, "2", blob)
    assert int(salt) != int(child('print(hash("prime"))', "1"))  # the seeds really salt str hashes

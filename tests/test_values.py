"""Value semantics of every frozen type: equality by data and class, the
hash, immutability and pickling.

Each case builds a value twice from the same data, and once more with one
field changed.  An object of an unrelated class of the same name, carrying
the same attributes, stands in for "another class with the same field
values"; sibling classes (ChainMap/Homotopy, MapEntry/HomotopyEntry) and a
subclass are checked against each other directly.
"""

import pickle

import pytest

from homcat import (
    ChainMap,
    ChainMapValidation,
    CochainComplex,
    CohomologySpace,
    ComplexValidation,
    Cospan,
    FieldSpec,
    FlipResult,
    Homotopy,
    Matrix,
    Roof,
    RoofEquivalenceWitness,
    Triangle,
    cohomology,
    cone_triangle,
    flip_cospan,
    identity_chain_map,
    zero_chain_map,
    zero_homotopy,
)
from homcat.cli import CommandResult
from homcat.session import HomotopyEntry, MapEntry, RoofEntry, SessionFile

F5 = FieldSpec.prime(5)


def _m(*rows):
    return Matrix.from_rows(F5, [list(r) for r in rows])


A = CochainComplex.create(F5, {0: 1, 1: 1}, {0: _m([1])})
B = CochainComplex.create(F5, {0: 1})
ID_A = identity_chain_map(A)
Z_A = zero_chain_map(A, A)
K_A = Homotopy.create(A, A, {1: _m([2])})
TRI = cone_triangle(ID_A)
FLIP = flip_cospan(Cospan(ID_A, ID_A))
H_B = cohomology(B, 0)
ROOF = Roof(A, ID_A, ID_A)

# (class, keyword arguments, a field to change, its changed value)
CASES = [
    (FieldSpec, dict(kind="prime", p=5), "p", 7),
    (Matrix, dict(rows=1, cols=2, entries=(1, 2), field=F5), "entries", (1, 3)),
    (CochainComplex, dict(field=F5, lo=0, hi=1, dims=(1, 1), diff=(_m([1]),)), "diff", (_m([2]),)),
    (ComplexValidation, dict(ok=False, degree=0, product=_m([1])), "degree", 1),
    (
        CohomologySpace,
        dict(
            degree=0,
            dim=H_B.dim,
            cocycle_basis=H_B.cocycle_basis,
            rep_columns=H_B.rep_columns,
            projection=H_B.projection,
            free_rows=H_B.free_rows,
            incl=H_B.incl,
            complex=B,
        ),
        "degree",
        1,
    ),
    (ChainMap, dict(source=A, target=A, components=ID_A.components), "components", Z_A.components),
    (Homotopy, dict(source=A, target=A, components=K_A.components), "components", (_m([3]),)),
    (ChainMapValidation, dict(ok=False, degree=0, left=_m([1]), right=_m([2])), "degree", 1),
    (Triangle, dict(f=TRI.f, g=TRI.g, h=TRI.h), "f", Z_A),
    (Roof, dict(apex=A, denom=ID_A, numer=ID_A), "numer", Z_A),
    (Cospan, dict(alpha=ID_A, beta=ID_A), "alpha", Z_A),
    (
        FlipResult,
        dict(k_complex=FLIP.k_complex, gamma2=FLIP.gamma2, gamma1=FLIP.gamma1, witness=FLIP.witness),
        "witness",
        zero_homotopy(FLIP.k_complex, A),
    ),
    (RoofEquivalenceWitness, dict(apex3=A, denom3=ID_A, numer3=ID_A, up=ID_A, down=ID_A), "numer3", Z_A),
    (MapEntry, dict(source="A", target="A", value=ID_A), "value", Z_A),
    (HomotopyEntry, dict(source="A", target="A", value=K_A), "target", "B"),
    (RoofEntry, dict(denom="idA", numer="idA", value=ROOF), "numer", "zA"),
    (
        SessionFile,
        dict(field=F5, objects={"A": A}, maps={"idA": MapEntry("A", "A", ID_A)}, homotopies={}, roofs={}),
        "objects",
        {"B": B},
    ),
    (CommandResult, dict(output="ok\n", exit_code=0), "exit_code", 1),
]


def _attributes(value):
    """Every attribute value carries, compared or not, by name."""
    names = getattr(type(value), "__slots__", ())
    found = {name: getattr(value, name) for name in names}
    found.update(getattr(value, "__dict__", {}))
    return found


def _same_data_in_another_class(value):
    twin = type(type(value).__name__, (), {})()
    twin.__dict__.update(_attributes(value))
    return twin


@pytest.mark.parametrize("cls, kwargs, name, changed", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, kwargs, name, changed):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b and not a != b
    if cls is SessionFile:
        with pytest.raises(TypeError):
            hash(a)  # its tables are dicts
    else:
        assert hash(a) == hash(b)
    other = cls(**dict(kwargs, **{name: changed}))
    assert a != other and not a == other
    twin = _same_data_in_another_class(a)
    assert a != twin and twin != a
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(a, field, kwargs[field])
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a


def test_siblings_and_subclasses_with_the_same_data_are_unequal():
    f = ChainMap(A, A, K_A.components)
    k = Homotopy(A, A, K_A.components)
    assert f != k and k != f
    assert MapEntry("A", "A", ID_A) != HomotopyEntry("A", "A", ID_A)
    assert HomotopyEntry("A", "A", ID_A) != MapEntry("A", "A", ID_A)

    class SubRoof(Roof):
        pass

    sub = SubRoof(A, ID_A, ID_A)
    assert sub != ROOF and ROOF != sub


def test_session_files_get_their_own_tables():
    s, t = SessionFile(F5), SessionFile(F5)
    s.objects["A"] = A
    assert t.objects == {} and t.maps is not s.maps


def test_a_cohomology_space_keeps_its_contraction_through_a_pickle():
    h = cohomology(A, 1)
    back = pickle.loads(pickle.dumps(h))
    assert back == h and back.incl == h.incl and back.proj == h.proj and back.htpy == h.htpy

"""Session file parsing, validation, and byte-stable emission."""

import json
import random
from fractions import Fraction

import pytest

from homcat import (
    ChainMap,
    CochainComplex,
    InvalidChainMapError,
    InvalidComplexError,
    Matrix,
    NotQuasiIsoError,
    SessionFile,
    SessionSyntaxError,
    UnknownReferenceError,
    emit_session,
    identity_chain_map,
    lift_map_to_roof,
    parse_session,
)
from homcat.session import HomotopyEntry, MapEntry, RoofEntry
from randgen import (
    F2,
    F5,
    Q,
    random_chain_map,
    random_complex,
    random_homotopy,
)

EXAMPLE = """
{
  "field": {"kind": "prime", "p": 5},
  "objects": {
    "A": {"dims": {"0": 2, "1": 1}, "diff": {"0": [[1, 2]]}}
  },
  "maps": {
    "f": {"from": "A", "to": "A", "components": {"0": [[1, 0], [0, 1]], "1": [[1]]}}
  },
  "homotopies": {},
  "roofs": {}
}
"""


def session_text(**parts):
    base = {"field": {"kind": "prime", "p": 5}, "objects": {}, "maps": {},
            "homotopies": {}, "roofs": {}}
    base.update(parts)
    return json.dumps(base)


# parsing basics


def test_empty_session():
    s = parse_session(session_text())
    assert s.field == F5
    assert s.objects == {} and s.maps == {} and s.homotopies == {} and s.roofs == {}


def test_one_degree_example():
    s = parse_session(EXAMPLE)
    a = s.objects["A"]
    assert (a.lo, a.hi) == (0, 1)
    assert a.dim(0) == 2 and a.dim(1) == 1
    f = s.maps["f"]
    assert f.source == "A" and f.target == "A"
    assert f.value == identity_chain_map(a)


def test_rational_field_and_fraction_scalars():
    text = session_text(
        field={"kind": "rational"},
        objects={"A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [["1/2"]]}}},
    )
    s = parse_session(text)
    assert s.field == Q
    assert s.objects["A"].d(0)[0, 0] == Fraction(1, 2)


def test_prime_scalars_reduced_mod_p():
    text = session_text(objects={"A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [[7]]}}})
    s = parse_session(text)
    assert s.objects["A"].d(0)[0, 0] == 2


def test_negative_degrees():
    text = session_text(objects={"A": {"dims": {"-2": 1, "0": 3}}})
    a = parse_session(text).objects["A"]
    assert (a.lo, a.hi) == (-2, 0)
    assert a.dim(-2) == 1 and a.dim(-1) == 0 and a.dim(0) == 3


def test_zero_size_matrix_rejected():
    # the format never carries zero-size matrices: degrees where either
    # side is zero-dimensional simply omit the entry
    text = session_text(objects={"A": {"dims": {"0": 1}, "diff": {"1": []}}})
    with pytest.raises(SessionSyntaxError):
        parse_session(text)


def test_homotopy_entries():
    text = session_text(
        objects={"A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [[1]]}}},
        homotopies={"k": {"from": "A", "to": "A", "components": {"1": [[4]]}}},
    )
    s = parse_session(text)
    k = s.homotopies["k"].value
    assert k.component(1) == Matrix.from_rows(F5, [[4]])


def test_roof_entries():
    text = session_text(
        objects={"A": {"dims": {"0": 1}}},
        maps={
            "d": {"from": "A", "to": "A", "components": {"0": [[1]]}},
            "n": {"from": "A", "to": "A", "components": {"0": [[3]]}},
        },
        roofs={"r": {"denom": "d", "numer": "n"}},
    )
    s = parse_session(text)
    r = s.roofs["r"]
    assert r.denom == "d" and r.numer == "n"
    assert r.value.apex == s.objects["A"]


# rejection cases


def test_unknown_reference_names_the_culprit():
    text = session_text(
        maps={"f": {"from": "Q", "to": "Q", "components": {}}}
    )
    with pytest.raises(UnknownReferenceError, match="Q"):
        parse_session(text)


def test_unknown_roof_reference():
    text = session_text(roofs={"r": {"denom": "nope", "numer": "nope"}})
    with pytest.raises(UnknownReferenceError, match="nope"):
        parse_session(text)


def test_invalid_complex_rejected_eagerly():
    text = session_text(
        objects={
            "A": {
                "dims": {"0": 2, "1": 2, "2": 1},
                "diff": {"0": [[1, 0], [0, 1]], "1": [[1, 1]]},
            }
        }
    )
    with pytest.raises(InvalidComplexError, match="A"):
        parse_session(text)


def test_non_commuting_map_rejected_eagerly():
    text = session_text(
        objects={
            "A": {"dims": {"0": 1, "1": 1}},
            "B": {"dims": {"0": 1, "1": 1}, "diff": {"0": [[1]]}},
        },
        maps={"f": {"from": "A", "to": "B", "components": {"0": [[1]]}}},
    )
    with pytest.raises(InvalidChainMapError, match="f"):
        parse_session(text)


def test_non_qis_denominator_rejected():
    text = session_text(
        objects={"A": {"dims": {"0": 1}}},
        maps={"z": {"from": "A", "to": "A", "components": {}}},
        roofs={"r": {"denom": "z", "numer": "z"}},
    )
    with pytest.raises(NotQuasiIsoError, match="r"):
        parse_session(text)


@pytest.mark.parametrize(
    "bad",
    ["{", "[]", '"x"', "42"],
)
def test_malformed_documents(bad):
    with pytest.raises(SessionSyntaxError):
        parse_session(bad)


def test_missing_tables_default_to_empty():
    s = parse_session('{"field": {"kind": "rational"}}')
    assert s.objects == {} and s.maps == {} and s.homotopies == {} and s.roofs == {}


def test_missing_field_rejected():
    with pytest.raises(SessionSyntaxError):
        parse_session('{"objects": {}}')


def test_unknown_top_key():
    text = json.loads(session_text())
    text["extras"] = {}
    with pytest.raises(SessionSyntaxError):
        parse_session(json.dumps(text))


def test_duplicate_names_rejected():
    text = (
        '{"field": {"kind": "prime", "p": 5},'
        ' "objects": {"A": {"dims": {"0": 1}}, "A": {"dims": {"0": 2}}},'
        ' "maps": {}, "homotopies": {}, "roofs": {}}'
    )
    with pytest.raises(SessionSyntaxError, match="duplicate"):
        parse_session(text)


@pytest.mark.parametrize("key", ["00", "-0", "01", "1.5", "+1", " 1", ""])
def test_non_canonical_degree_keys_rejected(key):
    text = session_text(objects={"A": {"dims": {key: 1}}})
    with pytest.raises(SessionSyntaxError):
        parse_session(text)


@pytest.mark.parametrize("scalar", [True, False, 1.5, None, [1], "x", "1/0"])
def test_bad_scalars_rejected(scalar):
    text = session_text(
        objects={"A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [[scalar]]}}}
    )
    with pytest.raises(SessionSyntaxError):
        parse_session(text)


def test_fraction_string_rejected_over_prime_field():
    text = session_text(
        objects={"A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [["1/2"]]}}}
    )
    with pytest.raises(SessionSyntaxError):
        parse_session(text)


def test_ragged_matrix_rejected():
    text = session_text(
        objects={"A": {"dims": {"0": 2, "1": 2}, "diff": {"0": [[1, 0], [1]]}}}
    )
    with pytest.raises(SessionSyntaxError):
        parse_session(text)


def test_component_shape_errors_name_the_entry():
    from homcat import ShapeMismatchError

    objects = {"A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [[1]]}}}
    text = session_text(
        objects=objects, maps={"f": {"from": "A", "to": "A", "components": {"0": [[1, 2]]}}}
    )
    with pytest.raises(ShapeMismatchError) as info:
        parse_session(text)
    assert str(info.value) == "map 'f': component at degree 0 has shape 1x2, needs 1x1"
    text = session_text(
        objects=objects, homotopies={"k": {"from": "A", "to": "A", "components": {"1": [[1, 2]]}}}
    )
    with pytest.raises(ShapeMismatchError) as info:
        parse_session(text)
    assert str(info.value) == "homotopy 'k': homotopy component at degree 1 has shape 1x2, needs 1x1"


def test_wrong_shape_is_a_distinct_error_class():
    from homcat import ShapeMismatchError

    text = session_text(
        objects={"A": {"dims": {"0": 2, "1": 1}, "diff": {"0": [[1], [1]]}}}
    )
    with pytest.raises(ShapeMismatchError, match="A"):
        parse_session(text)


@pytest.mark.parametrize(
    "fld",
    [
        {"kind": "prime"},
        {"kind": "prime", "p": 4},
        {"kind": "prime", "p": 1},
        {"kind": "rational", "p": 5},
        {"kind": "real"},
        {},
        "F5",
    ],
)
def test_bad_fields_rejected(fld):
    with pytest.raises(SessionSyntaxError):
        parse_session(session_text(field=fld))


def test_negative_dim_rejected():
    with pytest.raises(SessionSyntaxError):
        parse_session(session_text(objects={"A": {"dims": {"0": -1}}}))


def test_bool_dim_rejected():
    with pytest.raises(SessionSyntaxError):
        parse_session(session_text(objects={"A": {"dims": {"0": True}}}))


# emission and round trips


def random_session(rng, field):
    objects = {}
    for name in ("A", "B"):
        objects[name] = random_complex(rng, field, max_dim=3)
    f = random_chain_map(rng, objects["A"], objects["B"])
    k = random_homotopy(rng, objects["A"], objects["B"])
    roof = lift_map_to_roof(f)
    objects["Apex"] = roof.apex
    maps = {
        "f": MapEntry("A", "B", f),
        "denom": MapEntry("Apex", "A", roof.denom),
        "numer": MapEntry("Apex", "B", roof.numer),
    }
    homotopies = {"k": HomotopyEntry("A", "B", k)}
    roofs = {"r": RoofEntry("denom", "numer", roof)}
    return SessionFile(field, objects, maps, homotopies, roofs)


@pytest.mark.parametrize("field", [F2, F5, Q])
def test_round_trip_bytes(field):
    rng = random.Random(31)
    for _ in range(10):
        s = random_session(rng, field)
        once = emit_session(s)
        again = emit_session(parse_session(once))
        assert once == again


@pytest.mark.parametrize("field", [F2, F5, Q], ids=str)
def test_round_trip_bytes_with_offset_map_and_homotopy_windows(field):
    # A spans [1, 3] and B spans [0, 2]: maps store degrees 1..2, homotopies 1..3
    rng = random.Random(47)
    for _ in range(5):
        a = random_complex(rng, field, lo=1, hi=3, min_width=3, max_width=3)
        b = random_complex(rng, field, lo=0, hi=2, min_width=3, max_width=3)
        f = random_chain_map(rng, a, b)
        k = random_homotopy(rng, a, b)
        assert (f.window, k.window) == (range(1, 3), range(1, 4))
        s = SessionFile(
            field,
            {"A": a, "B": b},
            maps={"f": MapEntry("A", "B", f)},
            homotopies={"k": HomotopyEntry("A", "B", k)},
        )
        once = emit_session(s)
        back = parse_session(once)
        assert (back.maps["f"].value, back.homotopies["k"].value) == (f, k)
        assert emit_session(back) == once


def test_round_trip_values():
    rng = random.Random(37)
    s = random_session(rng, F5)
    back = parse_session(emit_session(s))
    assert back.field == s.field
    assert back.objects == s.objects
    assert {n: e.value for n, e in back.maps.items()} == {
        n: e.value for n, e in s.maps.items()
    }
    assert {n: e.value for n, e in back.homotopies.items()} == {
        n: e.value for n, e in s.homotopies.items()
    }
    assert {n: e.value for n, e in back.roofs.items()} == {
        n: e.value for n, e in s.roofs.items()
    }


def test_emission_is_deterministic():
    rng = random.Random(41)
    s = random_session(rng, Q)
    assert emit_session(s) == emit_session(s)


def test_emission_ends_with_newline():
    s = SessionFile(F5)
    text = emit_session(s)
    assert text.endswith("\n")
    assert json.loads(text) == {
        "field": {"kind": "prime", "p": 5},
        "objects": {},
        "maps": {},
        "homotopies": {},
        "roofs": {},
    }


def test_emitted_windows_survive():
    # a window wider than the nonzero data must round-trip intact
    c = CochainComplex.create(F5, dims={-1: 0, 0: 1, 1: 0})
    s = SessionFile(F5, objects={"A": c})
    back = parse_session(emit_session(s))
    assert back.objects["A"] == c
    assert (back.objects["A"].lo, back.objects["A"].hi) == (-1, 1)


def test_rational_emission_uses_fraction_strings():
    c = CochainComplex.create(
        Q, dims={0: 1, 1: 1}, diff={0: Matrix.from_rows(Q, [[Fraction(1, 2)]])}
    )
    s = SessionFile(Q, objects={"A": c})
    payload = json.loads(emit_session(s))
    assert payload["objects"]["A"]["diff"]["0"] == [["1/2"]]
    whole = CochainComplex.create(
        Q, dims={0: 1, 1: 1}, diff={0: Matrix.from_rows(Q, [[Fraction(2)]])}
    )
    payload2 = json.loads(emit_session(SessionFile(Q, objects={"B": whole})))
    assert payload2["objects"]["B"]["diff"]["0"] == [[2]]


def test_emission_refuses_integers_parsing_would_refuse():
    # 10^4400 has more digits than a session may hold; emission names the matrix
    huge = Matrix.from_rows(Q, [[10**4400]])
    c = CochainComplex.create(Q, {0: 1, 1: 1}, {0: huge})
    with pytest.raises(SessionSyntaxError, match=r"^object 'A' diff 0: .* too long"):
        emit_session(SessionFile(Q, objects={"A": c}))
    small = CochainComplex.create(Q, {0: 1, 1: 1}, {0: Matrix.identity(Q, 1)})
    f = identity_chain_map(small)
    g = ChainMap.create(small, small, {0: huge, 1: huge})
    session = SessionFile(Q, objects={"A": small}, maps={"f": MapEntry("A", "A", f), "g": MapEntry("A", "A", g)})
    with pytest.raises(SessionSyntaxError, match=r"^map 'g' component 0: "):
        emit_session(session)

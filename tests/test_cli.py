"""Command line driver: reports, fragments, exit-code discipline.

Most tests call main() in process; subprocess tests confirm that the
installed console script wires up to the same entry point, that the
process, which ends without interpreter teardown, writes exactly the
bytes main() writes, that a failed write of the output exits 2, and that
every command runs, with the same stdout, when numpy is unimportable.
"""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homcat import (
    CochainComplex,
    Matrix,
    check_homotopy,
    identity_chain_map,
    is_quasi_iso,
    mapping_cone,
    parse_session,
    shift,
    zero_chain_map,
)
from homcat import cli
from homcat.cli import main
from randgen import F5

SESSION = {
    "field": {"kind": "prime", "p": 5},
    "objects": {
        "A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [[1]]}},
        "P": {"dims": {"0": 1}},
    },
    "maps": {
        "idA": {"from": "A", "to": "A", "components": {"0": [[1]], "1": [[1]]}},
        "zA": {"from": "A", "to": "A", "components": {}},
        "idP": {"from": "P", "to": "P", "components": {"0": [[1]]}},
        "zP": {"from": "P", "to": "P", "components": {}},
    },
    "homotopies": {},
    "roofs": {
        "rid": {"denom": "idP", "numer": "idP"},
        "rz": {"denom": "idP", "numer": "zP"},
    },
}


@pytest.fixture
def session_file(tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(SESSION))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# basic dispatch


def test_no_arguments_usage_to_stderr(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert out == ""
    assert "usage:" in err


def test_help_flag(capsys):
    code, out, err = run(capsys, "-h")
    assert code == 0
    assert "usage:" in out


def test_unknown_command(capsys, session_file):
    code, out, err = run(capsys, "frobnicate", session_file)
    assert code == 2
    assert "unknown command" in err


def test_missing_file(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/x.json")
    assert code == 2
    assert "cannot read" in err


def test_malformed_session(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "SessionSyntaxError" in err


def test_unknown_name_exits_two(capsys, session_file):
    code, out, err = run(capsys, "qis", session_file, "nope")
    assert code == 2
    assert "UnknownReferenceError" in err


@pytest.mark.parametrize(
    "argv, kind",
    [(("cohomology", "nope"), "object"), (("qis", "nope"), "map"), (("compose", "nope", "nope"), "roof")],
    ids=["object", "map", "roof"],
)
def test_unknown_name_message_names_its_kind(capsys, session_file, argv, kind):
    code, out, err = run(capsys, argv[0], session_file, *argv[1:])
    assert (code, out, err) == (2, "", f"UnknownReferenceError: unknown {kind} 'nope'\n")


def test_wrong_arg_count(capsys, session_file):
    code, out, err = run(capsys, "qis", session_file)
    assert code == 2
    assert "usage" in err


# verdict commands


def test_validate_ok(capsys, session_file):
    code, out, err = run(capsys, "validate", session_file)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_qis_true_exit_zero(capsys, session_file):
    code, out, err = run(capsys, "qis", session_file, "idA")
    assert code == 0
    assert json.loads(out)["result"] is True


def test_qis_false_exit_one(capsys, session_file):
    # the zero endomorphism of the point misses H^0
    code, out, err = run(capsys, "qis", session_file, "zP")
    assert code == 1
    assert json.loads(out)["result"] is False


def test_les_exact(capsys, session_file):
    code, out, err = run(capsys, "les", session_file, "idA")
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_cohomology_report(capsys, session_file):
    code, out, err = run(capsys, "cohomology", session_file, "A")
    assert code == 0
    payload = json.loads(out)
    assert payload["cohomology"]["0"]["dim"] == 0
    assert payload["cohomology"]["1"]["dim"] == 0
    code, out, err = run(capsys, "cohomology", session_file, "P")
    payload = json.loads(out)
    assert payload["cohomology"]["0"]["dim"] == 1
    assert payload["cohomology"]["0"]["representatives"] == [[1]]


def test_roof_equiv_true(capsys, session_file):
    code, out, err = run(
        capsys, "roof-equiv", session_file, "rid", "rid",
        "--witness", "P", "idP", "idP", "idP", "idP",
    )
    assert code == 0
    assert json.loads(out)["result"] is True


def test_roof_equiv_false(capsys, session_file):
    code, out, err = run(
        capsys, "roof-equiv", session_file, "rid", "rz",
        "--witness", "P", "idP", "idP", "idP", "idP",
    )
    assert code == 1
    assert json.loads(out)["result"] is False


def test_roof_equiv_needs_witness_marker(capsys, session_file):
    code, out, err = run(
        capsys, "roof-equiv", session_file, "rid", "rid",
        "P", "idP", "idP", "idP", "idP",
    )
    assert code == 2


# homotopic


def test_homotopic_witness_emitted(capsys, session_file):
    code, out, err = run(capsys, "homotopic", session_file, "idA", "zA")
    assert code == 0
    fragment = parse_session(out)
    witness = fragment.homotopies["witness"].value
    a = fragment.objects["A"]
    assert check_homotopy(identity_chain_map(a), zero_chain_map(a, a), witness)


def test_homotopic_none(capsys, session_file):
    code, out, err = run(capsys, "homotopic", session_file, "idP", "zP")
    assert code == 1
    assert json.loads(out)["result"] == "none"


# constructive commands round-trip


def test_shift_fragment(capsys, session_file):
    code, out, err = run(capsys, "shift", session_file, "A", "1")
    assert code == 0
    fragment = parse_session(out)
    original = CochainComplex.create(
        F5, dims={0: 1, 1: 1}, diff={0: Matrix.identity(F5, 1)}
    )
    assert fragment.objects["shifted"] == shift(original, 1)


def test_shift_rejects_bad_amount(capsys, session_file):
    code, out, err = run(capsys, "shift", session_file, "A", "one")
    assert code == 2


def test_cone_fragment_reparses_to_equal_value(capsys, session_file):
    code, out, err = run(capsys, "cone", session_file, "idA")
    assert code == 0
    fragment = parse_session(out)
    original = CochainComplex.create(
        F5, dims={0: 1, 1: 1}, diff={0: Matrix.identity(F5, 1)}
    )
    mc = mapping_cone(identity_chain_map(original))
    assert fragment.objects["cone"] == mc.cone
    assert fragment.objects["source_shift"] == shift(original, 1)
    assert fragment.maps["incl"].value == mc.incl
    assert fragment.maps["proj"].value == mc.proj


def test_flip_chain(capsys, tmp_path):
    session = {
        "field": {"kind": "prime", "p": 5},
        "objects": {
            "L": {"dims": {"0": 1}},
            "M": {"dims": {"0": 1}},
        },
        "maps": {
            "alpha": {"from": "L", "to": "M", "components": {"0": [[2]]}},
            "beta": {"from": "M", "to": "M", "components": {"0": [[1]]}},
        },
        "homotopies": {},
        "roofs": {},
    }
    first = tmp_path / "cospan.json"
    first.write_text(json.dumps(session))
    code, out, err = run(capsys, "flip", str(first), "alpha", "beta")
    assert code == 0
    second = tmp_path / "flipped.json"
    second.write_text(out)
    code, out, err = run(capsys, "qis", str(second), "gamma2")
    assert code == 0
    assert json.loads(out)["result"] is True
    # and the emitted witness closes the square
    flipped = parse_session(second.read_text())
    assert "h" in flipped.homotopies
    assert "gamma1" in flipped.maps
    assert flipped.objects["K"].dim(0) == 2


def test_compose_fragment(capsys, session_file):
    code, out, err = run(capsys, "compose", session_file, "rid", "rid")
    assert code == 0
    fragment = parse_session(out)
    composite = fragment.roofs["composite"].value
    assert is_quasi_iso(composite.denom)
    # apex dims: 2 * dim P + dim P shifted = 2 in degree 0, 1 in degree 1
    assert fragment.objects["apex"].dim(0) == 2
    assert fragment.objects["apex"].dim(1) == 1


def test_lift_fragment(capsys, session_file):
    code, out, err = run(capsys, "lift", session_file, "zP")
    assert code == 0
    fragment = parse_session(out)
    roof = fragment.roofs["lifted"].value
    assert roof.numer.component(0).is_zero()
    assert is_quasi_iso(roof.denom)


def test_emitted_fragments_round_trip_bytes(capsys, session_file, tmp_path):
    for command, extra in [
        ("shift", ["A", "-2"]),
        ("cone", ["idA"]),
        ("lift", ["idA"]),
        ("compose", ["rid", "rz"]),
    ]:
        code, out, err = run(capsys, command, session_file, *extra)
        assert code == 0
        again = tmp_path / "again.json"
        again.write_text(out)
        code2, out2, err2 = run(capsys, "validate", str(again))
        assert code2 == 0, (command, err2)


def test_name_collision_appends_underscore(capsys, tmp_path):
    session = {
        "field": {"kind": "prime", "p": 5},
        "objects": {
            "cone": {"dims": {"0": 1}},
        },
        "maps": {
            "f": {"from": "cone", "to": "cone", "components": {"0": [[1]]}},
        },
        "homotopies": {},
        "roofs": {},
    }
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(session))
    code, out, err = run(capsys, "cone", str(path), "f")
    assert code == 0
    fragment = parse_session(out)
    assert "cone" in fragment.objects  # the original object keeps its name
    assert "cone_" in fragment.objects  # the new cone steps aside
    assert fragment.objects["cone_"].dim(-1) == 1


def test_console_script_subprocess(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(SESSION))
    proc = subprocess.run(
        [sys.executable, "-m", "homcat.cli", "qis", str(path), "idA"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] is True


_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# a prelude that makes numpy unimportable in the process that runs it
_REFUSE_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is unimportable here")
        return None

sys.meta_path.insert(0, RefuseNumpy())
"""

# every command on the SESSION fixture, each verdict both ways where it has two
_FIXTURE_INVOCATIONS = [
    ["--help"],
    ["validate", "FILE"],
    ["cohomology", "FILE", "A"],
    ["shift", "FILE", "A", "1"],
    ["cone", "FILE", "idA"],
    ["les", "FILE", "idA"],
    ["homotopic", "FILE", "idA", "zA"],
    ["homotopic", "FILE", "idP", "zP"],
    ["qis", "FILE", "idA"],
    ["qis", "FILE", "zA"],
    ["flip", "FILE", "idP", "idP"],
    ["compose", "FILE", "rid", "rz"],
    ["roof-equiv", "FILE", "rid", "rid", "--witness", "P", "idP", "idP", "idP", "idP"],
    ["roof-equiv", "FILE", "rid", "rz", "--witness", "P", "idP", "idP", "idP", "idP"],
    ["lift", "FILE", "zP"],
]


def _python(code, *args, refuse_numpy=False):
    prelude = _REFUSE_NUMPY if refuse_numpy else ""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", prelude + code, *args], env=env, capture_output=True, timeout=120)


def test_homcat_runs_with_numpy_unimportable(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(SESSION))
    check = "import sys\nimport homcat.cli\nassert 'numpy' not in sys.modules, 'numpy imported'"
    proc = _python(check)
    assert proc.returncode == 0, proc.stderr.decode()
    proc = _python("import homcat", refuse_numpy=True)
    assert proc.returncode == 0, proc.stderr.decode()
    # python -m homcat.cli ARGS, with and without the prelude
    as_main = "import runpy\nrunpy.run_module('homcat.cli', run_name='__main__', alter_sys=True)"
    for invocation in _FIXTURE_INVOCATIONS:
        argv = [str(path) if x == "FILE" else x for x in invocation]
        plain = _python(as_main, *argv)
        refused = _python(as_main, *argv, refuse_numpy=True)
        assert plain.returncode in (0, 1), (invocation, plain.stderr.decode())
        assert (refused.returncode, refused.stdout) == (plain.returncode, plain.stdout), invocation
        assert plain.stdout


def test_stdout_stderr_separation(capsys, session_file):
    code, out, err = run(capsys, "qis", session_file, "idA")
    assert err == ""
    code, out, err = run(capsys, "qis", session_file, "ghost")
    assert out == ""
    assert err != ""


# Q: the canonical bases and fragments pinned byte for byte


# A and C have fractional differentials of deficient rank, so every
# object has nonzero cohomology; f is a quasi-isomorphism A -> B, g is
# not, and f2 = f + D(k) for k^1 = (1/5, -2)
SESSION_Q = {
    "field": {"kind": "rational"},
    "objects": {
        "A": {"dims": {"0": 2, "1": 2}, "diff": {"0": [["1/2", "1/3"], [1, "2/3"]]}},
        "B": {"dims": {"0": 1, "1": 1}},
        "C": {
            "dims": {"-1": 1, "0": 3, "1": 2},
            "diff": {"-1": [["1/2"], ["-1/3"], [0]], "0": [["2/3", 1, "7/4"], ["4/3", 2, "7/2"]]},
        },
    },
    "maps": {
        "idA": {"from": "A", "to": "A", "components": {"0": [[1, 0], [0, 1]], "1": [[1, 0], [0, 1]]}},
        "idC": {
            "from": "C",
            "to": "C",
            "components": {"-1": [[1]], "0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "1": [[1, 0], [0, 1]]},
        },
        "f": {"from": "A", "to": "B", "components": {"0": [["2/3", -1]], "1": [["2/3", "-1/3"]]}},
        "f2": {"from": "A", "to": "B", "components": {"0": [["-37/30", "-34/15"]], "1": [["2/3", "-1/3"]]}},
        "g": {"from": "A", "to": "B", "components": {"0": [["3/2", 1]]}},
    },
    "homotopies": {},
    "roofs": {
        "rf": {"denom": "idA", "numer": "f"},
        "rf2": {"denom": "idA", "numer": "f2"},
        "rg": {"denom": "idA", "numer": "g"},
        "rb": {"denom": "f", "numer": "idA"},
    },
}

_Q_WITNESS = ("--witness", "A", "idA", "f", "idA", "idA")

# (argv after the file, exit code, sha256 of stdout)
_Q_GOLDEN = [
    (("validate",), 0, "43adc3e2d125f1f202515efe492860e82e9e0e94570d9195936b1f8d84d9fa2f"),
    (("cohomology", "A"), 0, "89dc20a5b11c3d95b86e17fddbfd695f0fd94c42e2651da2accef8e977de94f0"),
    (("cohomology", "B"), 0, "ac28ee2372efcf3e19fb221e7280049567e809e75959b54b451eb871de208f14"),
    (("cohomology", "C"), 0, "71e24fac984bcdafd5de474f6822987b115e8874c97963e69cdee7777bc43d68"),
    (("shift", "A", "1"), 0, "b4a7e91134fcaab33a1935293a1ddc1c58c4d32d46cdaefe215c5759289be765"),
    (("shift", "C", "-1"), 0, "34b151ed3e274f8018d913e9429824da0ae8fd1e2c48f8cf896b79dc3ecbf4e2"),
    (("cone", "f"), 0, "1787815475b1ac7f7c6f94771573d8472a21e4a62ef070c7b80c2d5e2de2d105"),
    (("cone", "g"), 0, "dcc5ec5395208ea7e7222fcbce7cdd191e710dcd7ff9030ab97c0df2acc67fbc"),
    (("cone", "idC"), 0, "fce066efd437700179a582b1f815d3a74e20d714377dc45cbfa86c95bf96265f"),
    (("les", "f"), 0, "679b56640af06cbd4f44fd1fd435a08a125ba31d39ae727c94e606b23f5c0c32"),
    (("les", "g"), 0, "b8fe59717bf82691b0a5db3657043ac2391c6fa8a5fd23b4ef2701ad5659ff69"),
    (("les", "idC"), 0, "b1c4ca1c23d23b60bf4e7cdfea044707ede7248e48bf15a9aca6097b80071db1"),
    (("homotopic", "f", "f2"), 0, "c39f8584550fb90846a76858ea9dcc1a153d7273f15a16c84cdfa5faa7a094e6"),
    (("homotopic", "f", "g"), 1, "88d124e1e5e37f2f3214730bc3c71012e9caa3a7f65110ed6ea509f875e1d8a1"),
    (("qis", "f"), 0, "5f4a4272b418a21f29fa519fd6b0085d71a9ef3f0a8c5ddaa32cef5543b600fb"),
    (("qis", "g"), 1, "7950d46f75b9c2f178d2f21cbcc310a8719d8545348f0839feacd2205140ff8f"),
    (("flip", "g", "f"), 0, "03849952117f5ec6df2d85b9402a0659978bc7f2cb520e554012fb8e4917e23e"),
    (("compose", "rf", "rb"), 0, "34543d88afe02549124346861b09fcfe3d69d066ecedb9c256acb7b6f959e16e"),
    (("compose", "rb", "rf"), 0, "ea7bfa071766fbbe2bcec7d24e6f85b6f4c37fb58db29d135a51fe9c6fba9bb7"),
    (("roof-equiv", "rf", "rf2", *_Q_WITNESS), 0, "01953de0d1b6959df8bbb93168ba50a1328e0ed66901c62f39f78e848ff67a21"),
    (("roof-equiv", "rf", "rg", *_Q_WITNESS), 1, "f817a1e2895199286fb167a051c50c6f5702b90c01ff745115ad25e465bf043e"),
    (("lift", "f"), 0, "cbbf8b18dd0d979b0a6ae0d5bf3be746fa0059b9651599f95fdb0ce2014f72ea"),
    (("lift", "g"), 0, "5e7d1f8a64cb975c7b9a72fb331797264d2c9dd8a445b1f10d4fc868e72a4265"),
]


def test_q_golden_covers_every_command():
    assert {argv[0] for argv, _, _ in _Q_GOLDEN} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv, code, digest", _Q_GOLDEN, ids=[" ".join(argv) for argv, _, _ in _Q_GOLDEN])
def test_q_session_stdout_is_pinned(capsys, tmp_path, argv, code, digest):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(SESSION_Q))
    got_code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), err


# GF(2^31 - 1): the structure maps of cones, flips and roofs pinned byte for byte

_P = 2**31 - 1

# A has a rank-1 d^0 and C a d^{-1}, d^0 pair with entries near p, so
# every object has nonzero cohomology; f is a quasi-isomorphism A -> B,
# g is not
SESSION_P = {
    "field": {"kind": "prime", "p": _P},
    "objects": {
        "A": {"dims": {"0": 2, "1": 2}, "diff": {"0": [[1, 2], [_P - 3, _P - 6]]}},
        "B": {"dims": {"0": 1, "1": 1}},
        "C": {
            "dims": {"-1": 1, "0": 3, "1": 2},
            "diff": {"-1": [[1], [_P - 1], [0]], "0": [[7, 7, 5], [_P - 14, _P - 14, _P - 10]]},
        },
    },
    "maps": {
        "idA": {"from": "A", "to": "A", "components": {"0": [[1, 0], [0, 1]], "1": [[1, 0], [0, 1]]}},
        "idC": {
            "from": "C",
            "to": "C",
            "components": {"-1": [[1]], "0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "1": [[1, 0], [0, 1]]},
        },
        "f": {"from": "A", "to": "B", "components": {"0": [[_P - 5, 0]], "1": [[3, 1]]}},
        "g": {"from": "A", "to": "B", "components": {"0": [[_P - 2, _P - 4]]}},
    },
    "homotopies": {},
    "roofs": {
        "rf": {"denom": "idA", "numer": "f"},
        "rg": {"denom": "idA", "numer": "g"},
        "rb": {"denom": "f", "numer": "idA"},
    },
}

# (argv after the file, exit code, sha256 of stdout)
_P_GOLDEN = [
    (("cone", "f"), 0, "00b444c8f8414715db569e3c78072ee0eca4d177564ab31fa92704f43e362aa5"),
    (("cone", "g"), 0, "f5a92f280de487922f22e375640f3e314ccc71284a8a2808a9e5c6d8d9577111"),
    (("cone", "idC"), 0, "7f2da388b6eedc2a542b6337f6304f68398457469dab7527288f4d4f35865e7d"),
    (("les", "f"), 0, "679b56640af06cbd4f44fd1fd435a08a125ba31d39ae727c94e606b23f5c0c32"),
    (("les", "g"), 0, "b8fe59717bf82691b0a5db3657043ac2391c6fa8a5fd23b4ef2701ad5659ff69"),
    (("les", "idC"), 0, "b1c4ca1c23d23b60bf4e7cdfea044707ede7248e48bf15a9aca6097b80071db1"),
    (("flip", "g", "f"), 0, "fc72dc4ae9d87684bf9c2a64e35a0602922f24f2a932e9a8f7129e34848a2a16"),
    (("flip", "idA", "idA"), 0, "b24dc2e922f2f426f782d1f249079833ba039b1d9ae5f5a29058c92956e925bb"),
    (("compose", "rf", "rb"), 0, "6231fdfd16cad181258ce4bf548b288da996d8feae430dd6e8884480f7fb25c5"),
    (("compose", "rb", "rf"), 0, "362c7d617e3bd9f8e2a0b3293aa0f2e62bc85025df301e1e6897a0881e66befd"),
    (("compose", "rg", "rb"), 0, "7fd1ba29773e144967dd6d310f32a7f57dd662a1bf3ad6615818b91eb21a023e"),
    (("lift", "f"), 0, "61a555c9b8368de337541bdfafc9a9e34766802a2a871becbb52880b03f49238"),
    (("lift", "g"), 0, "947519e2884b698486f6c2cca78da128340d5efb6daca7310200722fd130d970"),
]


@pytest.mark.parametrize("argv, code, digest", _P_GOLDEN, ids=[" ".join(argv) for argv, _, _ in _P_GOLDEN])
def test_p_session_stdout_is_pinned(capsys, tmp_path, argv, code, digest):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(SESSION_P))
    got_code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), err


# the process path: python -m homcat.cli ends the process without teardown,
# so it must write exactly the bytes main() writes, on a buffered pipe too

_P_WITNESS = ("--witness", "A", "idA", "f", "idA", "idA")

# every command on SESSION_P: the pinned ones and the rest
_P_INVOCATIONS = [argv for argv, _, _ in _P_GOLDEN] + [
    ("validate",),
    ("cohomology", "A"),
    ("cohomology", "C"),
    ("shift", "C", "-1"),
    ("homotopic", "f", "f"),
    ("homotopic", "f", "g"),
    ("qis", "f"),
    ("qis", "g"),
    ("roof-equiv", "rf", "rf", *_P_WITNESS),
    ("roof-equiv", "rf", "rg", *_P_WITNESS),
]


def _large_session(n=20):
    """An n x n differential and its identity map over p = 2^31 - 1: the
    cone of idX is a fragment of more than 64 KiB."""
    rng = random.Random(5)
    d = [[rng.randrange(_P) for _ in range(n)] for _ in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    return {
        "field": {"kind": "prime", "p": _P},
        "objects": {"X": {"dims": {"0": n, "1": n}, "diff": {"0": d}}},
        "maps": {"idX": {"from": "X", "to": "X", "components": {"0": ident, "1": ident}}},
        "homotopies": {},
        "roofs": {},
    }


def _homcat_process(
    *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unbuffered=False, closed_fd=None, preexec=None
):
    """Run ``python -m homcat.cli ARGV``; with ``closed_fd`` the child starts
    with that descriptor closed, so its sys.stdout or sys.stderr is None,
    and ``preexec`` runs in the child before it starts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    preexec = preexec if closed_fd is None else (lambda: os.close(closed_fd))
    return subprocess.run(
        [sys.executable, "-m", "homcat.cli", *argv],
        env=env,
        stdout=stdout,
        stderr=stderr,
        preexec_fn=preexec,
        timeout=120,
    )


def test_the_process_writes_exactly_what_main_writes(capsys, tmp_path):
    runs = [("--help",)]
    for name, doc, invocations in (
        ("q.json", SESSION_Q, [argv for argv, _, _ in _Q_GOLDEN]),
        ("p.json", SESSION_P, _P_INVOCATIONS),
        ("large.json", _large_session(), [("cone", "idX")]),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        runs += [(argv[0], str(path), *argv[1:]) for argv in invocations]
    for argv in runs:
        code, out, err = run(capsys, *argv)
        proc = _homcat_process(*argv)
        assert (proc.returncode, proc.stdout) == (code, out.encode()), (argv, proc.stderr.decode())
    assert len(out) > 65536  # the large cone, more than a pipe holds


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (("cone", "f"), "cannot write output: "),
        (("qis", "f"), "cannot write output: "),
        # nothing to write: only the input error is reported
        (("qis", "ghost"), "UnknownReferenceError: "),
    ],
    ids=["cone", "qis", "input-error"],
)
def test_a_failed_write_of_the_output_exits_2_with_one_line(tmp_path, argv, message, unbuffered):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(SESSION_Q))
    with open("/dev/full", "wb") as full:
        proc = _homcat_process(argv[0], str(path), *argv[1:], stdout=full, unbuffered=unbuffered)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cone", "f"), "cannot write output: "),
        (("qis", "g"), "cannot write output: "),
        (("--help",), "cannot write output: "),
        # nothing to write: only the input error is reported
        (("qis", "ghost"), "UnknownReferenceError: "),
    ],
    ids=["cone", "qis-false", "help", "input-error"],
)
def test_a_closed_stdout_exits_2_with_one_line(tmp_path, argv, message):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(SESSION_Q))
    args = argv if argv[0] == "--help" else (argv[0], str(path), *argv[1:])
    proc = _homcat_process(*args, closed_fd=1)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("stderr", ["closed", "full"])
@pytest.mark.parametrize(
    "argv, code",
    [(("cone", "f"), 0), (("qis", "f"), 0), (("qis", "g"), 1), (("qis", "ghost"), 2), (("qis",), 2)],
    ids=["cone", "qis-true", "qis-false", "input-error", "usage"],
)
def test_a_closed_or_full_stderr_keeps_the_exit_code_and_the_output(capsys, tmp_path, argv, code, stderr):
    if stderr == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    path = tmp_path / "q.json"
    path.write_text(json.dumps(SESSION_Q))
    args = (argv[0], str(path), *argv[1:])
    want_code, out, _ = run(capsys, *args)
    assert want_code == code
    if stderr == "closed":
        proc = _homcat_process(*args, closed_fd=2)
    else:
        with open("/dev/full", "wb") as full:
            proc = _homcat_process(*args, stderr=full)
    # a traceback would have ended the process with exit 1
    assert (proc.returncode, proc.stdout, proc.stderr or b"") == (code, out.encode(), b"")


def test_a_session_file_too_large_to_read_exits_2_with_one_line(tmp_path):
    resource = pytest.importorskip("resource")
    limit = 300 * 2**20
    path = tmp_path / "huge.json"
    with open(path, "wb") as fh:
        fh.truncate(limit + 2**20)  # sparse: larger than the child may map, yet no disk blocks
    proc = _homcat_process(
        "validate", str(path), preexec=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith(f"cannot read session file {cli.quote(str(path))}: ") and err.count("\n") == 1, err
    assert proc.stdout == b""


def test_importing_homcat_loads_no_dataclasses():
    check = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import homcat.cli\n"
        "added = set(sys.modules) - before\n"
        "assert not added & {'dataclasses', 'inspect'}, sorted(added & {'dataclasses', 'inspect'})\n"
    )
    proc = _python(check)
    assert proc.returncode == 0, proc.stderr.decode()


# hostile input: exit 2 with the error class on stderr, never a traceback


def run_hostile(capsys, tmp_path, content):
    path = tmp_path / "hostile.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "validate", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    return err, peak


def test_non_utf8_file_cannot_be_read(capsys, tmp_path):
    err, _ = run_hostile(capsys, tmp_path, b'{"field": "\xff\xfe"}')
    assert "cannot read session file" in err
    assert "utf-8" in err


def test_deeply_nested_json_is_a_syntax_error(capsys, tmp_path):
    depth = 200_000
    err, _ = run_hostile(capsys, tmp_path, '{"field": ' + "[" * depth + "]" * depth + "}")
    assert err.startswith("SessionSyntaxError:")


def test_huge_dims_refused_before_allocation(capsys, tmp_path):
    text = '{"field": {"kind": "prime", "p": 5}, "objects": {"A": {"dims": {"0": 200000, "1": 200000}}}}'
    assert len(text) == 92
    err, peak = run_hostile(capsys, tmp_path, text)
    assert err.startswith("SessionSyntaxError: object 'A':")
    assert peak < 2**20


def test_wide_window_refused_before_allocation(capsys, tmp_path):
    text = '{"field": {"kind": "prime", "p": 5}, "objects": {"A": {"dims": {"0": 1, "100000000": 1}}}}'
    err, peak = run_hostile(capsys, tmp_path, text)
    assert err.startswith("SessionSyntaxError: object 'A':")
    assert peak < 2**20


def test_zero_filled_components_count_toward_the_cap(capsys, tmp_path):
    # the object fits; each zero-filled 1500 x 1500 component takes the same again
    session = {
        "field": {"kind": "prime", "p": 5},
        "objects": {"A": {"dims": {"0": 1500}}},
        "maps": {"z": {"from": "A", "to": "A"}},
        "homotopies": {"k": {"from": "A", "to": "A"}},
    }
    err, peak = run_hostile(capsys, tmp_path, json.dumps(session))
    assert err.startswith("SessionSyntaxError: map 'z':")
    assert peak < 2**20
    # 2 x 1200^2 entries of objects fit, and the homotopy A^0 -> B^-1 takes them over
    del session["maps"]
    session["objects"] = {"A": {"dims": {"0": 1200}}, "B": {"dims": {"-1": 1200}}}
    session["homotopies"]["k"]["to"] = "B"
    err, peak = run_hostile(capsys, tmp_path, json.dumps(session))
    assert err.startswith("SessionSyntaxError: homotopy 'k':")
    assert peak < 2**20


def test_rational_result_too_long_to_write_exits_2(capsys, tmp_path):
    # H^0 is spanned by a kernel vector whose entries are 2 x 2 minors of
    # 2,200-digit integers: past the 4,300 digits a session may hold
    rng = random.Random(5)
    rows = [[rng.randrange(10**2199, 10**2200) for _ in range(3)] for _ in range(2)]
    doc = {"field": {"kind": "rational"}, "objects": {"A": {"dims": {"0": 3, "1": 2}, "diff": {"0": rows}}}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cohomology", str(path), "A")
    assert code == 2
    assert out == ""
    assert err.startswith("SessionSyntaxError: object 'A' representatives at degree 0:")
    assert "Traceback" not in err


def test_long_object_name_is_quoted_briefly_on_a_result_too_long_to_write(capsys, tmp_path):
    rng = random.Random(5)
    rows = [[rng.randrange(10**2199, 10**2200) for _ in range(3)] for _ in range(2)]
    name = "A" * 5000
    doc = {"field": {"kind": "rational"}, "objects": {name: {"dims": {"0": 3, "1": 2}, "diff": {"0": rows}}}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cohomology", str(path), name)
    assert code == 2
    assert out == ""
    assert err.startswith("SessionSyntaxError: object 'AAAA")
    assert len(err) < 300


@pytest.mark.parametrize(
    "argv, names",
    [
        (["cohomology", None, "x" * 5000], "UnknownReferenceError: unknown object 'xxx"),
        (["shift", None, "A", "9" * 5000], "UsageError: shift amount must be an integer, got '999"),
        (["validate", "/" + "d" * 5000], "cannot read session file '/ddd"),
    ],
    ids=["object", "shift-amount", "file"],
)
def test_cli_arguments_are_quoted_briefly(capsys, session_file, argv, names):
    code, out, err = run(capsys, *(session_file if a is None else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(names)
    assert len(err) < 300


def test_unknown_command_is_quoted_briefly(capsys, session_file):
    code, out, err = run(capsys, "z" * 5000, session_file)
    assert code == 2
    first = err.splitlines()[0]
    assert first.startswith("unknown command 'zzz")
    assert len(first) < 100


def _distinct_prime_reciprocals(n):
    """An n x n matrix of 1/q over distinct 19-bit primes q, as session rows."""
    sieve = bytearray([1]) * 2**19
    sieve[:2] = b"\0\0"
    for i in range(2, 2**10):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, 2**19, i)))
    primes = [i for i in range(2**18, 2**19) if sieve[i]][: n * n]
    return [[f"1/{primes[i * n + j]}" for j in range(n)] for i in range(n)]


def test_many_distinct_rational_denominators_parse_in_bounded_memory(capsys, tmp_path):
    # 6,400 distinct 19-bit prime denominators: their lcm has about 120,000
    # bits, so scaling every entry to it would take about 100 MB
    n = 80
    rows = _distinct_prime_reciprocals(n)
    doc = {"field": {"kind": "rational"}, "objects": {"A": {"dims": {"0": n, "1": n}, "diff": {"0": rows}}}}
    path = tmp_path / "denominators.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "validate", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert err == ""
    assert json.loads(out) == {"command": "validate", "ok": True}
    assert peak < 2**23


def test_product_with_many_distinct_denominators_is_checked_at_parse(capsys, tmp_path):
    # d^1 d^0 for an all-ones d^1 sums 80 reciprocals of distinct primes per
    # entry: its common denominators are far past the bound of the integer form
    n = 80
    rows = _distinct_prime_reciprocals(n)
    ones = [[1] * n for _ in range(n)]
    dims = {"0": n, "1": n, "2": n}
    doc = {"field": {"kind": "rational"}, "objects": {"A": {"dims": dims, "diff": {"0": rows, "1": ones}}}}
    path = tmp_path / "not_a_complex.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "InvalidComplexError" in err and "degree 0" in err
    assert "Traceback" not in err


def _nested(depth):
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"field": {"kind": "k" * 5000}}, "field kind"),
        ({"field": {"kind": _nested(900)}}, "field kind"),
        (
            {
                "field": {"kind": "rational"},
                "objects": {"A": {"dims": {"0": 1, "1": 1}, "diff": {"0": [["7" * 4000 + "/x" + "9" * 998]]}}},
            },
            "object 'A' diff 0 row 0: bad rational scalar",
        ),
    ],
    ids=["long-kind", "deep-kind", "long-scalar"],
)
def test_error_messages_quote_values_briefly(capsys, tmp_path, doc, names):
    err, _ = run_hostile(capsys, tmp_path, json.dumps(doc))
    assert len(err.encode()) < 300
    assert err.startswith("SessionSyntaxError:")
    assert names in err


@pytest.mark.parametrize(
    "fault",
    [RuntimeError("self-check failed\n" * 100), MemoryError(), RecursionError("too deep"), KeyError("x")],
    ids=lambda e: type(e).__name__,
)
def test_internal_faults_exit_3_with_one_line(capsys, monkeypatch, session_file, fault):
    def handler(session, args):
        raise fault

    monkeypatch.setitem(cli._COMMANDS, "validate", handler)
    code, out, err = run(capsys, "validate", session_file)
    assert code == 3
    assert out == ""
    assert err.startswith(f"internal error: {type(fault).__name__}")
    assert err.count("\n") == 1 and len(err) < 300
    assert "Traceback" not in err


# fuzzing the exit-code contract


FUZZ_SESSION = copy.deepcopy(SESSION)
FUZZ_SESSION["homotopies"]["k"] = {"from": "A", "to": "A", "components": {"1": [[1]]}}

# one invocation of every command, on names of FUZZ_SESSION
FUZZ_INVOCATIONS = [
    ("validate",),
    ("cohomology", "A"),
    ("shift", "A", "1"),
    ("cone", "idA"),
    ("les", "idA"),
    ("homotopic", "idA", "zA"),
    ("qis", "zA"),
    ("flip", "idP", "idP"),
    ("compose", "rid", "rz"),
    ("roof-equiv", "rid", "rid", "--witness", "P", "idP", "idP", "idP", "idP"),
    ("lift", "zA"),
]


class _Obj(list):
    """A JSON object as an ordered list of [key, value] pairs; keys may repeat."""


class _Raw(str):
    """JSON text emitted verbatim."""


def _to_pairs(value):
    if isinstance(value, dict):
        return _Obj([k, _to_pairs(v)] for k, v in value.items())
    if isinstance(value, list):
        return [_to_pairs(v) for v in value]
    return value


def _dump(value) -> str:
    if isinstance(value, _Raw):
        return value
    if isinstance(value, _Obj):
        return "{" + ", ".join(json.dumps(k) + ": " + _dump(v) for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    return json.dumps(value)


_HOSTILE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.sampled_from([-1, 2**31 - 1, 2**31, 2**63, 10**30]),
    st.text(max_size=4),
    st.sampled_from(["1/0", "1/2", "-3/4", "A", "idA", "1/" + "9" * 5000]),
    st.sampled_from([1, 50, 900, 5000, 200_000]).map(lambda n: _Raw("[" * n + "]" * n)),
    st.sampled_from([20, 5000]).map(lambda n: _Raw("9" * n)),
    st.sampled_from([_Obj(), [], [[1]], [[1, 2], [3]]]).map(copy.deepcopy),
)
_HOSTILE_KEYS = st.sampled_from(
    ["01", "+1", " 1", "-0", "1.0", "", "1e3", "-3", "99999999999", "9" * 5000, "from", "dims"]
)


@st.composite
def mutated_sessions(draw):
    """FUZZ_SESSION with one to three keys or values dropped, duplicated or replaced."""
    doc = _to_pairs(FUZZ_SESSION)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            children = [v for _, v in node] if isinstance(node, _Obj) else node
            containers = [c for c in children if isinstance(c, list) and c]
            # stop at three nodes in four, so most mutations sit below the top level
            if not containers or draw(st.integers(0, 3)) == 0:
                break
            node = draw(st.sampled_from(containers))
        j = draw(st.integers(0, len(node) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "replace", "rekey"]))
        if op == "drop":
            del node[j]
        elif op == "duplicate":
            node.insert(j, copy.deepcopy(node[j]))
        elif isinstance(node, _Obj):
            node[j][0 if op == "rekey" else 1] = draw(_HOSTILE_KEYS if op == "rekey" else _HOSTILE_VALUES)
        else:
            node[j] = draw(_HOSTILE_VALUES)
        if not doc:
            break
    return _dump(doc)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(text=mutated_sessions(), invocation=st.sampled_from(FUZZ_INVOCATIONS))
def test_fuzzed_sessions_keep_the_exit_code_contract(capsys, tmp_path, text, invocation):
    path = tmp_path / "fuzzed.json"
    path.write_text(text)
    command, *args = invocation
    code, out, err = run(capsys, command, str(path), *args)
    assert code in (0, 1, 2)

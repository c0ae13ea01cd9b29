"""Acceptance suite: eight end-to-end properties, one test per criterion.

``pytest -v`` therefore prints one pass/fail line per criterion.  Every
comparison is exact equality — the arithmetic is exact, so there are no
tolerances anywhere.  Criteria with a wall-clock budget assert it.

Each criterion also prints a summary line (visible with ``pytest -rA``
or ``-s``); on failure the FAIL line is printed before the traceback.
"""

import itertools
import json
import time
from contextlib import contextmanager

from homcat import (
    Homotopy,
    Matrix,
    RoofEquivalenceWitness,
    SessionFile,
    check_homotopy,
    check_les_exact,
    cohomology,
    compose_chain_maps,
    compose_roofs,
    cone_triangle,
    emit_session,
    find_homotopy,
    flip_cospan,
    identity_chain_map,
    induced_cohomology_map,
    is_acyclic,
    is_quasi_iso,
    lift_map_to_roof,
    mapping_cone,
    parse_session,
    perturb_by_homotopy,
    rotate_triangle,
    shift,
    validate_complex,
    verify_roof_equivalence,
    zero_chain_map,
)
from homcat.cli import main
from homcat.session import MapEntry, RoofEntry
from randgen import (
    F2,
    F5,
    Q,
    random_chain_map,
    random_complex,
    random_cospan,
    random_homotopy,
    random_quasi_iso,
)

import random


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS: {description} [{elapsed:.2f}s]")


def test_criterion_1_cone_well_formed_and_dimension_additive():
    rng = random.Random(101)
    with criterion(1, "500 mapping cones are valid complexes with additive dims"):
        start = time.perf_counter()
        for _ in range(500):
            a = random_complex(rng, F5)  # dims <= 4, window inside [-3, 3]
            b = random_complex(rng, F5)
            f = random_chain_map(rng, a, b)
            cone = mapping_cone(f).cone
            report = validate_complex(cone)
            assert report.ok, (report.degree, report.product)
            for i in range(cone.lo - 1, cone.hi + 2):
                assert cone.dim(i) == a.dim(i + 1) + b.dim(i)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds the 5s budget"


def test_criterion_2_homotopic_maps_induce_identical_cohomology_maps():
    rng = random.Random(102)
    with criterion(2, "300 homotopy perturbations leave every induced matrix unchanged"):
        fields = [F5, F2, Q]
        for trial in range(300):
            field = fields[trial % 3]
            a = random_complex(rng, field, max_dim=3)
            b = random_complex(rng, field, max_dim=3)
            f = random_chain_map(rng, a, b)
            k = random_homotopy(rng, a, b)
            g = perturb_by_homotopy(f, k)
            for i in range(min(a.lo, b.lo) - 1, max(a.hi, b.hi) + 2):
                assert induced_cohomology_map(f, i) == induced_cohomology_map(g, i)


def test_criterion_3_quasi_iso_iff_acyclic_cone():
    rng = random.Random(103)
    with criterion(3, "200 maps: is_quasi_iso(f) == is_acyclic(cone(f)) every time"):
        verdicts = set()
        for trial in range(200):
            if trial % 2 == 0:
                f = random_quasi_iso(rng, F5)
            else:
                a = random_complex(rng, F5, max_dim=3)
                b = random_complex(rng, F5, max_dim=3)
                f = random_chain_map(rng, a, b)
            verdict = is_quasi_iso(f)
            assert verdict == is_acyclic(mapping_cone(f).cone)
            if trial % 2 == 0:
                assert verdict, "constructed quasi-isomorphism failed its own test"
            verdicts.add(verdict)
        assert verdicts == {True, False}, "both verdicts must be exercised"


def test_criterion_4_flip_end_to_end():
    rng = random.Random(104)
    with criterion(
        4,
        "200 cospan flips: invariants, closed-form witness, cohomology dims, "
        "independent rediscovery",
    ):
        start = time.perf_counter()
        for _ in range(200):
            cs = random_cospan(rng, F5)
            res = flip_cospan(cs)
            k = res.k_complex
            big_l = cs.alpha.source
            big_m = cs.beta.source
            tgt = cs.alpha.target

            # invariant: the flipped complex is a genuine complex
            assert validate_complex(k).ok
            # invariant: the new denominator leg is a quasi-isomorphism
            assert is_quasi_iso(res.gamma2)
            # invariant: the square commutes up to the returned witness
            top = compose_chain_maps(res.gamma2, cs.alpha)
            bottom = compose_chain_maps(res.gamma1, cs.beta)
            assert check_homotopy(bottom, top, res.witness)

            # the witness is literally the closed form (0, 0, -id) blockwise
            for i in range(k.lo, k.hi + 1):
                rows, cols = tgt.dim(i - 1), k.dim(i)
                if rows == 0 or cols == 0:
                    continue
                closed_form = Matrix.from_rows(
                    F5,
                    [
                        [
                            F5.coerce(-1) if c == big_l.dim(i) + big_m.dim(i) + r else F5.zero()
                            for c in range(cols)
                        ]
                        for r in range(rows)
                    ],
                    cols=cols,
                )
                assert res.witness.component(i) == closed_form

            # cohomology dimensions transport across the quasi-isomorphism
            for i in range(min(k.lo, big_l.lo) - 1, max(k.hi, big_l.hi) + 2):
                assert cohomology(big_l, i).dim == cohomology(k, i).dim

            # a witness is rediscoverable without the closed form
            rediscovered = find_homotopy(bottom, top)
            assert rediscovered is not None
            assert check_homotopy(bottom, top, rediscovered)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds the 30s budget"


def test_criterion_5_long_exact_sequence_for_cone_triangles():
    rng = random.Random(105)
    with criterion(5, "200 cone triangles and their rotations have exact LES"):
        for _ in range(200):
            a = random_complex(rng, F5, max_dim=3)
            b = random_complex(rng, F5, max_dim=3)
            f = random_chain_map(rng, a, b)
            t = cone_triangle(f)
            assert check_les_exact(t)
            assert check_les_exact(rotate_triangle(t))


def _homotopy_slots(a, b):
    """All (degree, row, col) positions a homotopy a -> b can occupy."""
    slots = []
    for i in range(max(a.lo, b.lo + 1), min(a.hi, b.hi + 1) + 1):
        for r in range(b.dim(i - 1)):
            for c in range(a.dim(i)):
                slots.append((i, r, c))
    return slots


def _witness_exists_by_enumeration(f, g, slots):
    a, b = f.source, f.target
    degrees = sorted({i for (i, _, _) in slots})
    shapes = {i: (b.dim(i - 1), a.dim(i)) for i in degrees}
    for bits in itertools.product((0, 1), repeat=len(slots)):
        filled = {
            i: [[0] * cols for _ in range(rows)]
            for i, (rows, cols) in shapes.items()
        }
        for (i, r, c), bit in zip(slots, bits):
            filled[i][r][c] = bit
        comps = {
            i: Matrix.from_rows(F2, filled[i], cols=shapes[i][1])
            for i in degrees
        }
        candidate = Homotopy.create(a, b, comps)
        if check_homotopy(f, g, candidate):
            return True
    return False


def test_criterion_6_find_homotopy_agrees_with_exhaustive_search():
    rng = random.Random(106)
    with criterion(
        6, "100 small instances over GF(2): solver verdict matches enumeration"
    ):
        start = time.perf_counter()
        nontrivial = trivial = 0
        outcomes = set()
        biggest = 0
        while nontrivial + trivial < 100:
            a = random_complex(rng, F2, lo=-2, hi=2, max_dim=2, max_width=3)
            b = random_complex(rng, F2, lo=-2, hi=2, max_dim=2, max_width=3)
            slots = _homotopy_slots(a, b)
            if len(slots) > 12:
                continue
            if not slots:
                if trivial >= 10:
                    continue
                trivial += 1
            else:
                nontrivial += 1
            biggest = max(biggest, len(slots))
            f = random_chain_map(rng, a, b)
            g = random_chain_map(rng, a, b)
            found = find_homotopy(f, g)
            exists = _witness_exists_by_enumeration(f, g, slots)
            assert (found is not None) == exists
            if found is not None:
                assert check_homotopy(f, g, found)
            outcomes.add(exists)
        assert nontrivial == 90
        assert biggest >= 8, "search spaces stayed too small to trust the oracle"
        assert outcomes == {True, False}, "both outcomes must be exercised"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds the 60s budget"


def test_criterion_7_roof_composition_matches_lifted_composite():
    rng = random.Random(107)
    with criterion(
        7, "50 composable pairs: compose(lift f, lift g) equivalent to lift(g.f)"
    ):
        for _ in range(50):
            a = random_complex(rng, F5, lo=-2, hi=2, max_dim=2, max_width=3)
            b = random_complex(rng, F5, lo=-2, hi=2, max_dim=2, max_width=3)
            c = random_complex(rng, F5, lo=-2, hi=2, max_dim=2, max_width=3)
            f = random_chain_map(rng, a, b)
            g = random_chain_map(rng, b, c)
            composed = compose_roofs(lift_map_to_roof(f), lift_map_to_roof(g))
            lifted = lift_map_to_roof(compose_chain_maps(f, g))
            witness = RoofEquivalenceWitness(
                apex3=composed.apex,
                denom3=composed.denom,
                numer3=composed.numer,
                up=identity_chain_map(composed.apex),
                down=composed.denom,
            )
            assert verify_roof_equivalence(composed, lifted, witness)


def test_criterion_8_cli_round_trip_and_exit_codes(tmp_path, capsys):
    rng = random.Random(108)

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def reparse(text):
        fragment = parse_session(text)
        assert emit_session(fragment) == text, "fragment must re-emit byte-identically"
        return fragment

    with criterion(8, "CLI artifacts re-parse to equal values; exit codes 0/1/2"):
        a = random_complex(rng, F5, lo=-2, hi=1, max_dim=3, min_width=2)
        b = random_complex(rng, F5, lo=-2, hi=1, max_dim=3, min_width=2)
        c = random_complex(rng, F5, lo=-2, hi=1, max_dim=3, min_width=2)
        f = random_chain_map(rng, a, b)
        g = random_chain_map(rng, b, c)
        cs = random_cospan(rng, F5)
        session = SessionFile(
            F5,
            objects={
                "A": a,
                "B": b,
                "C": c,
                "L": cs.alpha.source,
                "M": cs.alpha.target,
                "N": cs.beta.source,
            },
            maps={
                "f": MapEntry("A", "B", f),
                "g": MapEntry("B", "C", g),
                "idA": MapEntry("A", "A", identity_chain_map(a)),
                "idB": MapEntry("B", "B", identity_chain_map(b)),
                "zAB": MapEntry("A", "B", zero_chain_map(a, b)),
                "alpha": MapEntry("L", "M", cs.alpha),
                "beta": MapEntry("N", "M", cs.beta),
            },
            roofs={
                "rf": RoofEntry("idA", "f", lift_map_to_roof(f)),
                "rg": RoofEntry("idB", "g", lift_map_to_roof(g)),
            },
        )
        path = tmp_path / "session.json"
        path.write_text(emit_session(session))

        # exit code 0: valid input, true verdict
        code, out, _ = run("validate", str(path))
        assert code == 0 and json.loads(out)["ok"] is True
        code, out, _ = run("qis", str(path), "beta")
        assert code == 0 and json.loads(out)["result"] is True

        # exit code 1: well-formed input, false verdict
        code, out, _ = run("qis", str(path), "zAB")
        assert (code, json.loads(out)["result"]) == (1, False)

        # exit code 2: input errors
        code, _, err = run("qis", str(path), "missing")
        assert code == 2 and "UnknownReferenceError" in err
        code, _, err = run("qis", str(tmp_path / "absent.json"), "f")
        assert code == 2

        # shift artifact
        code, out, _ = run("shift", str(path), "A", "2")
        assert code == 0
        assert reparse(out).objects["shifted"] == shift(a, 2)

        # cone artifact
        code, out, _ = run("cone", str(path), "f")
        assert code == 0
        fragment = reparse(out)
        mc = mapping_cone(f)
        assert fragment.objects["cone"] == mc.cone
        assert fragment.objects["source_shift"] == shift(a, 1)
        assert fragment.maps["incl"].value == mc.incl
        assert fragment.maps["proj"].value == mc.proj

        # homotopy witness artifact
        code, out, _ = run("homotopic", str(path), "f", "f")
        assert code == 0
        fragment = reparse(out)
        assert check_homotopy(f, f, fragment.homotopies["witness"].value)

        # lift artifact
        code, out, _ = run("lift", str(path), "f")
        assert code == 0
        fragment = reparse(out)
        roof = fragment.roofs["lifted"].value
        lifted = lift_map_to_roof(f)
        assert (roof.apex, roof.denom, roof.numer) == (
            lifted.apex,
            lifted.denom,
            lifted.numer,
        )

        # compose artifact
        code, out, _ = run("compose", str(path), "rf", "rg")
        assert code == 0
        fragment = reparse(out)
        computed = compose_roofs(lift_map_to_roof(f), lift_map_to_roof(g))
        emitted = fragment.roofs["composite"].value
        assert (emitted.apex, emitted.denom, emitted.numer) == (
            computed.apex,
            computed.denom,
            computed.numer,
        )

        # flip artifact, then qis of gamma2 through the CLI alone
        code, out, _ = run("flip", str(path), "alpha", "beta")
        assert code == 0
        fragment = reparse(out)
        res = flip_cospan(cs)
        assert fragment.objects["K"] == res.k_complex
        assert fragment.maps["gamma2"].value == res.gamma2
        assert fragment.maps["gamma1"].value == res.gamma1
        assert fragment.homotopies["h"].value == res.witness
        flipped_path = tmp_path / "flipped.json"
        flipped_path.write_text(out)
        code, out, _ = run("qis", str(flipped_path), "gamma2")
        assert code == 0 and json.loads(out)["result"] is True

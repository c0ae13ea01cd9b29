"""Tests of the benchmark's own generator, checker and tracer.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import hashlib

import homcat
import pytest

import check
import gen
from tracer import self_times
from worker import homotopy_output


def _digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen.homotopy_gf5(seed, 4)[0],
        lambda seed: gen.roofs_q(seed, 4)[0],
        lambda seed: [gen.cli_file(seed, 0, 4).text],
    ],
    ids=["homotopy_gf5", "roofs_q", "cli_p31"],
)
def test_generator_is_deterministic_per_seed(make):
    assert _digest(make(3)) == _digest(make(3))
    assert _digest(make(3)) != _digest(make(4))


def test_checker_rejects_a_witness_with_one_entry_changed():
    sessions, ops = gen.homotopy_gf5(seed=1, count=2)
    op = next(op for op in ops if op.homotopic)
    session = homcat.parse_session(sessions[op.session])
    witness = homcat.find_homotopy(session.maps[op.f].value, session.maps[op.g].value)
    k = homotopy_output(witness)
    assert check.homotopy(op, k)
    degree = next(i for i, m in enumerate(k) if m.size)
    k[degree][0, 0] = (k[degree][0, 0] + 1) % 5
    assert not check.homotopy(op, k)


def test_checker_rejects_a_wrong_homotopy_verdict():
    _, ops = gen.homotopy_gf5(seed=1, count=2)
    homotopic = next(op for op in ops if op.homotopic)
    apart = next(op for op in ops if not op.homotopic)
    assert not check.homotopy(homotopic, None)
    assert check.homotopy(apart, None)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
        ("e", 11.0, 12.5, -1, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]

"""Independent checks of homcat's outputs, in the benchmark's own arithmetic.

Each check returns True for a correct output.  Expected verdicts come
from the construction in gen.py; witnesses and emitted complexes are
verified directly rather than compared byte for byte, so a different but
valid witness still passes.
"""

from __future__ import annotations

import json

import numpy as np

from exact import Field, is_complex
from gen import P31, Cx, HomotopyOp, RoofPool, RoofsOp


def _dim(c: Cx, i: int) -> int:
    return c.dims[i] if 0 <= i < len(c.dims) else 0


def _d(fld: Field, c: Cx, i: int) -> np.ndarray:
    return c.diff[i] if 0 <= i < len(c.diff) else fld.zeros(_dim(c, i + 1), _dim(c, i))


def homotopy(op: HomotopyOp, witness: list | dict | None) -> bool:
    """Verdict matches the construction; a witness satisfies g - f = d k + k d."""
    if isinstance(witness, dict):  # the operation raised
        return False
    if witness is None:
        return not op.homotopic
    if not op.homotopic:
        return False
    fld = Field(5)
    a, b = op.f_map.source, op.f_map.target
    n = len(a.dims)
    k = witness
    for i in range(n):
        if k[i].shape != (_dim(b, i - 1), a.dims[i]):
            return False
    for i in range(n):
        rhs = fld.add(fld.mul(_d(fld, b, i - 1), k[i]), fld.mul(k[i + 1], _d(fld, a, i)))
        if not np.array_equal(fld.sub(op.g_map.comps[i], op.f_map.comps[i]), rhs):
            return False
    return True


def _ranked_cohomology(fld: Field, dims: dict, diff: dict) -> dict:
    ranks = {i: fld.rank(d) if d.size else 0 for i, d in diff.items()}
    return {i: dims[i] - ranks.get(i, 0) - ranks.get(i - 1, 0) for i in dims}


def _is_chain_map(fld: Field, degrees: list[int], diff: dict, comps: dict, target: Cx) -> bool:
    for i in degrees[:-1]:
        if comps[i].shape != (_dim(target, i), diff[i].shape[1]):
            return False
        left = fld.mul(_d(fld, target, i), comps[i])
        right = fld.mul(comps[i + 1], diff[i])
        if not np.array_equal(left, right):
            return False
    return True


def roofs(pool: RoofPool, op: RoofsOp, out: dict) -> bool:
    """The composite is a roof from r1's left end to r2's right end.

    Its apex must be a complex whose cohomology dims, by rank, equal
    those of the left end (the composite denominator is a
    quasi-isomorphism), both legs must be chain maps, the quasi-iso
    verdict must be true and the cone's long sequence exact.
    """
    if "error" in out or out["qis"] is not True or out["exact"] is not True:
        return False
    fld = Field()
    left = pool.objects[pool.endpoints(op.r1)[0]]
    right = pool.objects[pool.endpoints(op.r2)[1]]
    degrees = sorted(out["dims"])
    diff = out["diff"]
    if not is_complex(fld, [diff[i] for i in degrees]):
        return False
    coh = _ranked_cohomology(fld, out["dims"], diff)
    if any(coh[i] != (left.h[i] if 0 <= i < len(left.h) else 0) for i in degrees):
        return False
    return _is_chain_map(fld, degrees, diff, out["denom"], left) and _is_chain_map(
        fld, degrees, diff, out["numer"], right
    )


# -- the CLI ---------------------------------------------------------------------

COMMANDS = (
    ("validate",),
    ("cohomology", "X"),
    ("qis", "d1"),
    ("qis", "n1"),
    ("les", "n1"),
    ("cone", "n1"),
    ("compose", "r1", "r2"),
    ("flip", "n1", "d2"),
)


def expected_exit(file, command: tuple) -> int:
    if command[0] != "qis":
        return 0
    fld = Field(P31)
    coh = file.maps[command[1]][2].coh
    iso = all(m.shape[0] == m.shape[1] and (m.size == 0 or fld.rank(m) == m.shape[0]) for m in coh)
    return 0 if iso else 1


def _emitted_complex(fld: Field, payload: dict) -> tuple[dict, list]:
    dims = {int(k): v for k, v in payload["dims"].items()}
    degrees = sorted(dims)
    diff = []
    for i in degrees:
        raw = payload.get("diff", {}).get(str(i))
        rows = dims.get(i + 1, 0)
        diff.append(fld.from_json(raw) if raw is not None else fld.zeros(rows, dims[i]))
    return dims, diff


def cli(file, command: tuple, exit_code: int, stdout: bytes) -> bool:
    """Exit code and report of one ``homcat`` run against the construction."""
    if exit_code != expected_exit(file, command):
        return False
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    fld = Field(P31)
    o = file.objects
    name = command[0]
    if name == "validate":
        return doc == {"command": "validate", "ok": True}
    if name == "cohomology":
        x = o[command[1]]
        table = doc.get("cohomology", {})
        for i, h in enumerate(x.h):
            entry = table.get(str(i), {})
            if entry.get("dim") != h:
                return False
            if h and np.array(entry.get("representatives")).shape != (x.dims[i], h):
                return False
        return True
    if name == "qis":
        return doc.get("result") is (exit_code == 0)
    if name == "les":
        return doc.get("exact") is True
    # constructive commands: the emitted complex has the predicted dims and d d = 0
    if name == "cone":
        key, want = "cone", {i: _dim(o["A1"], i + 1) + _dim(o["Y"], i) for i in range(-1, 4)}
        entries = (("maps", "incl"), ("maps", "proj"))
    else:
        # compose flips the cospan (n1, d2), so its apex is the flip's K
        want = {i: _dim(o["A1"], i) + _dim(o["A2"], i) + _dim(o["Y"], i - 1) for i in range(0, 5)}
        if name == "compose":
            key, entries = "apex", (("maps", "denom"), ("maps", "numer"), ("roofs", "composite"))
        else:
            key, entries = "K", (("maps", "gamma2"), ("maps", "gamma1"), ("homotopies", "h"))
    if any(entry not in doc.get(section, {}) for section, entry in entries):
        return False
    payload = doc.get("objects", {}).get(key)
    if payload is None:
        return False
    dims, diff = _emitted_complex(fld, payload)
    return dims == want and is_complex(fld, diff)

"""Seeded input generator for the three workloads.

Every complex is built in a standard form and then conjugated: degree i
splits as B^i + H^i + C^i, the standard differential sends C^i
identically onto B^{i+1}, and d^i = P_{i+1} D^i P_i^{-1} for random
invertible P_i whose inverses are known.  So each complex has
prescribed cohomology dims h_i, and a chain map is any family whose
standard-form blocks satisfy the commuting constraints, with the block
H_B^i x H_A^i being its map on cohomology.  Over a field two parallel
maps are homotopic exactly when those blocks agree, so every verdict is
known by construction and nothing here calls a solver.

Sizes follow a fixed low-discrepancy sequence, so any stretch of a run
covers the size range evenly and runs on different seeds see the same
sizes with different entries.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from exact import Field

P31 = 2**31 - 1
DEGREES = 4
# homotopy_gf5 pairs per session file
PER_SESSION = 16
# the roofs_q pool: its complexes and the roofs between them
COMPLEXES = 9
ROOFS = 16

# small rationals used for sparse conjugation over Q, so entries stay short
_Q_VALUES = [Fraction(v) for v in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    # string seeds hash through sha512, identical on every platform and version
    return random.Random(f"homcat-bench:{workload}:{seed}:{part}")


def spread(count: int, dims: int = 1) -> list[list[float]]:
    """The first ``count`` points of [0, 1)^dims of the additive R_d sequence.

    Its step is (1/g, 1/g^2, ...) with g the root of x^(dims+1) = x + 1
    (the golden ratio for dims = 1), so every run of consecutive points
    covers the cube evenly, in each coordinate and jointly.  The sequence
    does not depend on the seed: runs on different seeds go through the
    same sizes in the same order, with different entries.
    """
    g = 1.5
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    steps = [g ** -(k + 1) for k in range(dims)]
    return [[(0.5 + j * a) % 1.0 for a in steps] for j in range(count)]


def random_matrix(fld: Field, rng: random.Random, rows: int, cols: int, density: float = 1.0) -> np.ndarray:
    if fld.rational:
        m = fld.zeros(rows, cols)
        for i in range(rows):
            for j in range(cols):
                if rng.random() < density:
                    m[i, j] = rng.choice(_Q_VALUES)
        return m
    raw = np.frombuffer(rng.randbytes(4 * rows * cols), dtype="<u4").astype(np.int64)
    return (raw % fld.p).reshape(rows, cols)


def _inv_unit_lower(fld: Field, low: np.ndarray) -> np.ndarray:
    n = low.shape[0]
    inv = fld.eye(n)
    for i in range(1, n):
        inv[i : i + 1, :i] = fld.neg(fld.mul(low[i : i + 1, :i], inv[:i, :i]))
    return inv


def random_invertible(fld: Field, rng: random.Random, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, P^{-1}) with P = L U for random unit triangular L and U."""
    density = min(1.0, 2.0 / max(n, 1)) if fld.rational else 1.0
    low = random_matrix(fld, rng, n, n, density)
    up = random_matrix(fld, rng, n, n, density)
    low = np.tril(low, -1) + fld.eye(n)
    up = np.triu(up, 1) + fld.eye(n)
    if fld.rational:
        # np.tril/triu fill with int 0; keep every entry a Fraction
        low = low + fld.zeros(n, n)
        up = up + fld.zeros(n, n)
    p = fld.mul(low, up)
    p_inv = fld.mul(_inv_unit_lower(fld, up.T).T, _inv_unit_lower(fld, low))
    return p, p_inv


@dataclass
class Cx:
    """A complex on degrees 0..len(dims)-1 with its standard-form data."""

    dims: list[int]
    b: list[int]
    h: list[int]
    c: list[int]
    p: list[np.ndarray]
    p_inv: list[np.ndarray]
    diff: list[np.ndarray]

    def blocks(self, i: int) -> tuple[slice, slice, slice]:
        b, h = self.b[i], self.h[i]
        return slice(0, b), slice(b, b + h), slice(b + h, self.dims[i])


def make_complex(fld: Field, rng: random.Random, dims: list[int], ranks: list[int]) -> Cx:
    """Conjugated standard complex; ``ranks[i]`` is the rank of d^i."""
    n = len(dims)
    c = list(ranks) + [0]
    b = [0] + list(ranks)
    h = [dims[i] - b[i] - c[i] for i in range(n)]
    if min(h) < 0:
        raise ValueError(f"ranks {ranks} do not fit dims {dims}")
    p, p_inv = zip(*(random_invertible(fld, rng, d) for d in dims))
    diff = [fld.mul(p[i + 1][:, : c[i]], p_inv[i][b[i] + h[i] :, :]) for i in range(n - 1)]
    return Cx(list(dims), b, h, c, list(p), list(p_inv), diff)


@dataclass
class Map:
    source: Cx
    target: Cx
    coh: list[np.ndarray]  # the map on cohomology, H_target^i x H_source^i
    comps: list[np.ndarray]


def make_map(fld: Field, rng: random.Random, a: Cx, b: Cx, coh: list[np.ndarray]) -> Map:
    """A chain map a -> b whose standard-form blocks are random apart from ``coh``.

    In standard coordinates d_b F^i = F^{i+1} d_a forces the blocks
    (C_b, B_a), (C_b, H_a) and (H_b, B_a) to vanish and copies the block
    (C_b, C_a) of degree i into the block (B_b, B_a) of degree i+1.
    """
    comps = []
    carry = None
    for i in range(len(a.dims)):
        ab, ah, ac = a.blocks(i)
        bb, bh, bc = b.blocks(i)
        std = fld.zeros(b.dims[i], a.dims[i])
        if carry is not None:
            std[bb, ab] = carry
        for rows, cols in ((bb, ah), (bb, ac), (bh, ac), (bc, ac)):
            std[rows, cols] = random_matrix(fld, rng, rows.stop - rows.start, cols.stop - cols.start)
        std[bh, ah] = coh[i]
        carry = std[bc, ac]
        comps.append(fld.mul(fld.mul(b.p[i], std), a.p_inv[i]))
    return Map(a, b, coh, comps)


def random_coh(fld: Field, rng: random.Random, a: Cx, b: Cx) -> list[np.ndarray]:
    return [random_matrix(fld, rng, b.h[i], a.h[i]) for i in range(len(a.dims))]


def invertible_coh(fld: Field, rng: random.Random, a: Cx) -> list[np.ndarray]:
    return [random_invertible(fld, rng, n)[0] for n in a.h]


def add_homotopy(fld: Field, rng: random.Random, f: Map) -> Map:
    """f + d k + k d for a random homotopy k; same map on cohomology."""
    a, b = f.source, f.target
    n = len(a.dims)
    k = [None] + [random_matrix(fld, rng, b.dims[i - 1], a.dims[i]) for i in range(1, n)]
    comps = []
    for i in range(n):
        extra = fld.zeros(b.dims[i], a.dims[i])
        if i >= 1:
            extra = fld.add(extra, fld.mul(b.diff[i - 1], k[i]))
        if i + 1 < n:
            extra = fld.add(extra, fld.mul(k[i + 1], a.diff[i]))
        comps.append(fld.add(f.comps[i], extra))
    return Map(a, b, f.coh, comps)


def add_maps(fld: Field, f: Map, g: Map) -> Map:
    coh = [fld.add(x, y) for x, y in zip(f.coh, g.coh)]
    return Map(f.source, f.target, coh, [fld.add(x, y) for x, y in zip(f.comps, g.comps)])


# -- session text ---------------------------------------------------------------


def _matrix_table(fld: Field, mats: list[np.ndarray]) -> dict:
    # homcat accepts no zero-sized matrices, so empty blocks are left out
    return {str(i): fld.to_json(m) for i, m in enumerate(mats) if m.size}


def session_text(fld: Field, objects: dict[str, Cx], maps: dict[str, tuple[str, str, Map]],
                 roofs: dict[str, tuple[str, str]] | None = None) -> str:
    doc = {
        "field": fld.session_payload(),
        "objects": {
            name: {"dims": {str(i): n for i, n in enumerate(c.dims)}, "diff": _matrix_table(fld, c.diff)}
            for name, c in objects.items()
        },
        "maps": {
            name: {"from": src, "to": dst, "components": _matrix_table(fld, m.comps)}
            for name, (src, dst, m) in maps.items()
        },
        "homotopies": {},
        "roofs": {name: {"denom": d, "numer": n} for name, (d, n) in (roofs or {}).items()},
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


# -- workloads -------------------------------------------------------------------


def _ranks_for(rng: random.Random, dims: list[int]) -> list[int]:
    """Ranks of d^0, d^1, d^2 leaving some cohomology in every degree but the last."""
    r0 = rng.randint(max(1, dims[0] // 3), dims[0] - 1)
    r1 = rng.randint(1, min(dims[2], dims[1] - r0 - 1))
    r2 = rng.randint(1, min(dims[3], dims[2] - r1 - 1))
    return [r0, r1, r2]


@dataclass
class HomotopyOp:
    session: int
    f: str
    g: str
    homotopic: bool
    f_map: Map
    g_map: Map


def homotopy_gf5(seed: int, count: int) -> tuple[list[str], list[HomotopyOp]]:
    """``count`` fresh parallel pairs over GF(5), half of them homotopic.

    Source dims are (n, n+2, n+1, n) with n spread over 6..12; the target
    takes n or n+1.  A non-homotopic pair differs by a chain map whose map
    on cohomology is nonzero in some degree.
    """
    fld = Field(5)
    rng = rng_for("homotopy_gf5", seed)
    sessions: list[str] = []
    ops: list[HomotopyOp] = []
    objects: dict = {}
    maps: dict = {}
    for j, (u,) in enumerate(spread(count)):
        n = 6 + int(u * 7)
        dims_a = [n, n + 2, n + 1, n]
        m = n + rng.randint(0, 1)
        dims_b = [m, m + 2, m + 1, m]
        a = make_complex(fld, rng, dims_a, _ranks_for(rng, dims_a))
        b = make_complex(fld, rng, dims_b, _ranks_for(rng, dims_b))
        f = make_map(fld, rng, a, b, random_coh(fld, rng, a, b))
        homotopic = j % 2 == 0
        if homotopic:
            g = add_homotopy(fld, rng, f)
        else:
            coh = random_coh(fld, rng, a, b)
            # degree 1 has cohomology on both sides by the choice of ranks
            coh[1][rng.randrange(b.h[1]), rng.randrange(a.h[1])] = rng.randrange(1, 5)
            g = add_maps(fld, f, make_map(fld, rng, a, b, coh))
        objects[f"A{j}"], objects[f"B{j}"] = a, b
        maps[f"f{j}"] = (f"A{j}", f"B{j}", f)
        maps[f"g{j}"] = (f"A{j}", f"B{j}", g)
        ops.append(HomotopyOp(len(sessions), f"f{j}", f"g{j}", homotopic, f, g))
        if len(objects) == 2 * PER_SESSION or j == count - 1:
            sessions.append(session_text(fld, objects, maps))
            objects, maps = {}, {}
    return sessions, ops


# profiles of prescribed cohomology shared by the roofs_q and cli_p31 pools
_PROFILES = [(1, 1, 1, 0), (1, 2, 1, 1), (0, 1, 2, 1)]


def _profiled_complex(fld: Field, rng: random.Random, h: tuple, ranks: list[int]) -> Cx:
    dims = [h[i] + (ranks[i - 1] if i else 0) + (ranks[i] if i < DEGREES - 1 else 0) for i in range(DEGREES)]
    return make_complex(fld, rng, dims, ranks)


@dataclass
class RoofsOp:
    r1: str
    r2: str


@dataclass
class RoofPool:
    objects: dict[str, Cx]
    maps: dict[str, tuple[str, str, Map]]
    roofs: dict[str, tuple[str, str]]

    def endpoints(self, roof: str) -> tuple[str, str]:
        denom, numer = self.roofs[roof]
        return self.maps[denom][1], self.maps[numer][1]


def roofs_q(seed: int, count: int) -> tuple[list[str], RoofPool, list[RoofsOp]]:
    """A small pool of roofs over Q and ``count`` composable pairs drawn from it.

    The pool's shapes are fixed: complex k has profile k mod 3 and ranks
    near 1 + k // 3, and roof r runs from complex r mod 9 to complex
    (5r + 2) mod 9, with its apex in the profile of its left end, so its
    denominator can be a quasi-isomorphism by construction.  The seed
    draws the entries and the order of the pairs, which is a fresh
    shuffle of all composable pairs for each pass over them: the same
    complexes meet cohomology again and again, equally often on every seed.
    """
    fld = Field()
    rng = rng_for("roofs_q", seed)
    objects = {}
    for k in range(COMPLEXES):
        size = 1 + (k // len(_PROFILES)) % 3
        ranks = [max(1, size - (k + i) % 2) for i in range(DEGREES - 1)]
        objects[f"C{k}"] = _profiled_complex(fld, rng, _PROFILES[k % len(_PROFILES)], ranks)
    names = list(objects)
    maps: dict = {}
    roof_table: dict = {}
    for r in range(ROOFS):
        k = r % COMPLEXES
        same = [x for x in range(k % len(_PROFILES), COMPLEXES, len(_PROFILES)) if x != k]
        apex, left, right = names[same[(r // COMPLEXES) % len(same)]], names[k], names[(5 * r + 2) % COMPLEXES]
        a, x, y = objects[apex], objects[left], objects[right]
        maps[f"d{r}"] = (apex, left, make_map(fld, rng, a, x, invertible_coh(fld, rng, a)))
        maps[f"n{r}"] = (apex, right, make_map(fld, rng, a, y, random_coh(fld, rng, a, y)))
        roof_table[f"r{r}"] = (f"d{r}", f"n{r}")
    pool = RoofPool(objects, maps, roof_table)
    pairs = [(r1, r2) for r1 in roof_table for r2 in roof_table if pool.endpoints(r1)[1] == pool.endpoints(r2)[0]]
    ops: list[RoofsOp] = []
    while len(ops) < count:
        rng.shuffle(pairs)
        ops.extend(RoofsOp(*pair) for pair in pairs)
    return [session_text(fld, objects, maps, roof_table)], pool, ops[:count]


@dataclass
class CliFile:
    text: str
    objects: dict[str, Cx]
    maps: dict[str, tuple[str, str, Map]]


def cli_file(seed: int, index: int, size: int) -> CliFile:
    """One session over GF(2^31-1): two composable roofs r1 = (d1, n1), r2 = (d2, n2).

    Every complex has ranks (size, size - 1, size).  X and A1 share a
    profile, as do Y and A2, so d1 and d2 are quasi-isomorphisms; n1 and
    n2 are random chain maps.
    """
    fld = Field(P31)
    rng = rng_for("cli_p31", seed, f"file{index}")

    def cx(h):
        return _profiled_complex(fld, rng, h, [size, size - 1, size])

    hx, hy, hz = (_PROFILES[(index + k) % len(_PROFILES)] for k in range(3))
    objects = {"X": cx(hx), "Y": cx(hy), "Z": cx(hz), "A1": cx(hx), "A2": cx(hy)}
    o = objects
    maps = {
        "d1": ("A1", "X", make_map(fld, rng, o["A1"], o["X"], invertible_coh(fld, rng, o["A1"]))),
        "n1": ("A1", "Y", make_map(fld, rng, o["A1"], o["Y"], random_coh(fld, rng, o["A1"], o["Y"]))),
        "d2": ("A2", "Y", make_map(fld, rng, o["A2"], o["Y"], invertible_coh(fld, rng, o["A2"]))),
        "n2": ("A2", "Z", make_map(fld, rng, o["A2"], o["Z"], random_coh(fld, rng, o["A2"], o["Z"]))),
    }
    roofs = {"r1": ("d1", "n1"), "r2": ("d2", "n2")}
    return CliFile(session_text(fld, objects, maps, roofs), objects, maps)

"""Seeded random generators shared by the test modules.

Everything takes an explicit random.Random so failures reproduce.  The
generators only produce valid values (complexes with d2 = 0, chain maps
that commute on the nose, quasi-isomorphisms built from contractible
summands); tests that need invalid input perturb these by hand.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from homcat import (
    ChainMap,
    CochainComplex,
    Cospan,
    FieldSpec,
    Homotopy,
    Matrix,
    compose_chain_maps,
    direct_sum_complex,
    identity_chain_map,
    kernel_basis,
    mapping_cone,
    mat_mul,
    mat_scale,
    perturb_by_homotopy,
    transpose,
    zero_chain_map,
)

F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rational()


def random_scalar(rng, field):
    if field.kind == "prime":
        return rng.randrange(field.p)
    num = rng.randint(-4, 4)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_matrix(rng, field, rows, cols):
    return Matrix.from_rows(
        field, [[random_scalar(rng, field) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_complex(rng, field, lo=-3, hi=3, max_dim=4, min_width=1, max_width=4):
    """Random bounded complex with d2 = 0, window inside [lo, hi].

    Each differential after the first is drawn inside the left kernel of
    its predecessor: d_next = R K where the rows of K span the left null
    space of d_prev, so d_next d_prev = R K d_prev = 0.
    """
    width = rng.randint(min_width, max_width)
    start = rng.randint(lo, hi - width + 1)
    degs = list(range(start, start + width))
    dims = {i: rng.randint(0, max_dim) for i in degs}
    diff = {}
    prev = None
    for i in degs[:-1]:
        rows, cols = dims[i + 1], dims[i]
        if rows == 0 or cols == 0:
            diff[i] = Matrix.zeros(field, rows, cols)
            prev = diff[i]
            continue
        if prev is None or prev.cols == 0:
            diff[i] = random_matrix(rng, field, rows, cols)
        else:
            # rows of K span ker(x -> x d_prev), i.e. kernel of d_prev^T
            k = transpose(kernel_basis(transpose(prev)))
            if k.rows == 0:
                diff[i] = Matrix.zeros(field, rows, cols)
            else:
                r = random_matrix(rng, field, rows, k.rows)
                diff[i] = mat_mul(r, k)
        prev = diff[i]
    return CochainComplex.create(field, dims=dims, diff=diff)


def random_chain_map(rng, a, b):
    """Uniformly random chain map a -> b, sampled from the solution space
    of the commuting constraints (free coefficients drawn at random)."""
    field = a.field
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    degs = [i for i in range(lo, hi + 1) if a.dim(i) > 0 and b.dim(i) > 0]
    offsets = {}
    total = 0
    for i in degs:
        offsets[i] = total
        total += b.dim(i) * a.dim(i)
    if total == 0:
        return zero_chain_map(a, b)

    rows = []
    for i in range(lo - 1, hi + 1):
        da, db = a.d(i), b.d(i)
        # constraint: f^{i+1} d_a^i - d_b^i f^i = 0, entrywise
        n_out, n_in = b.dim(i + 1), a.dim(i)
        if n_out == 0 or n_in == 0:
            continue
        for r in range(n_out):
            for c in range(n_in):
                row = [field.zero()] * total
                if (i + 1) in offsets:
                    base = offsets[i + 1]
                    for t in range(a.dim(i + 1)):
                        row[base + r * a.dim(i + 1) + t] = da[t, c]
                if i in offsets:
                    base = offsets[i]
                    for s in range(b.dim(i)):
                        idx = base + s * a.dim(i) + c
                        row[idx] = field.coerce(row[idx] - db[r, s])
                rows.append(row)
    if rows:
        system = Matrix.from_rows(field, rows, cols=total)
    else:
        system = Matrix.zeros(field, 0, total)
    basis = kernel_basis(system)
    vec = [field.zero()] * total
    for j in range(basis.cols):
        coeff = random_scalar(rng, field)
        for t in range(total):
            vec[t] = field.coerce(vec[t] + coeff * basis[t, j])
    comps = {}
    for i in degs:
        base = offsets[i]
        m, n = b.dim(i), a.dim(i)
        comps[i] = Matrix.from_rows(
            field, [vec[base + r * n : base + (r + 1) * n] for r in range(m)], cols=n
        )
    return ChainMap.create(a, b, comps)


def random_homotopy(rng, a, b):
    """Arbitrary degree -1 collection a^i -> b^{i-1} (no constraints)."""
    comps = {}
    lo = max(a.lo, b.lo + 1)
    hi = min(a.hi, b.hi + 1)
    for i in range(lo, hi + 1):
        rows, cols = b.dim(i - 1), a.dim(i)
        if rows and cols:
            comps[i] = random_matrix(rng, field=a.field, rows=rows, cols=cols)
    return Homotopy.create(a, b, comps)


def random_quasi_iso(rng, field, max_dim=4):
    """Quasi-isomorphism K -> M with small dims.

    K = M0 + cone(id_N) for a random N, and the map is the projection
    killing the contractible summand, perturbed by a random homotopy.
    The result has the same cohomology as M0 in every degree.
    """
    m0 = random_complex(rng, field, lo=-2, hi=2, max_dim=2, max_width=3)
    n = random_complex(rng, field, lo=-2, hi=2, max_dim=1, max_width=2)
    cn = mapping_cone(identity_chain_map(n)).cone
    k = direct_sum_complex(m0, cn)
    lo, hi = k.lo, k.hi
    comps = {
        i: hstack_projection(field, m0.dim(i), cn.dim(i))
        for i in range(lo, hi + 1)
        if m0.dim(i) > 0 and k.dim(i) > 0
    }
    proj = ChainMap.create(k, m0, comps)
    h = random_homotopy(rng, k, m0)
    return perturb_by_homotopy(proj, h)


def hstack_projection(field, m, extra):
    """The block matrix [I_m | 0] with extra zero columns."""
    return Matrix.from_rows(
        field,
        [[field.one() if i == j else field.zero() for j in range(m + extra)] for i in range(m)],
        cols=m + extra,
    )


def random_cospan(rng, field, max_dim=4):
    """Cospan (alpha: L -> M, beta: K -> M) with beta a quasi-iso."""
    beta = random_quasi_iso(rng, field, max_dim=max_dim)
    m = beta.target
    l = random_complex(rng, field, lo=-2, hi=2, max_dim=2, max_width=3)
    alpha = random_chain_map(rng, l, m)
    return Cospan(alpha=alpha, beta=beta)


def random_invertible(rng, field, n):
    """Random invertible n x n matrix: shuffled identity plus a few
    random row additions."""
    from homcat import rank

    while True:
        m = random_matrix(rng, field, n, n)
        if rank(m) == n:
            return m


def scaled_identity_map(c, scalar):
    f = identity_chain_map(c)
    comps = {
        i: mat_scale(scalar, f.component(i))
        for i in range(c.lo, c.hi + 1)
        if c.dim(i) > 0
    }
    return ChainMap.create(c, c, comps)


def random_conjugator(rng, field, n):
    """A random invertible n x n matrix P together with P^{-1}.

    P is the identity after one random column operation for every ordered
    pair of distinct columns, so it is dense; P^{-1} applies the inverse
    row operations.  Entries grow over Q, so keep n small there.
    """
    p = [[field.one() if r == c else field.zero() for c in range(n)] for r in range(n)]
    p_inv = [row[:] for row in p]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            x = random_scalar(rng, field)
            # P <- P (I + x e_ab) adds x times column a to column b;
            # P^{-1} <- (I - x e_ab) P^{-1} subtracts x times row b from row a
            for row in p:
                row[b] = field.coerce(row[b] + x * row[a])
            p_inv[a] = [field.coerce(u - x * v) for u, v in zip(p_inv[a], p_inv[b])]
    return Matrix.from_rows(field, p, cols=n), Matrix.from_rows(field, p_inv, cols=n)


@dataclass
class StandardComplex:
    """A complex on degrees 0..len(dims)-1 conjugated from standard form.

    In standard coordinates degree i splits as B^i + H^i + C^i and the
    standard differential sends C^i identically onto B^{i+1}; the actual
    differential is P_{i+1} D^i P_i^{-1}.  So dim H^i is known, and the
    H^i block of standard coordinates is a basis of the cohomology.
    """

    complex: CochainComplex
    conj: list
    conj_inv: list
    splits: list  # (dim B^i, dim H^i, dim C^i) per degree


def standard_complex(rng, field, dims, ranks):
    """Conjugated standard complex; ``ranks[i]`` is the rank of d^i."""
    n = len(dims)
    c = list(ranks) + [0]
    b = [0] + list(ranks)
    splits = [(b[i], dims[i] - b[i] - c[i], c[i]) for i in range(n)]
    if min(h for _, h, _ in splits) < 0:
        raise ValueError(f"ranks {ranks} do not fit dims {dims}")
    conj, conj_inv = zip(*(random_conjugator(rng, field, d) for d in dims))
    diff = {
        i: mat_mul(
            conj[i + 1].take_columns(range(c[i])),
            conj_inv[i].take_rows(range(dims[i] - c[i], dims[i])),
        )
        for i in range(n - 1)
    }
    cx = CochainComplex.create(field, dims=dict(enumerate(dims)), diff=diff)
    return StandardComplex(cx, list(conj), list(conj_inv), splits)


def _block(x, split):
    """Which standard block (0 = B, 1 = H, 2 = C) coordinate x lies in."""
    b, h, _ = split
    return 0 if x < b else 1 if x < b + h else 2


def standard_chain_map(rng, a, b, coh):
    """A chain map between standard complexes with cohomology blocks ``coh``.

    ``coh[i]`` is a dim H_b^i x dim H_a^i list of rows.  In standard
    coordinates the chain map condition forces the blocks (H_b, B_a),
    (C_b, B_a) and (C_b, H_a) to vanish and copies the block (C_b, C_a)
    of degree i into the block (B_b, B_a) of degree i+1; every other
    block is random.  Maps with different ``coh`` differ on cohomology.
    """
    field = a.complex.field
    comps = {}
    carry = None
    for i, (sa, sb) in enumerate(zip(a.splits, b.splits)):
        rows, cols = sum(sb), sum(sa)
        std = [[field.zero()] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                blocks = (_block(r, sb), _block(c, sa))
                if blocks == (0, 0):
                    std[r][c] = carry[r][c]
                elif blocks == (1, 1):
                    std[r][c] = field.coerce(coh[i][r - sb[0]][c - sa[0]])
                elif blocks[1] == 2 or blocks == (0, 1):
                    std[r][c] = random_scalar(rng, field)
        carry = [row[sa[0] + sa[1] :] for row in std[sb[0] + sb[1] :]]
        std_m = Matrix.from_rows(field, std, cols=cols)
        comps[i] = mat_mul(mat_mul(b.conj[i], std_m), a.conj_inv[i])
    return ChainMap.create(a.complex, b.complex, comps)

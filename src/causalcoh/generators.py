"""Seeded generators for random complexes, maps and short exact sequences.

Everything here is driven by :class:`random.Random` with an explicit seed,
so generated objects are reproducible across runs and platforms.  Random
complexes are built from elementary pieces ("dots" contribute to
cohomology, "arrows" are contractible) and then conjugated by random
unimodular changes of basis, which keeps the expected cohomology known by
construction and usable as an oracle.  :func:`random_unimodular` builds
each change of basis and its inverse together, from the same draws: every
elementary row operation on the matrix is matched by the inverse column
operation on the inverse, so no inverse is computed by elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import CochainComplex, CochainHomotopy, CochainMap, ShortExactSeq
from .linalg import MatrixQ


def _int_matrix(rows: list[list[int]]) -> MatrixQ:
    """The square matrix of dense int ``rows``, which are already in stored
    form, without re-coercing each entry."""
    return MatrixQ._trusted(len(rows), len(rows), (
        {j: x for j, x in enumerate(row) if x} for row in rows))


def random_unimodular(rng: random.Random, size: int,
                      steps: int | None = None) -> tuple[MatrixQ, MatrixQ]:
    """A random integer matrix with determinant +-1 and its inverse.

    The matrix is a product of random elementary row operations applied to
    the identity.  The inverse is built alongside, from the same draws: each
    row operation E on the matrix is matched by the column operation E^-1 on
    the inverse, so s * s^-1 = I holds after every step.
    """
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    inv = [row[:] for row in m]
    steps = 2 * size if steps is None else steps
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(size)
        j = rng.randrange(size)
        if op == 0 and i != j:
            # row i += c row j; column j -= c column i
            c = rng.choice((-2, -1, 1, 2))
            for k in range(size):
                m[i][k] += c * m[j][k]
            for row in inv:
                row[j] -= c * row[i]
        elif op == 1 and i != j:
            # swap rows i and j; swap columns i and j
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif op == 2:
            # negate (or keep) row i; the same on column i
            c = rng.choice((-1, 1))
            m[i] = [c * x for x in m[i]]
            for row in inv:
                row[i] *= c
    s, s_inv = _int_matrix(m), _int_matrix(inv)
    if s * s_inv != MatrixQ.identity(size):
        raise AssertionError("random_unimodular built a wrong inverse")
    return s, s_inv


@dataclass(frozen=True)
class StructuredComplex:
    """A random complex together with construction data.

    ``dots[p]`` is the expected cohomology dimension at degree p;
    ``contraction`` is a homotopy with dh + hd = identity whenever there
    are no dots (contractible case).
    """

    complex: CochainComplex
    dots: dict
    contraction: CochainHomotopy


def _structured(rng: random.Random, n_degrees: int, max_dim: int,
                allow_dots: bool, p_min: int) -> StructuredComplex:
    degrees = list(range(p_min, p_min + n_degrees))
    dots = {p: (rng.randrange(3) if allow_dots else 0) for p in degrees}
    arrows = {p: rng.randrange(3) for p in degrees[:-1]}  # arrow from p to p+1
    arrows[degrees[-1]] = 0
    dims = {}
    for p in degrees:
        over = dots[p] + arrows[p] + arrows.get(p - 1, 0) - max_dim
        if over > 0:
            cut = min(over, arrows[p])
            arrows[p] -= cut
            dots[p] = max(0, dots[p] - (over - cut))
        dims[p] = dots[p] + arrows[p] + arrows.get(p - 1, 0)
    # basis order at degree p: [dots | arrow tails (to p+1) | arrow heads (from p-1)]
    diffs = {}
    hmaps = {}
    for p in degrees[:-1]:
        dcur, dnxt = dims[p], dims[p + 1]
        mat = [[0] * dcur for _ in range(dnxt)]
        for a in range(arrows[p]):
            row = dots[p + 1] + arrows[p + 1] + a
            col = dots[p] + a
            mat[row][col] = 1
        diffs[p] = MatrixQ(dnxt, dcur, mat)
    for p in degrees[1:]:
        dcur, dprv = dims[p], dims[p - 1]
        mat = [[0] * dcur for _ in range(dprv)]
        for a in range(arrows.get(p - 1, 0)):
            row = dots[p - 1] + a
            col = dots[p] + arrows[p] + a
            mat[row][col] = 1
        hmaps[p] = MatrixQ(dprv, dcur, mat)
    base = CochainComplex(dims, diffs)
    # conjugate by random unimodular changes of basis
    s, s_inv = {}, {}
    for p in degrees:
        s[p], s_inv[p] = random_unimodular(rng, dims[p])
    new_diffs = {p: s[p + 1] * base.d(p) * s_inv[p] for p in degrees[:-1]}
    cplx = CochainComplex(dims, new_diffs)
    new_h = {p: s[p - 1] * hmaps[p] * s_inv[p] for p in degrees[1:] if dims[p] and dims[p - 1]}
    return StructuredComplex(cplx, dots, CochainHomotopy(cplx, new_h))


def random_complex(rng: random.Random, max_degrees: int = 5, max_dim: int = 6,
                   p_min: int | None = None) -> StructuredComplex:
    n_degrees = rng.randrange(2, max_degrees + 1)
    if p_min is None:
        p_min = rng.randrange(-1, 2)
    return _structured(rng, n_degrees, max_dim, allow_dots=True, p_min=p_min)


def random_contractible_complex(rng: random.Random, max_degrees: int = 5,
                                max_dim: int = 6) -> StructuredComplex:
    return _structured(rng, rng.randrange(2, max_degrees + 1), max_dim,
                       allow_dots=False, p_min=0)


def random_cochain_selfmap(rng: random.Random, sc: StructuredComplex):
    """A null-homotopic endomorphism f = dh + hd with its witness h."""
    c = sc.complex
    hmaps = {}
    for p in c.degrees():
        rows, cols = c.dim(p - 1), c.dim(p)
        if rows and cols:
            hmaps[p] = MatrixQ.from_rows(
                [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(rows)])
    h = CochainHomotopy(c, hmaps)
    fmaps = {p: c.d(p - 1) * h.at(p) + h.at(p + 1) * c.d(p) for p in c.degrees()}
    return CochainMap(c, c, fmaps), h


def invertible_null_homotopic_map(rng: random.Random, sc: StructuredComplex,
                                  attempts: int = 20):
    """On a contractible complex, an invertible f = dh + hd with witness h.

    The canonical contraction gives f = identity; random perturbations of
    the homotopy are kept when f stays invertible.
    """
    c = sc.complex
    base = sc.contraction
    for trial in range(attempts):
        hmaps = {}
        for p in c.degrees():
            rows, cols = c.dim(p - 1), c.dim(p)
            if rows and cols:
                extra = MatrixQ.from_rows(
                    [[rng.randrange(-1, 2) if trial else 0 for _ in range(cols)]
                     for _ in range(rows)])
                hmaps[p] = base.at(p) + extra
        h = CochainHomotopy(c, hmaps)
        fmaps = {p: c.d(p - 1) * h.at(p) + h.at(p + 1) * c.d(p) for p in c.degrees()}
        f = CochainMap(c, c, fmaps)
        if all(f.at(p).is_invertible() for p in c.degrees()):
            return f, h
    raise RuntimeError("failed to build an invertible null-homotopic map")


def random_short_exact_seq(rng: random.Random, max_degrees: int = 5,
                           max_dim: int = 6) -> ShortExactSeq:
    """0 -> A -> A (+) C -> C -> 0 with a twisted differential on the middle.

    The twist t = dA t' - t' dC makes the middle differential square to
    zero while producing nontrivial connecting maps.
    """
    a = random_complex(rng, max_degrees, max_dim // 2 or 1, p_min=0).complex
    c = random_complex(rng, max_degrees, max_dim // 2 or 1, p_min=0).complex
    lo = min(a.p_min, c.p_min)
    hi = max(a.p_max, c.p_max)
    tprime = {}
    for p in range(lo, hi + 1):
        rows, cols = a.dim(p), c.dim(p)
        tprime[p] = MatrixQ(rows, cols, [[rng.randrange(-2, 3) for _ in range(cols)]
                                         for _ in range(rows)])
    twist = {p: a.d(p) * tprime[p] - tprime.get(p + 1, MatrixQ.zeros(a.dim(p + 1), c.dim(p + 1))) * c.d(p)
             for p in range(lo, hi + 1)}
    dims = {p: a.dim(p) + c.dim(p) for p in range(lo, hi + 1)}
    diffs = {}
    for p in range(lo, hi):
        da, dc = a.d(p), c.d(p)
        diffs[p] = da.hstack(twist[p]).vstack(MatrixQ.zeros(dc.rows, da.cols).hstack(dc))
    b = CochainComplex(dims, diffs)
    imap = {}
    qmap = {}
    for p in range(lo, hi + 1):
        na, nc = a.dim(p), c.dim(p)
        imap[p] = MatrixQ.identity(na).vstack(MatrixQ.zeros(nc, na))
        qmap[p] = MatrixQ.zeros(nc, na).hstack(MatrixQ.identity(nc))
    i = CochainMap(a, b, imap)
    q = CochainMap(b, c, qmap)
    return ShortExactSeq(i, q)


def subcomplex_of_contractible_seq(rng: random.Random, n_arrows: int = 3,
                                   p_min: int = 0) -> ShortExactSeq:
    """0 -> A -> B -> C -> 0 with B contractible and A the arrow heads.

    Every induced map out of A (and out of B) vanishes on cohomology, so
    the long exact sequence degenerates to isomorphisms
    H^p(C) = H^{p+1}(A): the shift mechanism behind the spacelike-compact
    tables.
    """
    heads = []
    for _ in range(n_arrows):
        heads.append(p_min + rng.randrange(3))
    dims_b = {}
    for p0 in heads:
        dims_b[p0] = dims_b.get(p0, 0) + 1
        dims_b[p0 + 1] = dims_b.get(p0 + 1, 0) + 1
    degrees = range(min(dims_b), max(dims_b) + 1)
    # basis at degree p: arrow tails starting at p first, then heads ending at p
    tails_at = {p: [i for i, p0 in enumerate(heads) if p0 == p] for p in degrees}
    heads_at = {p: [i for i, p0 in enumerate(heads) if p0 + 1 == p] for p in degrees}
    dims = {p: len(tails_at[p]) + len(heads_at[p]) for p in degrees}
    diffs = {}
    for p in list(degrees)[:-1]:
        mat = [[0] * dims[p] for _ in range(dims[p + 1])]
        for col, arrow in enumerate(tails_at[p]):
            row = len(tails_at[p + 1]) + heads_at[p + 1].index(arrow)
            mat[row][col] = 1
        if dims[p] and dims[p + 1]:
            diffs[p] = MatrixQ.from_rows(mat)
    b0 = CochainComplex(dims, diffs)
    s, s_inv = {}, {}
    for p in degrees:
        s[p], s_inv[p] = random_unimodular(rng, dims[p])
    b = CochainComplex(dims, {p: s[p + 1] * b0.d(p) * s_inv[p] for p in list(degrees)[:-1]})
    a_dims = {p: len(heads_at[p]) for p in degrees if heads_at[p]}
    a = CochainComplex(a_dims, {})
    c_dims = {p: len(tails_at[p]) for p in degrees if tails_at[p]}
    c = CochainComplex(c_dims, {})
    imap = {}
    for p in degrees:
        if heads_at[p]:
            cols = []
            for arrow in heads_at[p]:
                v = [0] * dims[p]
                v[len(tails_at[p]) + heads_at[p].index(arrow)] = 1
                cols.append(v)
            imap[p] = s[p] * MatrixQ.from_columns(cols, rows=dims[p])
    qmap = {}
    for p in degrees:
        if tails_at[p]:
            rows = []
            for arrow in tails_at[p]:
                v = [0] * dims[p]
                v[tails_at[p].index(arrow)] = 1
                rows.append(v)
            qmap[p] = MatrixQ.from_rows(rows) * s_inv[p]
    i = CochainMap(a, b, imap)
    q = CochainMap(b, c, qmap)
    return ShortExactSeq(i, q)

"""The one-pass cohomology engine against the per-column re-rank rule, and
the rank route to cohomology dimensions against the representatives.

``rerank_cohomology_basis`` is the reference: it scans the canonical kernel
basis of d_p and keeps a column when appending it to the image of d_{p-1}
and the columns kept so far raises the rank.  ``cohomology()`` must choose
exactly the same representatives in one elimination pass.
``cohomology_dims()`` ranks each differential once with clearing and must
count as many classes as ``cohomology()`` finds representatives.
"""

import random
from itertools import combinations, permutations, product

import pytest

from causalcoh import simplicial
from causalcoh.complexes import CochainComplex, cohomology, cohomology_dims, direct_sum
from causalcoh.generators import (random_complex, random_contractible_complex,
                                  random_short_exact_seq, subcomplex_of_contractible_seq)
from causalcoh.linalg import MatrixQ, independent_columns
from causalcoh.simplicial import betti, betti_via_chains, build_complex
from test_linalg import dense_kernel_basis, dense_rank


def rerank_cohomology_basis(c: CochainComplex, p: int) -> MatrixQ:
    kernel = dense_kernel_basis(c.d(p))
    current = c.d(p - 1)
    r = dense_rank(current)
    reps = []
    for col in kernel.columns():
        candidate = current.hstack(MatrixQ.column_vector(col))
        r2 = dense_rank(candidate)
        if r2 > r:
            reps.append(col)
            current, r = candidate, r2
    return MatrixQ.from_columns(reps, rows=c.dim(p))


def _assert_matches_oracle(c: CochainComplex) -> None:
    for p in range(c.p_min - 1, c.p_max + 2):
        want = rerank_cohomology_basis(c, p)
        h = cohomology(c, p)
        assert h.degree == p
        assert h.dim == want.cols
        assert h.basis == want, (c, p)


@pytest.mark.parametrize("seed", range(6))
def test_cohomology_equals_rerank_oracle(seed):
    rng = random.Random(seed)
    for _ in range(20):
        _assert_matches_oracle(random_complex(rng).complex)
        _assert_matches_oracle(random_contractible_complex(rng).complex)
        s = random_short_exact_seq(rng)
        for c in (s.a, s.b, s.c):
            _assert_matches_oracle(c)
        s = subcomplex_of_contractible_seq(rng)
        _assert_matches_oracle(s.b)


def test_cohomology_equals_rerank_oracle_on_triangulations():
    for facets in (simplicial.simplex_boundary_facets(4), simplicial.TORUS_7_FACETS):
        _assert_matches_oracle(simplicial.cochain_complex(build_complex(facets)))


def test_cohomology_is_computed_once_per_degree():
    sc = random_complex(random.Random(3))
    c = sc.complex
    first = [cohomology(c, p) for p in c.degrees()]
    assert all(cohomology(c, p) is h for p, h in zip(c.degrees(), first))
    assert [h.dim for h in first] == [sc.dots[p] for p in c.degrees()]


def test_independent_columns_rule():
    span = MatrixQ.from_columns([(1, 1, 0)])
    candidates = MatrixQ.from_columns([(2, 2, 0), (1, 0, 0), (0, 1, 0), (0, 0, 3), (5, 4, 1)])
    assert independent_columns(span, candidates) == (1, 3)
    assert independent_columns(MatrixQ.zeros(3, 0), candidates) == (0, 1, 3)
    with pytest.raises(ValueError):
        independent_columns(MatrixQ.zeros(2, 0), candidates)


def staircase_torus(k: int, dim: int):
    """Staircase triangulation of the dim-torus on a k^dim grid (k >= 3):
    each grid cube is cut into the simplices of its monotone lattice paths."""
    def index(point):
        return sum((x % k) * k ** i for i, x in enumerate(point))

    facets = []
    for corner in product(range(k), repeat=dim):
        for order in permutations(range(dim)):
            point = list(corner)
            path = [index(point)]
            for axis in order:
                point[axis] += 1
                path.append(index(point))
            facets.append(tuple(sorted(path)))
    return facets


def staircase_product(a_facets, b_facets, b_vertices: int):
    """Staircase triangulation of |A| x |B|, vertex (a, b) numbered
    a * b_vertices + b: each product of facets is cut into the simplices of
    the monotone lattice paths through it."""
    facets = []
    for s in a_facets:
        for t in b_facets:
            steps = len(s) + len(t) - 2
            for a_steps in combinations(range(steps), len(s) - 1):
                i = j = 0
                path = [s[0] * b_vertices + t[0]]
                for step in range(steps):
                    if step in a_steps:
                        i += 1
                    else:
                        j += 1
                    path.append(s[i] * b_vertices + t[j])
                facets.append(tuple(sorted(path)))
    return facets


def _sphere_times_circle(k: int):
    circle = [tuple(sorted((i, (i + 1) % k))) for i in range(k)]
    return staircase_product(simplicial.simplex_boundary_facets(3), circle, k)


def test_staircase_three_torus_betti():
    k = build_complex(staircase_torus(3, 3))
    assert k.f_vector() == (27, 189, 324, 162)
    expected = (1, 3, 3, 1)
    assert tuple(betti(k, p) for p in range(4)) == expected
    assert tuple(betti_via_chains(k, p) for p in range(4)) == expected
    assert simplicial.profile_from_triangulation(k).h == expected


# -- the rank route: cohomology_dims against the representatives ------------


def _assert_dims_match_representatives(c: CochainComplex) -> dict[int, int]:
    dims = cohomology_dims(c)
    assert list(dims) == list(c.degrees())
    assert dims == {p: cohomology(c, p).dim for p in c.degrees()}, c
    return dims


def _shifted(c: CochainComplex, k: int) -> CochainComplex:
    return CochainComplex({p + k: c.dim(p) for p in c.degrees()},
                          {p + k: c.d(p) for p in c.degrees()})


@pytest.mark.parametrize("seed", range(4))
def test_cohomology_dims_equal_representative_counts(seed):
    rng = random.Random(500 + seed)
    for _ in range(25):
        sc = random_complex(rng)
        dims = _assert_dims_match_representatives(sc.complex)
        assert dims == {p: sc.dots[p] for p in sc.complex.degrees()}
        contractible = random_contractible_complex(rng).complex
        assert not any(_assert_dims_match_representatives(contractible).values())
        s = random_short_exact_seq(rng)
        for c in (s.a, s.b, s.c):
            _assert_dims_match_representatives(c)
        _assert_dims_match_representatives(subcomplex_of_contractible_seq(rng).b)


def test_cohomology_dims_across_degree_gaps_and_negative_degrees():
    # by hand: C^-3 = Q, C^-1 = Q^2, C^0 = Q with d_{-1} = (1 1), so
    # H^-3 = Q, H^-2 = 0 (a gap), H^-1 = Q and H^0 = 0
    c = CochainComplex({-3: 1, -1: 2, 0: 1}, {-1: MatrixQ.from_rows([[1, 1]])})
    assert _assert_dims_match_representatives(c) == {-3: 1, -2: 0, -1: 1, 0: 0}
    rng = random.Random(91)
    for _ in range(60):
        x, y = random_complex(rng), random_complex(rng)
        gap = rng.randrange(2, 4)
        lifted = _shifted(y.complex, x.complex.p_max - y.complex.p_min + gap)
        both = _shifted(direct_sum(x.complex, lifted), -rng.randrange(0, 6))
        dims = _assert_dims_match_representatives(both)
        assert sum(dims.values()) == sum(x.dots.values()) + sum(y.dots.values())


def test_cohomology_dims_on_triangulations():
    cases = [(simplicial.simplex_boundary_facets(4), (1, 0, 0, 1)),
             (simplicial.TORUS_7_FACETS, (1, 2, 1)),
             (_sphere_times_circle(4), (1, 1, 1, 1)),
             (_sphere_times_circle(5), (1, 1, 1, 1)),
             (staircase_torus(3, 3), (1, 3, 3, 1))]
    for facets, expected in cases:
        k = build_complex(facets)
        dims = _assert_dims_match_representatives(simplicial.cochain_complex(k))
        assert tuple(dims.values()) == expected


def test_profile_builds_the_cochain_complex_once(monkeypatch):
    built = []
    original = simplicial.cochain_complex
    monkeypatch.setattr(simplicial, "cochain_complex",
                        lambda k: built.append(k) or original(k))
    k = build_complex(simplicial.simplex_boundary_facets(4))
    assert simplicial.profile_from_triangulation(k).h == (1, 0, 0, 1)
    assert built == [k]


def test_profile_counts_classes_by_ranks_alone(monkeypatch):
    def no_kernel_bases(m):
        raise AssertionError("a kernel basis was built")
    monkeypatch.setattr(MatrixQ, "kernel_basis", no_kernel_bases)
    k = build_complex(_sphere_times_circle(4))
    assert simplicial.profile_from_triangulation(k).h == (1, 1, 1, 1)

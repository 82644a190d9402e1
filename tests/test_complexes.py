import pytest

from causalcoh import simplicial
from causalcoh.complexes import (
    CochainComplex,
    CochainHomotopy,
    CochainMap,
    ComplexError,
    ExactnessError,
    ShortExactSeq,
    check_exactness,
    check_null_homotopy,
    cohomology,
    cohomology_dims,
    contractibility_check,
    direct_sum,
    induced_map,
    interval_complex,
    long_exact_sequence,
    point_complex,
    split_by_null_map,
)
from causalcoh.linalg import MatrixQ


def test_invalid_complex_reports_degree():
    # d1*d0 = [[1]] != 0
    with pytest.raises(ComplexError, match="degree 0"):
        CochainComplex({0: 1, 1: 1, 2: 1},
                       {0: MatrixQ.identity(1), 1: MatrixQ.identity(1)})


def test_flipped_coboundary_sign_reports_degree(monkeypatch):
    good = simplicial.coboundary

    def flipped(k, p):
        m = good(k, p)
        if p != 2:
            return m
        rows = [list(m.row(i)) for i in range(m.rows)]
        j = next(j for j, x in enumerate(rows[0]) if x)
        rows[0][j] = -rows[0][j]
        return MatrixQ.from_rows(rows)

    k = simplicial.build_complex(simplicial.simplex_boundary_facets(4))
    assert simplicial.cochain_complex(k).dim(2) == 10
    monkeypatch.setattr(simplicial, "coboundary", flipped)
    with pytest.raises(ComplexError, match="d∘d != 0 at degree 1"):
        simplicial.cochain_complex(k)


def test_sparse_off_diagonal_d_squared_reports_degree():
    def unit(n, entries):
        return MatrixQ(n, n, [[1 if (i, j) in entries else 0 for j in range(n)]
                              for i in range(n)])

    dims = {0: 6, 1: 6, 2: 6, 3: 6}
    d0 = unit(6, {(0, 5), (3, 1)})
    d2 = unit(6, {(1, 1)})
    CochainComplex(dims, {0: d0, 1: unit(6, {(2, 4)}), 2: d2})  # d∘d = 0
    # d1 d0 is one entry at (4, 5)
    with pytest.raises(ComplexError, match="d∘d != 0 at degree 0"):
        CochainComplex(dims, {0: d0, 1: unit(6, {(2, 4), (4, 0)}), 2: d2})


def test_non_commuting_map_reports_degree():
    one = MatrixQ.identity(1)
    c = CochainComplex({0: 1, 1: 1, 2: 1, 3: 1}, {0: one, 2: one})
    CochainMap(c, c, {0: one, 1: one, 2: one, 3: one})
    with pytest.raises(ComplexError, match="does not commute with d at degree 2"):
        CochainMap(c, c, {0: one, 1: one, 2: one, 3: one.scale(2)})


def test_non_commuting_map_with_an_absent_factor_reports_degree():
    # one side of f d = d f is a product, the other has an absent factor
    one = MatrixQ.identity(1)
    interval, pair = interval_complex(0), CochainComplex({0: 1, 1: 1})
    CochainMap(interval, pair, {0: one})
    CochainMap(pair, interval, {1: one})
    with pytest.raises(ComplexError, match="does not commute with d at degree 0"):
        CochainMap(interval, pair, {0: one, 1: one})  # f1 d = 1, d f0 = 0
    with pytest.raises(ComplexError, match="does not commute with d at degree 0"):
        CochainMap(pair, interval, {0: one, 1: one})  # f1 d = 0, d f0 = 1


def test_point_complex_cohomology():
    c = point_complex(0)
    h = cohomology(c, 0)
    assert h.dim == 1
    assert h.basis.shape() == (1, 1)


def test_interval_complex_is_acyclic():
    c = interval_complex(0)
    assert cohomology(c, 0).dim == 0
    assert cohomology(c, 1).dim == 0


def test_triangle_boundary_circle():
    # brute-force ranks of the 3x3 coboundary of the triangle boundary:
    # d has rank 2, so H^0 = 3-... computed through the engine
    d0 = MatrixQ.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    c = CochainComplex({0: 3, 1: 3}, {0: d0})
    assert cohomology(c, 0).dim == 1
    assert cohomology(c, 1).dim == 1


def test_euler_characteristic_conservation():
    d0 = MatrixQ.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    c = CochainComplex({0: 3, 1: 3}, {0: d0})
    chi_spaces = c.euler_characteristic()
    chi_cohom = sum((-1) ** p * h for p, h in cohomology_dims(c).items())
    assert chi_spaces == chi_cohom


def test_null_homotopy_zero_maps():
    c = point_complex(0)
    f = CochainMap.zero(c, c)
    h = CochainHomotopy(c, {})
    assert check_null_homotopy(f, h)


def test_null_homotopy_identity_on_interval():
    # 1x1 matrix arithmetic: dh + hd = id in both degrees
    c = interval_complex(0)
    f = CochainMap.identity(c)
    h = CochainHomotopy(c, {1: MatrixQ.identity(1)})
    assert check_null_homotopy(f, h)


def test_identity_on_point_not_null_homotopic():
    c = point_complex(0)
    f = CochainMap.identity(c)
    h = CochainHomotopy(c, {})  # the only homotopy has zero shape
    assert not check_null_homotopy(f, h)


def test_contractibility_on_interval():
    c = interval_complex(0)
    f = CochainMap.identity(c)
    h = CochainHomotopy(c, {1: MatrixQ.identity(1)})
    v = contractibility_check(f, h)
    assert v.invertible and v.cohomology_vanishes


def test_contractibility_negative_case():
    c = point_complex(0)
    f = CochainMap.zero(c, c)
    h = CochainHomotopy(c, {})
    v = contractibility_check(f, h)
    assert not v.invertible and not v.cohomology_vanishes
    assert v.singular_degrees == (0,) and v.nonzero_degrees == (0,)


def test_contractibility_rejects_bad_witness():
    c = point_complex(0)
    f = CochainMap.identity(c)
    h = CochainHomotopy(c, {})
    with pytest.raises(ComplexError):
        contractibility_check(f, h)


def _hand_ses():
    # A = Q in degree 1; B = (Q -> Q, d = id); C = Q in degree 0
    a = point_complex(1)
    b = interval_complex(0)
    c = point_complex(0)
    i = CochainMap(a, b, {1: MatrixQ.identity(1)})
    q = CochainMap(b, c, {0: MatrixQ.identity(1)})
    return ShortExactSeq(i, q)


def test_les_hand_snake():
    s = _hand_ses()
    les = long_exact_sequence(s)
    # connecting map H^0(C) -> H^1(A) is an isomorphism (hand snake lemma)
    conn = les.node(0, "C").outgoing
    assert conn.shape() == (1, 1)
    assert conn[0, 0] != 0
    assert all(v.exact for v in check_exactness(les))


def test_les_identity_factor():
    a = point_complex(0, 2)
    i = CochainMap.identity(a)
    # C = 0: q is the zero map to an empty complex
    zero = CochainComplex({})
    qmap = CochainMap(a, zero, {})
    s = ShortExactSeq(i, qmap)
    les = long_exact_sequence(s)
    assert all(v.exact for v in check_exactness(les))
    # H^0(A) -> H^0(B) is the identity here
    assert les.node(0, "A").outgoing == MatrixQ.identity(2)


def test_ses_validation_catches_non_exact():
    a = point_complex(0)
    b = point_complex(0, 2)
    c = point_complex(0, 2)  # dim mismatch: im(i) != ker(q)
    i = CochainMap(a, b, {0: MatrixQ.from_rows([[1], [0]])})
    with pytest.raises(ExactnessError):
        q = CochainMap(b, c, {0: MatrixQ.identity(2)})
        ShortExactSeq(i, q)


def test_check_exactness_detects_failure():
    # 0 -> Q -> 0 with a nonzero node is not exact
    from causalcoh.complexes import LESNode, LongExactSeq
    node = LESNode(0, "A", 1, MatrixQ.zeros(0, 1))
    verdicts = check_exactness(LongExactSeq([node]))
    assert not verdicts[0].exact


def test_split_trivial_c_zero():
    a = point_complex(0, 2)
    i = CochainMap.identity(a)
    zero = CochainComplex({})
    s = ShortExactSeq(i, CochainMap(a, zero, {}))
    # connecting maps to/from C vanish; q* lands in 0 so designate C or B
    splits = split_by_null_map(s, "C")
    assert all(st.holds for st in splits)
    st0 = splits[0]
    assert st0.left[2] == 2 and st0.middle[2] == 2 and st0.right[2] == 0


def test_split_contractible_middle_gives_shift_isos():
    # A = top of an interval inside contractible B; quotient C = bottom.
    # i* = 0 since H(B) = 0, and the splits force H^p(C) ~ H^{p+1}(A).
    s = _hand_ses()
    splits = split_by_null_map(s, "A")
    assert all(st.holds for st in splits)
    shifted = [st for st in splits if st.middle == ("C", 0, 1)]
    assert shifted and shifted[0].right == ("A", 1, 1)


def test_split_requires_zero_maps():
    a = point_complex(0, 2)
    i = CochainMap.identity(a)
    zero = CochainComplex({})
    s = ShortExactSeq(i, CochainMap(a, zero, {}))
    with pytest.raises(ExactnessError):
        split_by_null_map(s, "A")  # i* is the identity, not zero


def test_induced_map_of_null_homotopic_is_zero():
    # f = dh + hd on a complex with nontrivial cohomology induces zero
    c = direct_sum(point_complex(0), interval_complex(0))
    h = CochainHomotopy(c, {1: MatrixQ.from_rows([[3], [5]])})
    fmaps = {p: c.d(p - 1) * h.at(p) + h.at(p + 1) * c.d(p) for p in c.degrees()}
    f = CochainMap(c, c, fmaps)
    assert check_null_homotopy(f, h)
    for p in c.degrees():
        assert induced_map(f, p).is_zero()


def test_direct_sum_cohomology_adds():
    c = direct_sum(point_complex(0), point_complex(1, 2))
    assert cohomology(c, 0).dim == 1
    assert cohomology(c, 1).dim == 2


def test_operations_deterministic():
    s = _hand_ses()
    l1 = long_exact_sequence(s)
    l2 = long_exact_sequence(s)
    assert [(n.degree, n.position, n.dim) for n in l1.nodes] == \
        [(n.degree, n.position, n.dim) for n in l2.nodes]
    assert all(a.outgoing == b.outgoing for a, b in zip(l1.nodes, l2.nodes))


def test_exactness_audits_rank_each_map_once(monkeypatch):
    import random

    from causalcoh.complexes import LESNode, LongExactSeq
    from causalcoh.generators import random_short_exact_seq
    ranked = []
    original = MatrixQ.rank
    monkeypatch.setattr(MatrixQ, "rank", lambda m: ranked.append(m) or original(m))
    s = random_short_exact_seq(random.Random(3))
    degrees = len(s.degrees())
    assert len(ranked) == 2 * degrees  # i_p and q_p, once each
    ranked.clear()
    les = long_exact_sequence(s)
    ranked.clear()
    verdicts = check_exactness(les)
    assert all(v.exact for v in verdicts)
    assert len(ranked) == len(les.nodes)
    # the failure detail keeps its wording
    bad = LongExactSeq([LESNode(0, "A", 2, MatrixQ.identity(1).hstack(MatrixQ.zeros(1, 1)))])
    assert check_exactness(bad)[0].detail == "rank(in)=0 + rank(out)=1 != dim=2"

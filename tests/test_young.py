import itertools
import random
from fractions import Fraction

import pytest

from causalcoh.calabi import random_polynomial
from causalcoh.charts import curvature, de_sitter, minkowski
from causalcoh.tensors import TensorField, odot
from causalcoh.young import (CALABI_DIAGRAMS, YoungDiagram, group_algebra_idempotent,
                             hook_rank, is_symmetric, project_components, projector_rank,
                             standard_tableaux_count, young_projector)


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram(())
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))


def test_column_and_row_slots():
    d = YoungDiagram((2, 2, 1))
    assert d.column_lengths == (3, 2)
    assert d.column_slots() == ((0, 1, 2), (3, 4))
    assert d.row_slots() == ((0, 3), (1, 4), (2,))


def test_hook_ranks_frozen_values():
    # hook-content products computed by hand
    assert hook_rank(YoungDiagram((1, 1)), 4) == 6     # C(4,2)
    assert hook_rank(YoungDiagram((2,)), 4) == 10      # C(5,2)
    assert hook_rank(YoungDiagram((2, 2)), 4) == 20    # n^2(n^2-1)/12
    assert hook_rank(YoungDiagram((2, 2, 1)), 4) == 20
    assert hook_rank(YoungDiagram((2, 2, 1, 1)), 4) == 6
    assert [hook_rank(CALABI_DIAGRAMS[l], 3) for l in range(5)] == [3, 6, 6, 3, 0]


def test_standard_tableaux_counts():
    assert standard_tableaux_count(YoungDiagram((2, 2))) == 2
    assert standard_tableaux_count(YoungDiagram((2, 1))) == 2
    assert standard_tableaux_count(YoungDiagram((3,))) == 1


def test_projector_matrix_idempotent_small():
    for rows, n in (((1, 1), 2), ((2,), 2), ((2, 1), 3), ((2, 2), 3)):
        p = young_projector(YoungDiagram(rows), n)
        assert p * p == p


def test_group_algebra_idempotency_all_levels():
    for level in range(5):
        assert group_algebra_idempotent(CALABI_DIAGRAMS[level])


def test_projector_rank_equals_hook_rank():
    for n in (2, 3):
        for rows in ((1,), (2,), (1, 1), (2, 1), (2, 2), (2, 2, 1)):
            d = YoungDiagram(rows)
            assert projector_rank(d, n) == hook_rank(d, n)


def test_antisymmetrizer_and_symmetrizer_ranks():
    assert projector_rank(YoungDiagram((1, 1)), 4) == 6
    assert projector_rank(YoungDiagram((2,)), 4) == 10


def test_projection_idempotent_on_components():
    rng = random.Random(3)
    d = CALABI_DIAGRAMS[2]
    f0 = Fraction(0)
    comps = [Fraction(rng.randrange(-5, 6)) for _ in range(3 ** 4)]
    once = project_components(comps, 3, d, f0)
    twice = project_components(once, 3, d, f0)
    assert once == twice
    assert is_symmetric(once, 3, d, f0)


def test_metric_product_has_riemann_symmetry():
    m = minkowski(4)
    gg = odot(m, TensorField.metric(m), "s2s2")
    assert is_symmetric(gg.comps, 4, CALABI_DIAGRAMS[2], m.zero)


def test_background_riemann_has_riemann_symmetry():
    ds = de_sitter(4, 1)
    riem = curvature(ds).riemann
    assert is_symmetric(riem, 4, CALABI_DIAGRAMS[2], ds.zero)


def test_projection_kills_wrong_symmetry():
    # a symmetric 2-tensor has no component in the antisymmetric type
    m = minkowski(3)
    rng = random.Random(1)
    p = random_polynomial(rng, 3, 2)
    sym = [m.zero] * 9
    sym[0 * 3 + 1] = p
    sym[1 * 3 + 0] = p
    anti = project_components(sym, 3, YoungDiagram((1, 1)), m.zero)
    assert all(c.is_zero() for c in anti)


def test_rank_zero_type_at_small_n():
    # a column longer than n kills everything
    d = CALABI_DIAGRAMS[4]  # first column has length 4
    assert hook_rank(d, 3) == 0
    rng = random.Random(2)
    comps = [Fraction(rng.randrange(-3, 4)) for _ in range(3 ** 6)]
    projected = project_components(comps, 3, d, Fraction(0))
    assert all(c == 0 for c in projected)


def test_index_table_cached_and_compact():
    from causalcoh.young import _index_table
    perm = (1, 0, 2, 3)
    table = _index_table(4, 4, perm)
    assert _index_table(4, 4, perm) is table
    assert table.typecode == "H" and len(table) == 256
    # entry at target (a, b, c, d) is the source (b, a, c, d)
    assert all(table[((a * 4 + b) * 4 + c) * 4 + d] == ((b * 4 + a) * 4 + c) * 4 + d
               for a in range(4) for b in range(4) for c in range(4) for d in range(4))


def test_slot_combination_on_fractions_matches_direct_lookups():
    from causalcoh.young import slot_combination
    rng = random.Random(4)
    n, k = 3, 4
    comps = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n ** k)]
    terms = [((0, 1, 2, 3), 1), ((1, 2, 0, 3), -1), ((3, 2, 1, 0), 2)]
    out = slot_combination(comps, n, k, terms, Fraction(0))

    def flat(idx):
        f = 0
        for i in idx:
            f = f * n + i
        return f

    for flat_idx, idx in enumerate(itertools.product(range(n), repeat=k)):
        expect = sum(c * comps[flat(tuple(idx[p] for p in perm))] for perm, c in terms)
        assert out[flat_idx] == expect

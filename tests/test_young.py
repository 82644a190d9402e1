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
    m = minkowski(3)
    comps = [m.rf(rng.randrange(-5, 6)) for _ in range(3 ** 4)]
    once = project_components(comps, 3, d, m.zero)
    twice = project_components(once, 3, d, m.zero)
    assert once == twice and once != comps
    assert is_symmetric(once, 3, d, m.zero)


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
    m = minkowski(3)
    comps = [m.rf(rng.randrange(-3, 4)) for _ in range(3 ** 6)]
    projected = project_components(comps, 3, d, m.zero)
    assert all(c.is_zero() for c in projected)


def test_index_table_cached_and_compact():
    from causalcoh.young import orbits
    perm = (1, 0, 2, 3)
    table = orbits(4, 4).sources(perm)
    assert orbits(4, 4).sources(perm) is table
    assert table.typecode == "H" and len(table) == 256
    # entry at target (a, b, c, d) is the source (b, a, c, d)
    assert all(table[((a * 4 + b) * 4 + c) * 4 + d] == ((b * 4 + a) * 4 + c) * 4 + d
               for a in range(4) for b in range(4) for c in range(4) for d in range(4))


def test_slot_combination_on_fractions_matches_direct_lookups():
    from causalcoh.young import slot_combination
    rng = random.Random(4)
    n, k = 3, 4
    values = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n ** k)]
    m = minkowski(n)
    terms = [((0, 1, 2, 3), 1), ((1, 2, 0, 3), -1), ((3, 2, 1, 0), 2)]
    out = slot_combination([m.rf(v) for v in values], n, k, terms, m.zero)

    def flat(idx):
        f = 0
        for i in idx:
            f = f * n + i
        return f

    for flat_idx, idx in enumerate(itertools.product(range(n), repeat=k)):
        expect = sum(c * values[flat(tuple(idx[p] for p in perm))] for perm, c in terms)
        assert out[flat_idx] == m.rf(expect)


# -- slot-symmetry orbits ------------------------------------------------------

ORBIT_DIAGRAMS = [CALABI_DIAGRAMS[l] for l in range(5)] + [
    YoungDiagram(rows) for rows in ((1, 1), (2, 1), (3,), (3, 1), (3, 3))]


def _column_group(diagram):
    """Closure of the adjacent transpositions inside each column (sign -1)
    and the exchanges of adjacent equal-length columns (sign +1)."""
    k = diagram.cells
    cols = diagram.column_slots()
    gens = []
    for col in cols:
        for a, b in zip(col, col[1:]):
            w = list(range(k))
            w[a], w[b] = b, a
            gens.append((tuple(w), -1))
    for c1, c2 in zip(cols, cols[1:]):
        if len(c1) == len(c2):
            w = list(range(k))
            for a, b in zip(c1, c2):
                w[a], w[b] = b, a
            gens.append((tuple(w), 1))
    group = {(tuple(range(k)), 1)}
    frontier = list(group)
    while frontier:
        grown = []
        for w, s in frontier:
            for g, t in gens:
                element = (tuple(g[i] for i in w), s * t)
                if element not in group:
                    group.add(element)
                    grown.append(element)
        frontier = grown
    return group


def _permuted(idx, w):
    return tuple(idx[w[t]] for t in range(len(w)))


def _flat(idx, n):
    f = 0
    for i in idx:
        f = f * n + i
    return f


def test_orbit_counts():
    from causalcoh.young import orbits

    def count(n, d):
        return len(orbits(n, d.cells, d).canonical)

    assert [count(4, CALABI_DIAGRAMS[l]) for l in range(5)] == [4, 10, 21, 24, 6]
    assert [count(3, CALABI_DIAGRAMS[l]) for l in range(5)] == [3, 6, 6, 3, 0]
    assert orbits(4, 6, CALABI_DIAGRAMS[4]) is orbits(4, 6, CALABI_DIAGRAMS[4])


def test_orbit_counts_of_the_homotopy_intermediates():
    # the divergence trace_pair(nabla(b), 0, 1), tb = trace(b) and nabla(tb)
    # of the level-3 and level-4 homotopies at n = 4, against 256 and 1024
    # dense components
    from causalcoh.young import (contracted_group, group_rank, lifted_group, orbits,
                                 slot_symmetries)

    def count(group):
        return len(orbits(4, group_rank(group), group).canonical)

    for level, traced, expected in ((3, (2, 4), (36, 24, 96)), (4, (3, 5), (24, 16, 64))):
        group = slot_symmetries(CALABI_DIAGRAMS[level])
        tb = contracted_group(group, *traced)
        assert (count(contracted_group(lifted_group(group), 0, 1)), count(tb),
                count(lifted_group(tb))) == expected
    # tracing an antisymmetric pair leaves a group that forces zero
    antisymmetric = slot_symmetries(YoungDiagram((1, 1)))
    assert count(contracted_group(antisymmetric, 0, 1)) == 0


@pytest.mark.parametrize("diagram", ORBIT_DIAGRAMS, ids=lambda d: str(d.rows))
def test_slot_symmetries_are_column_antisymmetry_and_column_exchange(diagram):
    from causalcoh.young import slot_symmetries
    assert slot_symmetries(diagram) == _column_group(diagram)


@pytest.mark.parametrize("diagram", ORBIT_DIAGRAMS, ids=lambda d: str(d.rows))
def test_orbits_partition_the_indices(diagram):
    from causalcoh.young import lifted_group, orbits, slot_symmetries
    n = 3
    assert orbits(n, diagram.cells, diagram) is orbits(n, diagram.cells, slot_symmetries(diagram))
    # the diagram's group, and the group of a covariant derivative, whose
    # orbits are those of the diagram shifted once per derivative index
    for group in (slot_symmetries(diagram), lifted_group(slot_symmetries(diagram))):
        k = len(next(iter(group))[0])
        orb = orbits(n, k, group)
        members = list(orb.canonical) + [f for f, _, _ in orb.fill] + list(orb.zeros)
        assert sorted(members) == list(range(n ** k))
        # a zero orbit is exactly one whose stabiliser holds a -1
        for idx in itertools.product(range(n), repeat=k):
            vanishes = any(s == -1 and _permuted(idx, w) == idx for w, s in group)
            assert (_flat(idx, n) in orb.zeros) == vanishes
        for flat, canon, sign in orb.fill:
            assert canon < flat and canon in orb.canonical and sign in (1, -1)
        # every image I o w of a canonical I is filled from I with the sign s
        source = {flat: (canon, sign) for flat, canon, sign in orb.fill}
        source.update((flat, (flat, 1)) for flat in orb.canonical)
        for flat, digits in zip(orb.canonical, orb.digits):
            for w, s in group:
                assert source[_flat(_permuted(digits, w), n)] == (flat, s)


@pytest.mark.parametrize("n, diagram", [(n, d) for n in (3, 4) for d in ORBIT_DIAGRAMS
                                        if n ** d.cells <= 4096])
def test_projected_fraction_fields_have_the_orbit_symmetries(n, diagram):
    from causalcoh.young import orbits, slot_symmetries
    k = diagram.cells
    rng = random.Random(n * 100 + k)
    m = minkowski(n)
    comps = [m.rf(Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))) for _ in range(n ** k)]
    t = project_components(comps, n, diagram, m.zero)
    group = slot_symmetries(diagram)
    for idx in itertools.product(range(n), repeat=k):
        for w, s in group:
            assert t[_flat(_permuted(idx, w), n)] == t[_flat(idx, n)].scale(s)
    assert all(t[f].is_zero() for f in orbits(n, k, diagram).zeros)


@pytest.mark.parametrize("rows, n", [((1, 1), 3), ((2,), 3), ((2, 1), 3), ((2, 2), 3),
                                     ((2, 2, 1), 2), ((3, 1), 2)])
def test_project_components_matches_the_dense_projector_matrix(rows, n):
    diagram = YoungDiagram(rows)
    rng = random.Random(len(rows) * 10 + n)
    values = [Fraction(rng.randrange(-4, 5)) for _ in range(n ** diagram.cells)]
    p = young_projector(diagram, n)
    dense = [sum(p[i, j] * values[j] for j in range(p.cols)) for i in range(p.rows)]
    m = minkowski(n)
    assert project_components([m.rf(v) for v in values], n, diagram, m.zero) == [
        m.rf(v) for v in dense]


def _fill_loop(orb, values, zero):
    """The orbit fill as a loop over the (flat, canonical, sign) triples:
    the oracle for the gather of ``SlotOrbits.fill_from``."""
    out = [zero] * (orb.n ** orb.k)
    for flat, v in zip(orb.canonical, values):
        out[flat] = v
    for flat, canon, sign in orb.fill:
        out[flat] = out[canon] if sign > 0 else -out[canon]
    return out


def _operator_groups():
    """Every symmetry the Calabi operators evaluate on at n = 4: the level
    diagrams and the antisymmetric pair, their covariant derivatives, the
    traces and divergences, and nabla of the traces."""
    from causalcoh.young import contracted_group, lifted_group, slot_symmetries
    groups = [None]
    for diagram in [CALABI_DIAGRAMS[l] for l in range(5)] + [YoungDiagram((1, 1))]:
        group = slot_symmetries(diagram)
        groups += [diagram, group, lifted_group(group)]
    for level, pair in ((2, (1, 3)), (3, (2, 4)), (4, (3, 5))):
        group = slot_symmetries(CALABI_DIAGRAMS[level])
        traced = contracted_group(group, *pair)
        groups += [traced, contracted_group(lifted_group(group), 0, 1)]
        if traced is not None:
            groups.append(lifted_group(traced))
    groups.append(contracted_group(slot_symmetries(YoungDiagram((1, 1))), 0, 1))
    return groups


def test_gather_fill_equals_the_fill_loop():
    from causalcoh.young import group_rank, orbits
    tables = []
    for group in _operator_groups():
        # the untagged table of the Killing-Yano operator's rank-3 output
        k = 3 if group is None else (group.cells if isinstance(group, YoungDiagram)
                                     else group_rank(group))
        tables.append(orbits(4, k, group))
    # zero orbits: at n = 3 the level-4 diagram forces every component to zero
    tables += [orbits(3, 6, CALABI_DIAGRAMS[4]), orbits(3, 5, CALABI_DIAGRAMS[3])]
    assert any(orb.zeros for orb in tables) and any(not orb.canonical for orb in tables)
    assert any(sign < 0 for orb in tables for _, _, sign in orb.fill)
    f0 = Fraction(0)
    m = minkowski(4)
    for orb in tables:
        values = [Fraction(i + 1, 7) for i in range(len(orb.canonical))]
        got = orb.fill_from(values, f0)
        assert got == _fill_loop(orb, values, f0)
        assert all(got[flat] is f0 for flat in orb.zeros)
        scalars = [m.coordinate(i % 4).scale(i + 1) for i in range(len(orb.canonical))]
        assert orb.fill_from(scalars, m.zero) == _fill_loop(orb, scalars, m.zero)

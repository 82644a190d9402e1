import hashlib
import random

import pytest

from causalcoh.complexes import (check_exactness, cohomology_dims, contractibility_check,
                                 induced_map, long_exact_sequence, split_by_null_map)
from causalcoh.generators import (invertible_null_homotopic_map, random_cochain_selfmap,
                                  random_complex, random_contractible_complex,
                                  random_short_exact_seq, random_unimodular,
                                  subcomplex_of_contractible_seq)
from causalcoh.linalg import MatrixQ


def test_random_unimodular_invertible():
    rng = random.Random(0)
    for size in (0, 1, 3, 5):
        m, inv = random_unimodular(rng, size)
        assert m.is_invertible() or size == 0
        assert m * inv == MatrixQ.identity(size) == inv * m


def _unimodular_by_row_operations(rng: random.Random, size: int) -> MatrixQ:
    """The matrix loop of ``random_unimodular`` as it was before the
    generator built the inverse too: the oracle for its draws and matrix."""
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(2 * size):
        op = rng.randrange(3)
        i = rng.randrange(size)
        j = rng.randrange(size)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for k in range(size):
                m[i][k] += c * m[j][k]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            c = rng.choice((-1, 1))
            m[i] = [c * x for x in m[i]]
    return MatrixQ.from_rows(m)


def test_random_unimodular_builds_the_inverse_from_the_same_draws():
    for size in range(7):
        for seed in range(20):
            rng, oracle = random.Random(seed), random.Random(seed)
            m, inv = random_unimodular(rng, size)
            assert m == _unimodular_by_row_operations(oracle, size)
            assert rng.getstate() == oracle.getstate()
            assert inv == m.inverse()


def test_random_complex_cohomology_matches_construction():
    # the dot count is an independent oracle for the engine's cohomology
    rng = random.Random(1)
    for _ in range(25):
        sc = random_complex(rng)
        dims = cohomology_dims(sc.complex)
        for p, expected in sc.dots.items():
            assert dims.get(p, 0) == expected


def test_contractible_complexes_have_no_cohomology():
    rng = random.Random(2)
    for _ in range(10):
        sc = random_contractible_complex(rng)
        assert all(d == 0 for d in cohomology_dims(sc.complex).values())


def test_contraction_witnesses_identity():
    rng = random.Random(3)
    for _ in range(10):
        sc = random_contractible_complex(rng)
        c, h = sc.complex, sc.contraction
        for p in c.degrees():
            combo = c.d(p - 1) * h.at(p) + h.at(p + 1) * c.d(p)
            assert combo == combo.identity(c.dim(p)) if c.dim(p) else combo.is_zero()


def test_random_complex_carries_a_contraction_exactly_without_dots():
    rng = random.Random(8)
    seen = set()
    for _ in range(60):
        sc = random_complex(rng, max_degrees=2)
        c, h = sc.complex, sc.contraction
        contractible = not any(sc.dots.values())
        seen.add(contractible)
        if not contractible:
            assert h is None
            with pytest.raises(ValueError, match="contractible"):
                invertible_null_homotopic_map(rng, sc)
            continue
        for p in c.degrees():
            combo = c.d(p - 1) * h.at(p) + h.at(p + 1) * c.d(p)
            assert combo == combo.identity(c.dim(p)) if c.dim(p) else combo.is_zero()
        f, h = invertible_null_homotopic_map(rng, sc)
        assert contractibility_check(f, h).cohomology_vanishes
    assert seen == {True, False}


def test_random_ses_gives_exact_les():
    rng = random.Random(4)
    for _ in range(20):
        s = random_short_exact_seq(rng)
        assert all(v.exact for v in check_exactness(long_exact_sequence(s)))


def test_ses_middle_dims_bounded():
    rng = random.Random(5)
    for _ in range(40):
        s = random_short_exact_seq(rng, max_degrees=5, max_dim=6)
        assert all(s.b.dim(p) <= 6 for p in s.b.degrees())
        assert len(list(s.b.degrees())) <= 5


def test_invertible_null_homotopic_forces_vanishing():
    rng = random.Random(6)
    for _ in range(15):
        sc = random_contractible_complex(rng)
        f, h = invertible_null_homotopic_map(rng, sc)
        v = contractibility_check(f, h)
        assert v.invertible and v.cohomology_vanishes


def test_selfmap_induces_zero():
    rng = random.Random(7)
    for _ in range(10):
        sc = random_complex(rng)
        f, _h = random_cochain_selfmap(rng, sc)
        for p in sc.complex.degrees():
            assert induced_map(f, p).is_zero()


def test_subcomplex_of_contractible_shift_mechanism():
    # H(B) = 0 forces the connecting maps to be isomorphisms
    # H^p(quotient) = H^{p+1}(sub): the degree-shift pattern of the
    # spacelike-compact tables, on a finite surrogate
    rng = random.Random(8)
    for _ in range(10):
        s = subcomplex_of_contractible_seq(rng)
        assert all(d == 0 for d in cohomology_dims(s.b).values())
        les = long_exact_sequence(s)
        assert all(v.exact for v in check_exactness(les))
        for st in split_by_null_map(s, "A"):
            assert st.holds
            assert st.left[2] == 0  # B nodes vanish
            assert st.middle[2] == st.right[2]  # H^p(C) = H^{p+1}(A)


def test_splits_audit_against_les_ranks():
    rng = random.Random(9)
    s = subcomplex_of_contractible_seq(rng)
    for which in ("A", "B"):
        for st in split_by_null_map(s, which):
            assert st.holds


def test_determinism_of_generators():
    a = random_short_exact_seq(random.Random(123))
    b = random_short_exact_seq(random.Random(123))
    for p in a.b.degrees():
        assert a.b.d(p) == b.b.d(p)
        assert a.i.at(p) == b.i.at(p)


def test_euler_characteristic_conservation_random():
    # alternating sum of space dims equals alternating sum of cohomology dims
    rng = random.Random(10)
    for _ in range(25):
        c = random_complex(rng).complex
        chi_spaces = c.euler_characteristic()
        chi_cohom = sum((-1) ** p * h for p, h in cohomology_dims(c).items())
        assert chi_spaces == chi_cohom


def _matrix_key(m: MatrixQ) -> tuple:
    return m.rows, m.cols, [sorted((j, type(v).__name__, str(v)) for j, v in row.items())
                            for row in m._r]


SES_DRAWS_DIGEST = "7f21705b4772f57bb3025b459f55adc94ac6f673037a12313a0fea4ffdfea09e"
CONTRACTIONS_DIGEST = "451888dafbcaecb40e0d443c837899e6a4f18d16ec50255c15bde23523ecd967"


def test_short_exact_seq_draws_are_pinned():
    # dims, differentials, i and q of 200 sequences at seed 42, and the rng
    # state after them: the draws feed the homology suite and its digests
    rng = random.Random(42)
    h = hashlib.sha256()
    for _ in range(200):
        s = random_short_exact_seq(rng)
        for p in s.degrees():
            h.update(repr((p, s.a.dim(p), s.b.dim(p), s.c.dim(p),
                           _matrix_key(s.a.d(p)), _matrix_key(s.b.d(p)), _matrix_key(s.c.d(p)),
                           _matrix_key(s.i.at(p)), _matrix_key(s.q.at(p)))).encode())
        h.update(b";")
    h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == SES_DRAWS_DIGEST


def test_contractions_are_pinned():
    rng = random.Random(42)
    h = hashlib.sha256()
    for _ in range(50):
        sc = random_contractible_complex(rng)
        c = sc.complex
        for p in c.degrees():
            h.update(repr((p, c.dim(p), _matrix_key(c.d(p)),
                           _matrix_key(sc.contraction.at(p)))).encode())
        h.update(b";")
    h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == CONTRACTIONS_DIGEST


def test_random_ses_splits_so_its_connecting_maps_vanish():
    rng = random.Random(11)
    for _ in range(20):
        s = random_short_exact_seq(rng)
        les = long_exact_sequence(s)
        assert all(n.outgoing.is_zero() for n in les.nodes if n.position == "C")

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcoh.simplicial import (
    TORUS_7_FACETS,
    CohomologyProfile,
    TriangulationError,
    betti,
    betti_via_chains,
    build_complex,
    cochain_complex,
    coboundary,
    kunneth,
    preset_profile,
    profile_from_triangulation,
    simplex_boundary_facets,
)


def test_single_triangle_faces():
    k = build_complex([(0, 1, 2)])
    assert k.f_vector() == (3, 3, 1)


def test_tetrahedron_boundary_faces():
    k = build_complex(simplex_boundary_facets(3))
    assert k.f_vector() == (4, 6, 4)


def test_four_simplex_boundary_f_vector():
    # binomial counts C(5,1), C(5,2), C(5,3), C(5,4)
    k = build_complex(simplex_boundary_facets(4))
    assert k.f_vector() == (5, 10, 10, 5)


def test_build_complex_errors():
    with pytest.raises(TriangulationError):
        build_complex([()])
    with pytest.raises(TriangulationError):
        build_complex([(0, 0, 1)])
    with pytest.raises(TriangulationError):
        build_complex([(0, 5)], vertex_count=3)


def test_coboundary_squares_to_zero():
    k = build_complex(simplex_boundary_facets(3))
    for p in range(k.dimension - 1):
        assert (coboundary(k, p + 1) * coboundary(k, p)).is_zero()


def test_circle_betti():
    k = build_complex(simplex_boundary_facets(2))
    assert (betti(k, 0), betti(k, 1)) == (1, 1)


def test_three_sphere_betti():
    k = build_complex(simplex_boundary_facets(4))
    assert tuple(betti(k, p) for p in range(4)) == (1, 0, 0, 1)


def test_cone_is_acyclic():
    # cone over the triangle boundary = solid tetrahedron surface plus apex faces
    base = simplex_boundary_facets(2)
    cone = [f + (3,) for f in base]
    k = build_complex(cone)
    assert betti(k, 0) == 1
    assert all(betti(k, p) == 0 for p in range(1, k.dimension + 1))


def test_betti_chain_cochain_agree():
    for facets in (simplex_boundary_facets(2), simplex_boundary_facets(3), TORUS_7_FACETS):
        k = build_complex(facets)
        for p in range(k.dimension + 1):
            assert betti(k, p) == betti_via_chains(k, p)


def test_torus_triangulation():
    k = build_complex(TORUS_7_FACETS)
    assert k.f_vector() == (7, 21, 14)
    assert k.euler_characteristic() == 0
    assert tuple(betti(k, p) for p in range(3)) == (1, 2, 1)


def test_euler_equals_alternating_betti():
    for facets in (simplex_boundary_facets(3), TORUS_7_FACETS):
        k = build_complex(facets)
        chi = k.euler_characteristic()
        alt = sum((-1) ** p * betti(k, p) for p in range(k.dimension + 1))
        assert chi == alt


def test_profile_from_triangulation():
    k = build_complex(simplex_boundary_facets(4))
    prof = profile_from_triangulation(k)
    assert prof.m == 3
    assert prof.h == (1, 0, 0, 1)
    assert prof.h_c == prof.h
    k2 = build_complex(simplex_boundary_facets(2))
    prof2 = profile_from_triangulation(k2)
    assert prof2.m == 1 and prof2.h == (1, 1)


def test_profile_requires_closed_oriented():
    k = build_complex([(0, 1, 2)])
    with pytest.raises(TriangulationError):
        profile_from_triangulation(k)


@pytest.mark.parametrize("extra, message", [
    ((3, 4), r"1-face \(3, 4\) lies in 0 2-faces: the slice is not pure"),
    ((4,), r"0-face \(4,\) lies in 0 1-faces: the slice is not pure"),
])
def test_profile_requires_every_face_in_a_top_face(extra, message):
    # the 2-sphere with a dangling edge, and with an isolated vertex
    k = build_complex(simplex_boundary_facets(3) + (extra,))
    with pytest.raises(TriangulationError, match=message):
        profile_from_triangulation(k)


def test_preset_sphere_matches_triangulation_oracle():
    assert preset_profile("sphere", 3).h == (1, 0, 0, 1)
    k = build_complex(simplex_boundary_facets(4))
    assert preset_profile("sphere", 3).h == profile_from_triangulation(k).h


def test_preset_torus_matches_triangulation_oracle():
    assert preset_profile("torus", 2).h == (1, 2, 1)
    k = build_complex(TORUS_7_FACETS)
    assert preset_profile("torus", 2).h == profile_from_triangulation(k).h


def test_preset_euclidean():
    p = preset_profile("euclidean", 3)
    assert p.h == (1, 0, 0, 0)
    assert p.h_c == (0, 0, 0, 1)
    # duality rule h_c[p] = h[m-p]
    assert all(p.h_c[i] == p.h[p.m - i] for i in range(p.m + 1))


def test_preset_point_and_errors():
    assert preset_profile("point", 0).h == (1,)
    with pytest.raises(ValueError):
        preset_profile("point", 2)
    with pytest.raises(ValueError):
        preset_profile("sphere", 0)
    with pytest.raises(ValueError):
        preset_profile("klein-bottle", 2)


def test_oriented_closed_duality():
    for name, m in (("sphere", 3), ("torus", 3), ("sphere", 1)):
        p = preset_profile(name, m)
        assert all(p.h[i] == p.h[m - i] for i in range(m + 1))


def test_kunneth_point_is_unit():
    pt = preset_profile("point", 0)
    s2 = preset_profile("sphere", 2)
    assert kunneth(pt, s2).h == s2.h
    assert kunneth(s2, pt).h_c == s2.h_c


def test_kunneth_line_times_sphere():
    # convolution by hand: (1,0)*(1,0,1) = (1,0,1,0); compact row shifts by one
    r1 = preset_profile("euclidean", 1)
    s2 = preset_profile("sphere", 2)
    prod = kunneth(r1, s2)
    assert prod.h == (1, 0, 1, 0)
    assert prod.h_c == (0, 1, 0, 1)


def test_kunneth_torus_from_circles():
    s1 = preset_profile("sphere", 1)
    assert kunneth(s1, s1).h == (1, 2, 1)
    assert kunneth(s1, s1).h == preset_profile("torus", 2).h


def test_kunneth_euclidean_powers_match_preset():
    r1 = preset_profile("euclidean", 1)
    r3 = kunneth(kunneth(r1, r1), r1)
    preset = preset_profile("euclidean", 3)
    assert r3.h == preset.h and r3.h_c == preset.h_c


profiles = st.sampled_from([
    preset_profile("point", 0),
    preset_profile("sphere", 1),
    preset_profile("sphere", 2),
    preset_profile("torus", 2),
    preset_profile("euclidean", 1),
    preset_profile("euclidean", 2),
])


@settings(max_examples=30, derandomize=True)
@given(profiles, profiles)
def test_kunneth_commutative(a, b):
    ab, ba = kunneth(a, b), kunneth(b, a)
    assert ab.h == ba.h and ab.h_c == ba.h_c


@settings(max_examples=30, derandomize=True)
@given(profiles, profiles, profiles)
def test_kunneth_associative(a, b, c):
    left = kunneth(kunneth(a, b), c)
    right = kunneth(a, kunneth(b, c))
    assert left.h == right.h and left.h_c == right.h_c


def test_profile_validation():
    with pytest.raises(ValueError):
        CohomologyProfile(m=1, h=(1,), h_c=(1, 0))
    with pytest.raises(ValueError):
        CohomologyProfile(m=1, h=(1, -1), h_c=(1, 0))

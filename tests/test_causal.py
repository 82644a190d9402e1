import pytest

from causalcoh.causal import (
    SOLUTION_SUPPORTS,
    TRIVIAL_SUPPORTS,
    CohomologyTable,
    SpacetimeModel,
    SupportClass,
    full_table,
    pairing_audit,
    restricted_dimension,
    route_consistency,
    solution_dimension,
)
from causalcoh.simplicial import (
    build_complex,
    preset_profile,
    profile_from_triangulation,
    simplex_boundary_facets,
)

SC = SupportClass.SPACELIKE_COMPACT
TC = SupportClass.TIMELIKE_COMPACT
UN = SupportClass.UNRESTRICTED
CP = SupportClass.COMPACT


def sphere_model(m=3):
    return SpacetimeModel(n=m + 1, sigma=preset_profile("sphere", m), label=f"RxS{m}")


def test_exactly_eight_support_classes():
    assert len(SupportClass) == 8
    assert len(TRIVIAL_SUPPORTS) == 4
    assert len(SOLUTION_SUPPORTS) == 2


def test_model_validation():
    with pytest.raises(ValueError):
        SpacetimeModel(n=1, sigma=preset_profile("point", 0))
    with pytest.raises(ValueError):
        SpacetimeModel(n=4, sigma=preset_profile("sphere", 2))


def test_trivial_support_rows_vanish():
    model = sphere_model()
    for x in TRIVIAL_SUPPORTS:
        assert all(restricted_dimension(model, x, p) == 0 for p in range(-1, 6))


def test_sphere_sc_row_from_triangulation_oracle():
    # slice profile from the boundary-of-4-simplex triangulation
    k = build_complex(simplex_boundary_facets(4))
    sigma = profile_from_triangulation(k)
    model = SpacetimeModel(n=4, sigma=sigma)
    assert tuple(restricted_dimension(model, SC, p) for p in range(5)) == (1, 0, 0, 1, 0)


def test_degree_convention_out_of_range():
    model = sphere_model()
    for x in SupportClass:
        assert restricted_dimension(model, x, -1) == 0
        assert restricted_dimension(model, x, model.n + 1) == 0


def test_sphere_full_rows():
    t = full_table(sphere_model())
    assert t.row(SC) == (1, 0, 0, 1, 0)
    assert t.row(TC) == (0, 1, 0, 0, 1)
    assert t.solution_row(SC) == (1, 1, 0, 1, 1)
    assert t.solution_row(UN) == (1, 1, 0, 1, 1)
    for x in TRIVIAL_SUPPORTS:
        assert t.row(x) == (0, 0, 0, 0, 0)


def test_minkowski_rows():
    model = SpacetimeModel(n=4, sigma=preset_profile("euclidean", 3), label="minkowski4")
    t = full_table(model)
    assert t.row(SC) == (0, 0, 0, 1, 0)
    assert t.row(TC) == (0, 1, 0, 0, 0)


def test_solution_dimension_circle_slice():
    model = SpacetimeModel(n=2, sigma=preset_profile("sphere", 1))
    assert tuple(solution_dimension(model, SC, p) for p in range(3)) == (1, 2, 1)
    assert solution_dimension(model, SC, -1) == 0


def test_solution_dimension_rejects_other_supports():
    model = sphere_model()
    with pytest.raises(ValueError):
        solution_dimension(model, SupportClass.RETARDED, 0)


def test_pairing_audit_passes_on_models():
    for model in (sphere_model(),
                  SpacetimeModel(n=4, sigma=preset_profile("euclidean", 3)),
                  SpacetimeModel(n=4, sigma=preset_profile("torus", 3)),
                  SpacetimeModel(n=2, sigma=preset_profile("sphere", 1))):
        assert pairing_audit(full_table(model)).ok


def test_pairing_audit_detects_perturbation():
    t = full_table(sphere_model())
    dims = dict(t.dims)
    dims[(SC, 0)] += 1
    broken = CohomologyTable(n=t.n, label=t.label, dims=dims, solution_dims=t.solution_dims)
    audit = pairing_audit(broken)
    assert not audit.ok
    assert any("p=0" in v for v in audit.violations)


def test_route_consistency_presets():
    for name, m in (("sphere", 3), ("torus", 3), ("euclidean", 3), ("sphere", 1)):
        model = SpacetimeModel(n=m + 1, sigma=preset_profile(name, m))
        assert route_consistency(model).ok


def test_compact_row_is_shifted_slice_compact():
    model = sphere_model()
    assert full_table(model).row(CP) == (0, 1, 0, 0, 1)

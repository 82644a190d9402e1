"""Operator-level checks for the Killing-Riemann-Bianchi machinery.

The full 20-case identity battery lives in the acceptance module; here a
small corpus exercises every operator, the symmetry of every output, the
linearization oracle and the restricted-support tables.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from causalcoh.calabi import (CALABI_BACKGROUNDS, CalabiError, CalabiField,
                              background_chart, calabi_diff, calabi_homotopy, calabi_table,
                              calabi_wave, killing_operator, killing_system,
                              killing_yano_operator, linearization_relation_holds, linearized_riemann,
                              polynomial_solution_dimension, random_calabi_field, random_polynomial,
                              random_polynomials, verify_calabi_identities, _fields_equal)
import causalcoh.calabi as calabi_module
import causalcoh.tensors as tensors_module
from causalcoh.causal import (SOLUTION_SUPPORTS, SpacetimeModel, SupportClass, full_table,
                             pairing_audit)
from causalcoh.charts import curvature, de_sitter, minkowski
from causalcoh.linalg import MatrixQ, sparse_rank
from causalcoh.polynomials import RationalFunction, monomial_key
from causalcoh.simplicial import preset_profile
from causalcoh.tensors import (TensorField, box_tensor, nabla, odot, pattern_sum, project, trace,
                               trace_pair)
from causalcoh.young import (CALABI_DIAGRAMS, YoungDiagram, lifted_group, project_components,
                             slot_group, symmetrize_slots)
from test_linalg import dense_rank

SC = SupportClass.SPACELIKE_COMPACT
TC = SupportClass.TIMELIKE_COMPACT
UN = SupportClass.UNRESTRICTED
CP = SupportClass.COMPACT


def test_field_levels_and_ranks():
    m = minkowski(4)
    with pytest.raises(CalabiError):
        CalabiField(2, TensorField.zero(m, "lll"))
    with pytest.raises(CalabiError):
        CalabiField(5, TensorField.zero(m, "l" * 7))
    f = CalabiField(1, TensorField.metric(m))
    with pytest.raises(CalabiError):
        calabi_homotopy(calabi_homotopy(f))  # level 0 has no homotopy


def test_checked_constructor_rejects_wrong_symmetry():
    m = minkowski(4)
    assert CalabiField.checked(1, TensorField.metric(m)).level == 1
    lopsided = TensorField.from_function(m, "ll", lambda idx: m.rf(idx[0] - 2 * idx[1]))
    with pytest.raises(CalabiError):
        CalabiField.checked(1, lopsided)


def test_killing_operator_on_constant_covector_flat():
    m = minkowski(4)
    v = CalabiField(0, TensorField(m, "l", tuple(m.rf(c) for c in (3, 1, -2, 5))))
    assert killing_operator(v).is_zero()


def test_flat_wave_ops_are_plain_box():
    m = minkowski(4)
    rng = random.Random(0)
    for level in range(5):
        f = random_calabi_field(m, level, rng)
        assert _fields_equal(calabi_wave(f).field, box_tensor(f.field))


def test_homotopy_of_metric_vanishes():
    # divergence of g minus half the gradient of its (constant) trace
    for chart in (minkowski(4), de_sitter(4, 1)):
        g = CalabiField(1, TensorField.metric(chart))
        assert calabi_homotopy(g).is_zero()


def test_wave1_on_metric():
    # wave_1[g] = (2k/n) g: box g = 0, tr g = n
    ds = de_sitter(4, 1)
    g = CalabiField(1, TensorField.metric(ds))
    out = calabi_wave(g).field
    expected = TensorField.metric(ds).scale(Fraction(2 * 12, 4))
    assert _fields_equal(out, expected)


def test_homotopy2_of_background_riemann_is_ricci():
    ds = de_sitter(4, 1)
    riem = CalabiField(2, TensorField(ds, "llll", curvature(ds).riemann))
    out = calabi_homotopy(riem).field
    for a in range(4):
        for b in range(4):
            assert out.get(a, b) == ds.metric_component(a, b).scale(Fraction(12, 4))


def test_diff3_kills_background_riemann():
    # the background curvature satisfies the differential Bianchi identity
    ds = de_sitter(4, 1)
    riem = CalabiField(2, TensorField(ds, "llll", curvature(ds).riemann))
    assert calabi_diff(riem).is_zero()


def test_wave2_route_consistency_on_background_riemann():
    ds = de_sitter(4, 1)
    riem = CalabiField(2, TensorField(ds, "llll", curvature(ds).riemann))
    direct = calabi_wave(riem).field
    via_homotopy = (calabi_homotopy(calabi_diff(riem)).field
                    + calabi_diff(calabi_homotopy(riem)).field)
    assert _fields_equal(direct, via_homotopy)


def test_identity_battery_small_corpus():
    for background in CALABI_BACKGROUNDS:
        chart = background_chart(background)
        report = verify_calabi_identities(chart, seed=7, degree_bound=2, cases=1,
                                          check_symmetries=True)
        assert report.all_passed, report.failures()


def test_battery_without_cases_or_degree_is_refused():
    # a run with zero checks is not a pass
    chart = minkowski(4)
    with pytest.raises(CalabiError, match="cases must be >= 1"):
        verify_calabi_identities(chart, cases=0)
    with pytest.raises(CalabiError, match="degree bound must be >= 1"):
        verify_calabi_identities(chart, degree_bound=0, cases=1)


def test_zero_fields_satisfy_all_identities():
    ds = de_sitter(4, 1)
    for level in range(5):
        rank = 1 if level == 0 else (level + 2 if level >= 2 else 2)
        zero = CalabiField(level, TensorField.zero(ds, "l" * rank))
        assert calabi_wave(zero).is_zero()
        if level < 4:
            assert calabi_diff(zero).is_zero()
        if level > 0:
            assert calabi_homotopy(zero).is_zero()


def test_corpus_fields_have_declared_symmetry():
    rng = random.Random(11)
    ds = de_sitter(4, 1)
    for level in range(5):
        f = random_calabi_field(ds, level, rng)
        assert f.check_symmetry()


def test_linearization_oracle_zero_and_metric():
    for chart in (minkowski(4), de_sitter(4, 1)):
        zero = CalabiField(1, TensorField.zero(chart, "ll"))
        assert linearized_riemann(chart, zero).is_zero()
        # scaling argument: perturbing g by g scales the metric, so the
        # first-order curvature response is the background curvature itself
        g = CalabiField(1, TensorField.metric(chart))
        dr = linearized_riemann(chart, g).field
        rb = TensorField(chart, "llll", curvature(chart).riemann)
        assert _fields_equal(dr, rb)


def test_linearization_relation_random_fields():
    rng = random.Random(3)
    for chart in (minkowski(4), de_sitter(4, 1)):
        h = random_calabi_field(chart, 1, rng)
        assert linearization_relation_holds(chart, h)


def test_killing_yano_operator_flat_constant():
    m = minkowski(4)
    w = [m.zero] * 16
    w[0 * 4 + 1] = m.rf(2)
    w[1 * 4 + 0] = m.rf(-2)
    assert killing_yano_operator(TensorField(m, "ll", w)).is_zero()


def test_solution_dimensions():
    m = minkowski(4)
    ds = de_sitter(4, 1)
    assert polynomial_solution_dimension("killing", m, 1).dim == 10
    assert polynomial_solution_dimension("killingYano", m, 1).dim == 10
    assert polynomial_solution_dimension("killing", ds, 2).dim == 10


def test_solution_dimension_monotone_and_stable():
    ds = de_sitter(4, 1)
    dims = [polynomial_solution_dimension("killing", ds, d).dim for d in (1, 2, 3)]
    assert dims[0] <= dims[1] <= dims[2]
    assert dims[1] == dims[2] == 10  # stabilizes at the sufficient degree
    below = polynomial_solution_dimension("killing", ds, 1)
    assert below.below_sufficient
    # killingYano reaches its stable dimension only at degree 3
    yano = [polynomial_solution_dimension("killingYano", ds, d) for d in (2, 3, 4)]
    assert [y.dim for y in yano] == [7, 10, 10]
    assert yano[0].below_sufficient and not yano[1].below_sufficient
    # on the flat chart both stabilize at degree 1: translations and
    # constant 2-forms below it
    m = minkowski(4)
    for operator, constant in (("killing", 4), ("killingYano", 6)):
        flat = [polynomial_solution_dimension(operator, m, d) for d in (0, 1, 2)]
        assert [f.dim for f in flat] == [constant, 10, 10]
        assert [f.below_sufficient for f in flat] == [True, False, False]


@pytest.mark.parametrize("operator", ["killing", "killingYano"])
@pytest.mark.parametrize("chart", [minkowski(4), de_sitter(4, 1)], ids=["flat", "dS"])
def test_sparse_killing_rank_equals_dense_rank(chart, operator):
    for degree in (1, 2, 3):
        columns = killing_system(operator, chart, degree)
        nunk = len(columns)
        assert all(isinstance(c, int) for col in columns for c in col.values())
        rows = sorted({key for col in columns for key in col})
        dense = MatrixQ.from_rows([[col.get(key, 0) for col in columns] for key in rows])
        assert sparse_rank(columns) == dense_rank(dense)
        assert polynomial_solution_dimension(operator, chart, degree).dim == nunk - dense_rank(dense)


def reference_killing_system(operator, chart, degree_bound):
    """The system built by applying the operator to every unknown's field:
    the upper-index unit component times a monomial, lowered with the
    metric.  Each column is scaled by the common denominator of its output."""
    n = chart.n
    monos = sorted(e for e in product(range(degree_bound + 1), repeat=n)
                   if sum(e) <= degree_bound)
    unit = lambda mono: RationalFunction.from_key_terms(n, {monomial_key(mono): 1})
    fields = []
    if operator == "killing":
        for a in range(n):
            for mono in monos:
                comp = unit(mono)
                fields.append(TensorField(chart, "l", [chart.metric_diag[c] * comp if c == a
                                                       else chart.zero for c in range(n)]))
        apply_op = lambda v: calabi_diff(CalabiField(0, v)).field
    else:
        for a in range(n):
            for b in range(a + 1, n):
                for mono in monos:
                    comp = unit(mono)
                    comps = [chart.zero] * (n * n)
                    val = chart.metric_diag[a] * chart.metric_diag[b] * comp
                    comps[a * n + b] = val
                    comps[b * n + a] = -val
                    fields.append(TensorField(chart, "ll", comps))
        apply_op = killing_yano_operator
    rows = {}
    for i, v in enumerate(fields):
        comps = apply_op(v).comps
        common = lcm(*(c.d for c in comps))
        for pos, c in enumerate(comps):
            for mono, coeff in c.terms.items():
                rows.setdefault((pos, mono), {})[i] = coeff * (common // c.d)
    return len(fields), rows


KILLING_ORACLE_CHARTS = [minkowski(4), de_sitter(4, 1), de_sitter(4, Fraction(2, 3)),
                         minkowski(3), de_sitter(3, 1)]


@pytest.mark.parametrize("operator", ["killing", "killingYano"])
@pytest.mark.parametrize("chart", KILLING_ORACLE_CHARTS,
                         ids=["minkowski4", "deSitter4", "deSitter4(H=2/3)", "minkowski3",
                              "deSitter3"])
def test_killing_system_equals_the_unit_field_oracle(chart, operator):
    # the same unknowns and row keys, and each column a positive multiple of
    # the oracle's column
    for degree in range(5):
        columns = killing_system(operator, chart, degree)
        ref_nunk, ref_rows = reference_killing_system(operator, chart, degree)
        assert len(columns) == ref_nunk
        assert {key for col in columns for key in col} == set(ref_rows)
        ref_columns = {}
        for key, ref_row in ref_rows.items():
            for i, c in ref_row.items():
                ref_columns.setdefault(i, {})[key] = c
        assert sorted(i for i, col in enumerate(columns) if col) == sorted(ref_columns)
        for i, col in enumerate(columns):
            ref_col = ref_columns.get(i, {})
            assert col.keys() == ref_col.keys()
            if not col:
                continue
            ratios = {Fraction(c, ref_col[key]) for key, c in col.items()}
            assert len(ratios) == 1 and ratios.pop() > 0


def test_identity_battery_with_non_unit_denominators():
    # H = 2/3: the conformal factor is (3/2) x0^-1, so no integer
    # denominator of the chart scalars is 1
    chart = de_sitter(4, Fraction(2, 3))
    assert all(g.d != 1 for g in chart.metric_diag + chart.inverse_metric_diag)
    report = verify_calabi_identities(chart, seed=5, cases=1, check_symmetries=True)
    assert report.checks and report.all_passed, report.failures()


def test_calabi_table_minkowski():
    t = calabi_table("minkowski4")
    assert t.row(UN) == (10, 0, 0, 0, 0)
    assert t.row(CP) == (0, 0, 0, 0, 10)
    assert t.row(SC) == (0, 0, 0, 10, 0)
    assert t.row(TC) == (0, 10, 0, 0, 0)
    assert t.solution_row(SC) == (0, 0, 0, 10, 10)
    assert t.reference_deviations == ()


def test_calabi_table_de_sitter_gates_and_deviations():
    t = calabi_table("deSitter4")
    # sc restriction is vacuous over the compact slice
    assert t.row(SC) == t.row(UN) == (10, 0, 0, 10, 0)
    # duality pattern
    for l in range(5):
        assert t.row(SC)[l] == t.row(TC)[4 - l]
        assert t.solution_row(SC)[l] == t.solution_row(UN)[4 - l]
    # the reference pattern misses sc degree 0 and wave_sc degree 1; the
    # table must say so loudly
    assert len(t.reference_deviations) == 2
    with pytest.raises(CalabiError):
        calabi_table("deSitter4", strict=True)


def test_calabi_table_trivial_rows_zero():
    from causalcoh.causal import TRIVIAL_SUPPORTS
    for bg in CALABI_BACKGROUNDS:
        t = calabi_table(bg)
        for x in TRIVIAL_SUPPORTS:
            assert t.row(x) == (0, 0, 0, 0, 0)


def test_calabi_table_degree_edge_convention():
    t = calabi_table("deSitter4")
    for x in (UN, CP, SC, TC):
        assert t.dim(x, -1) == 0
        assert t.dim(x, 5) == 0
    assert t.solution_dim(SC, -1) == 0
    assert t.solution_dim(SC, 5) == 0
    assert t.dim(SC, 0) == 10


def test_calabi_table_is_the_de_rham_table_times_the_coefficient_rank():
    # at n = 4 both coefficient ranks are 10: dim K = C(5, 2) = dim KY = C(5, 3)
    for bg, preset in (("minkowski4", "euclidean"), ("deSitter4", "sphere")):
        t = calabi_table(bg)
        assert (t.dim_killing, t.dim_killing_yano) == (10, 10)
        de_rham = full_table(SpacetimeModel(n=4, sigma=preset_profile(preset, 3)))
        for x in SupportClass:
            for p in range(-2, 7):
                assert t.dim(x, p) == 10 * de_rham.dim(x, p)
        for x in SOLUTION_SUPPORTS:
            for p in range(-2, 7):
                assert t.solution_dim(x, p) == 10 * de_rham.solution_dim(x, p)
        assert pairing_audit(t).ok


def test_unknown_background_rejected():
    with pytest.raises(CalabiError):
        calabi_table("antiDeSitter4")  # not globally hyperbolic, excluded


# Every output component of every operator below, evaluated at PIN_POINT on
# seeded fields over both backgrounds, hashed in one sha256.  Evaluation at
# a point keeps the digest independent of how the ring stores a scalar; the
# value was recorded from the hand-written operators the slot-pattern sums
# replaced.
PIN_POINT = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(5, 7))
PIN_DIGEST = "0942b72dd470e0143c37698312a09fd630117a4ee0dcc166c399bb7ca41e8728"


def _pinned_outputs(chart, rng):
    n = chart.n

    def projected(rows):
        diagram = YoungDiagram(rows)
        raw = [random_polynomial(rng, n, 2) for _ in range(n ** diagram.cells)]
        return project(TensorField(chart, "l" * diagram.cells, raw), diagram)

    fields = [random_calabi_field(chart, level, rng) for level in range(5)]
    for level in range(4):
        yield f"diff{level + 1}", calabi_diff(fields[level]).field
    for level in range(1, 5):
        yield f"homotopy{level}", calabi_homotopy(fields[level]).field
    for level in range(5):
        yield f"wave{level}", calabi_wave(fields[level]).field
    yield "killingYano", killing_yano_operator(projected((1, 1)))
    yield "s2s2", odot(chart, fields[1].field, "s2s2")
    yield "s2_21", odot(chart, projected((2, 1)), "s2_21")
    yield "s2_211", odot(chart, projected((2, 1, 1)), "s2_211")


def test_operator_outputs_pinned_at_a_point():
    h = hashlib.sha256()
    for bg in CALABI_BACKGROUNDS:
        chart = background_chart(bg)
        for name, out in _pinned_outputs(chart, random.Random(2024)):
            values = ",".join(str(c.evaluate(PIN_POINT)) for c in out.comps)
            h.update(f"{bg}:{name}:{out.variance}:{values};".encode())
    assert h.hexdigest() == PIN_DIGEST


def _general_route_random_polynomial(rng, nvars, degree, coeff_bound=3, terms=3):
    """The draws of random_polynomial through the general constructors."""
    items = []
    for _ in range(terms):
        mono = tuple(rng.randrange(degree + 1) for _ in range(nvars))
        if sum(mono) > degree:
            continue
        items.append((mono, Fraction(rng.randrange(-coeff_bound, coeff_bound + 1))))
    total = RationalFunction.constant(nvars, 0)
    for mono, c in items:
        total = total + RationalFunction.from_key_terms(nvars, {monomial_key(mono): 1}).scale(c)
    return total


@pytest.mark.parametrize("nvars, degree, terms", [(4, 2, 3), (3, 3, 5), (2, 1, 8), (4, 0, 3)])
def test_random_polynomial_equals_the_general_constructor_route(nvars, degree, terms):
    # (2, 1, 8) repeats monomials often, so sums and cancellations are covered
    for seed in range(20):
        fast, general = random.Random(seed), random.Random(seed)
        for _ in range(50):
            p = random_polynomial(fast, nvars, degree, terms=terms)
            q = _general_route_random_polynomial(general, nvars, degree, terms=terms)
            assert p == q and p.d == 1 and all(p.terms.values())
        assert fast.getstate() == general.getstate()  # the same draws
        assert fast.random() == general.random()


@pytest.mark.parametrize("nvars, degree, terms", [(4, 2, 3), (3, 3, 5), (2, 1, 8), (4, 0, 3)])
@pytest.mark.parametrize("count", [2, 7, 64])
def test_random_polynomials_continue_one_stream(nvars, degree, terms, count):
    # count > 1 draws the polynomials one after the other from one stream
    for seed in range(10):
        fast, general = random.Random(seed), random.Random(seed)
        batch = random_polynomials(fast, nvars, degree, count, terms=terms)
        assert len(batch) == count
        for p in batch:
            q = _general_route_random_polynomial(general, nvars, degree, terms=terms)
            assert p == q and p.d == 1 and all(p.terms.values())
        assert fast.getstate() == general.getstate()


@pytest.mark.parametrize("chart", [minkowski(4), de_sitter(4, 1)], ids=["flat", "dS"])
def test_random_calabi_field_equals_projected_general_draws(chart):
    # one general-route draw per dense component, then the Young projection
    n = chart.n
    for seed in (0, 42):
        fast, general = random.Random(seed), random.Random(seed)
        for level in range(5):
            f = random_calabi_field(chart, level, fast, 2)
            raw = [_general_route_random_polynomial(general, n, 2)
                   for _ in range(n ** CALABI_DIAGRAMS[level].cells)]
            assert list(f.field.comps) == project_components(raw, n, CALABI_DIAGRAMS[level],
                                                             chart.zero)
            assert fast.getstate() == general.getstate()


# -- tagged (orbit) evaluation against dense evaluation ------------------------

DIFFERENTIAL_CHARTS = [minkowski(4), de_sitter(4, 1), de_sitter(4, Fraction(2, 3))]


def _untagged(t):
    return TensorField(t.chart, t.variance, t.comps)


def _dense_projection(comps, n, diagram, zero):
    """Rows symmetrized, columns antisymmetrized, at every index."""
    k = diagram.cells
    for row in diagram.row_slots():
        comps = symmetrize_slots(comps, n, k, row, signed=False, zero=zero)
    for col in diagram.column_slots():
        comps = symmetrize_slots(comps, n, k, col, signed=True, zero=zero)
    c = Fraction(1, diagram.hook_product())
    return [v.scale(c) for v in comps]


@pytest.mark.parametrize("chart", DIFFERENTIAL_CHARTS, ids=("minkowski4", "deSitter4",
                                                            "deSitter4(H=2/3)"))
def test_tagged_evaluation_equals_dense_evaluation(chart, monkeypatch):
    n = chart.n
    rng = random.Random(31)
    fields = [random_calabi_field(chart, level, rng).field for level in range(5)]
    for level, t in enumerate(fields):
        diagram = CALABI_DIAGRAMS[level]
        assert t.symmetry == slot_group(diagram)
        dense = _untagged(t)
        assert nabla(t).comps == nabla(dense).comps
        boxed = box_tensor(t)
        assert boxed.symmetry == slot_group(diagram) and boxed.comps == box_tensor(dense).comps
        # nabla and the traces keep the slot symmetries that survive them
        derivative = nabla(t)
        assert derivative.symmetry == (lifted_group(slot_group(diagram)) if level else None)
        for tagged in (t, derivative):
            plain = _untagged(tagged)
            for i, j in combinations(range(tagged.rank), 2):
                assert trace_pair(tagged, i, j).comps == trace_pair(plain, i, j).comps
            for kind, rank in (("h", 2), ("r", 4), ("b3", 5), ("b4", 6)):
                if tagged.rank == rank:
                    assert trace(tagged, kind).comps == trace(plain, kind).comps
        raw = [random_polynomial(rng, n, 2) for _ in range(n ** diagram.cells)]
        assert (project_components(raw, n, diagram, chart.zero)
                == _dense_projection(raw, n, diagram, chart.zero))
        # every operator output is tagged by construction with its level's
        # group, and equals the output for the untagged field
        f, g = CalabiField(level, t), CalabiField(level, dense)
        outputs = [(calabi_wave(f), calabi_wave(g))]
        if level < 4:
            outputs.append((calabi_diff(f), calabi_diff(g)))
        if level:
            outputs.append((calabi_homotopy(f), calabi_homotopy(g)))
        for tagged_out, dense_out in outputs:
            assert tagged_out.field.symmetry == slot_group(CALABI_DIAGRAMS[tagged_out.level])
            assert tagged_out == dense_out

    # every pattern sum with a declared diagram that the operators evaluate,
    # against the same sum evaluated at every index
    declared = []

    def recording(t, patterns, symmetry=None):
        if symmetry is not None:
            declared.append((t, patterns, symmetry))
        return pattern_sum(t, patterns, symmetry)

    monkeypatch.setattr(calabi_module, "pattern_sum", recording)
    monkeypatch.setattr(tensors_module, "pattern_sum", recording)
    for level, t in enumerate(fields):
        f = CalabiField(level, t)
        if level < 4:
            calabi_diff(f)
        if level:
            calabi_homotopy(f)
        calabi_wave(f)
    monkeypatch.undo()
    # diff 1-4, two per homotopy 3-4, and odot in diff2 and waves 2-4 off the flat chart
    assert len(declared) == (8 if chart.scalar_curvature == 0 else 12)
    for t, patterns, symmetry in declared:
        assert pattern_sum(t, patterns, symmetry).comps == pattern_sum(t, patterns).comps

    report = verify_calabi_identities(chart, seed=13, cases=1, check_symmetries=True)
    assert report.checks and report.all_passed, report.failures()


# -- failure reports ---------------------------------------------------------------

def test_failed_identity_names_the_component_and_the_residual(monkeypatch):
    chart = minkowski(4)
    passing = verify_calabi_identities(chart, seed=3, cases=1, check_symmetries=True)
    assert passing.all_passed
    assert all("detail" not in c for c in passing.to_dict()["checks"])

    diff4 = calabi_module._diff4
    monkeypatch.setattr(calabi_module, "_diff4", lambda b: diff4(b).scale(2))
    report = verify_calabi_identities(chart, seed=3, cases=1)
    failed = {c.name: c for c in report.failures()}
    assert "diff4∘homotopy4 = wave4" in failed
    assert all(c.detail for c in report.failures())
    assert all(c.detail == "" for c in report.checks if c.passed)

    # the level-4 field is the fifth draw of the seeded corpus
    rng = random.Random(3)
    f = [random_calabi_field(chart, level, rng, 2) for level in range(5)][4]
    lhs = calabi_diff(calabi_homotopy(f)).field
    rhs = calabi_wave(f).field
    flat = next(i for i, (a, b) in enumerate(zip(lhs.comps, rhs.comps)) if a != b)
    idx = tuple(flat // 4 ** (5 - t) % 4 for t in range(6))
    residual = lhs.comps[flat] - rhs.comps[flat]
    assert failed["diff4∘homotopy4 = wave4"].detail == \
        f"first differing component {idx}: residual {residual!r}"
    as_dict = [c for c in report.to_dict()["checks"] if c["name"] == "diff4∘homotopy4 = wave4"]
    assert as_dict[0]["detail"] == failed["diff4∘homotopy4 = wave4"].detail

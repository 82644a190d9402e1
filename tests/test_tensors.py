import random
from fractions import Fraction
from itertools import product

import pytest

from causalcoh.calabi import random_polynomial
from causalcoh.charts import curvature, de_sitter, minkowski
from causalcoh.tensors import (TensorError, TensorField, box_tensor, nabla, odot, partial_tensor,
                               pattern_sum, trace, trace_pair)


def rand_tensor(chart, variance, rng, degree=2):
    n = chart.n
    comps = [random_polynomial(rng, n, degree) for _ in range(n ** len(variance))]
    return TensorField(chart, variance, comps)


def test_metric_compatibility():
    for chart in (minkowski(4), de_sitter(4, 1), de_sitter(3, Fraction(1, 2))):
        assert nabla(TensorField.metric(chart)).is_zero()
        assert nabla(TensorField.inverse_metric(chart)).is_zero()


def test_riemann_is_parallel():
    ds = de_sitter(4, 1)
    riem = TensorField(ds, "llll", curvature(ds).riemann)
    assert nabla(riem).is_zero()


def test_gradient_of_scalar():
    m = minkowski(4)
    x1 = m.coordinate(1)
    grad = nabla(TensorField.scalar(m, x1 * x1))
    assert [str(c) for c in grad.comps] == ["0", "2*x1", "0", "0"]


def test_flat_nabla_is_partial():
    m = minkowski(4)
    rng = random.Random(0)
    t = rand_tensor(m, "ll", rng)
    assert nabla(t) == partial_tensor(t)


def test_box_scalar_flat():
    m = minkowski(4)
    x1 = m.coordinate(1)
    assert box_tensor(TensorField.scalar(m, x1 * x1)).comps[0] == m.rf(2)
    x0 = m.coordinate(0)
    assert box_tensor(TensorField.scalar(m, x0 * x0)).comps[0] == m.rf(-2)


def test_box_constant_covector_flat():
    m = minkowski(4)
    cv = TensorField(m, "l", tuple(m.rf(c) for c in (1, 2, 3, 4)))
    assert box_tensor(cv).is_zero()


def test_box_agrees_with_double_nabla_contraction():
    ds = de_sitter(4, 1)
    rng = random.Random(5)
    t = rand_tensor(ds, "ll", rng)
    boxed = box_tensor(t)
    nn = nabla(nabla(t))
    n = 4
    for idx in range(n * n):
        acc = ds.zero
        for c in range(n):
            acc = acc + ds.inverse_metric_diag[c] * nn.comps[(c * n + c) * n * n + idx]
        assert boxed.comps[idx] == acc


def test_nabla_commutator_gives_curvature():
    # (nabla_a nabla_b - nabla_b nabla_a) v_c = +R_abc^d v_d in the verified
    # convention (the sign is pinned by the curvature gate on the chart)
    ds = de_sitter(4, 1)
    rng = random.Random(7)
    v = rand_tensor(ds, "l", rng)
    nn = nabla(nabla(v))
    riem = curvature(ds).riemann
    n = 4
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = nn.comps[(a * n + b) * n + c] - nn.comps[(b * n + a) * n + c]
                rhs = ds.zero
                for d in range(n):
                    r = riem[((a * n + b) * n + c) * n + d]
                    if not r.is_zero():
                        rhs = rhs + r * (ds.inverse_metric_diag[d] * v.comps[d])
                assert lhs == rhs


def test_trace_of_metric():
    for chart in (minkowski(4), de_sitter(4, 1)):
        assert trace(TensorField.metric(chart), "h").comps[0] == chart.rf(chart.n)


def test_odot_metric_metric():
    m = minkowski(4)
    gg = odot(m, TensorField.metric(m), "s2s2")
    # direct substitution: component (01:01) = 2(eta00*eta11 - 0) = -2
    assert gg.get(0, 1, 0, 1) == m.rf(-2)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    expect = (m.metric_component(a, c) * m.metric_component(b, d)
                              - m.metric_component(b, c) * m.metric_component(a, d)).scale(2)
                    assert gg.get(a, b, c, d) == expect


def test_odot_zero_input():
    m = minkowski(4)
    assert odot(m, TensorField.zero(m, "ll"), "s2s2").is_zero()


def test_odot_rejects_wrong_symmetry():
    m = minkowski(4)
    bad = TensorField.from_function(m, "ll", lambda idx: m.rf(idx[0] - 2 * idx[1]))
    with pytest.raises(TensorError):
        odot(m, bad, "s2s2")


def test_trace_odot_metric():
    # tr[g (.) g]_ab = 2(n-1) g_ab by contracting the closed form
    for chart in (minkowski(4), de_sitter(4, 1)):
        gg = odot(chart, TensorField.metric(chart), "s2s2")
        tr = trace(gg, "r")
        for a in range(4):
            for b in range(4):
                assert tr.get(a, b) == chart.metric_component(a, b).scale(2 * 3)


def test_trace_riemann_is_ricci():
    ds = de_sitter(4, 1)
    riem = TensorField(ds, "llll", curvature(ds).riemann)
    tr = trace(riem, "r")
    for a in range(4):
        for b in range(4):
            assert tr.get(a, b) == ds.metric_component(a, b).scale(Fraction(12, 4))


def test_trace_pair_validation():
    m = minkowski(4)
    t = TensorField.zero(m, "ll")
    with pytest.raises(TensorError):
        trace_pair(t, 0, 0)
    with pytest.raises(TensorError):
        trace(t, "nonsense")


def test_chart_mismatch_rejected():
    a = TensorField.zero(minkowski(4), "l")
    b = TensorField.zero(de_sitter(4, 1), "l")
    with pytest.raises(TensorError):
        a + b


def test_project_tensor():
    from causalcoh.tensors import project
    from causalcoh.young import CALABI_DIAGRAMS, YoungDiagram, is_symmetric, slot_group
    m = minkowski(4)
    rng = random.Random(9)
    t = rand_tensor(m, "llll", rng)
    projected = project(t, CALABI_DIAGRAMS[2])
    assert projected.symmetry == slot_group(CALABI_DIAGRAMS[2])
    assert is_symmetric(projected.comps, 4, CALABI_DIAGRAMS[2], m.zero)
    # idempotent
    again = project(projected, CALABI_DIAGRAMS[2])
    assert all(a == b for a, b in zip(again.comps, projected.comps))
    with pytest.raises(TensorError):
        project(t, YoungDiagram((2, 1)))


def test_pattern_sum_matches_direct_lookups():
    # out_{abcde} = sum of c * t_{pattern}, read component by component
    chart = de_sitter(3, 1)
    rng = random.Random(11)
    t = rand_tensor(chart, "lllll", rng, degree=1)
    t = TensorField(chart, t.variance,
                    [c if rng.random() < 0.7 else chart.zero for c in t.comps])
    patterns = {"abcde": 1, "bcdae": -1, "edcba": 2, "caebd": -3, "badce": 1}
    out = pattern_sum(t, patterns)
    assert out.variance == "lllll" and out.symmetry is None
    for idx in product(range(3), repeat=5):
        letter = dict(zip("abcde", idx))
        expect = chart.zero
        for word, c in patterns.items():
            expect = expect + t.get(*(letter[ch] for ch in word)).scale(c)
        assert out.get(*idx) == expect


def test_pattern_sum_validates_patterns():
    m = minkowski(3)
    rng = random.Random(12)
    with pytest.raises(TensorError):
        pattern_sum(rand_tensor(m, "llu", rng), {"abc": 1})
    t = rand_tensor(m, "lll", rng)
    for bad in ("abd", "aab", "ab", "abcd"):
        with pytest.raises(TensorError):
            pattern_sum(t, {"abc": 1, bad: 1})


def test_tensor_scale_takes_exact_scalars_only():
    chart = de_sitter(4, 1)
    t = rand_tensor(chart, "ll", random.Random(8))
    assert t.scale(2) == t + t
    assert t.scale(Fraction(1, 2)).scale(2) == t
    x0 = chart.coordinate(0)
    assert t.scale(x0).comps == tuple(c * x0 for c in t.comps)
    for bad in (0.1, 1.0, "2"):
        with pytest.raises(TypeError, match=f"got {type(bad).__name__}"):
            t.scale(bad)

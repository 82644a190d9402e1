"""Exterior calculus checks, including the codifferential sign calibration.

The per-degree codifferential signs are re-derived here by brute force:
for each chart dimension the requirement that d delta + delta d act on
flat polynomial forms as eta^{ab} d_a d_b in every degree has a unique
solution over {+1, -1}^n, and it must match the closed form used by the
package.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest

from causalcoh.calabi import random_polynomial
from causalcoh.charts import de_sitter, minkowski
from causalcoh.forms import (FormError, box_de_rham, codifferential, codifferential_sign,
                             exterior_derivative, hodge_star, is_form, wedge)
from causalcoh.tensors import TensorField
from causalcoh.young import permutation_sign, symmetrize_slots

# -- dense oracles --------------------------------------------------------
# Direct index loops over every component, with their own flat-index
# arithmetic and sign bookkeeping.  The operators evaluate pattern sums and
# orbit tables instead; the oracle tests below compare the two.


def _flat(n, idx):
    f = 0
    for i in idx:
        f = f * n + i
    return f


def _indices(n, r):
    return product(range(n), repeat=r)


def dense_is_form(w):
    """All-lower, zero at every repeated index, and w[I] = sign(I) w[sorted I]."""
    if "u" in w.variance:
        return False
    n, r = w.chart.n, w.rank
    if r <= 1:
        return True
    for idx in _indices(n, r):
        lhs = w.comps[_flat(n, idx)]
        if len(set(idx)) != r:
            if not lhs.is_zero():
                return False
            continue
        rhs = w.comps[_flat(n, sorted(idx))]
        if lhs != (rhs if permutation_sign(idx) == 1 else -rhs):
            return False
    return True


def dense_exterior_derivative(w):
    chart = w.chart
    n, p = chart.n, w.rank
    if p >= n:
        return TensorField.zero(chart, "l" * (p + 1))
    comps = []
    for idx in _indices(n, p + 1):
        total = chart.zero
        for j in range(p + 1):
            dv = w.comps[_flat(n, idx[:j] + idx[j + 1:])].derivative(idx[j])
            total = total + dv if j % 2 == 0 else total - dv
        comps.append(total)
    return TensorField(chart, "l" * (p + 1), comps)


def dense_wedge(a, b):
    chart = a.chart
    n, p, q = chart.n, a.rank, b.rank
    if p + q > n:
        return TensorField.zero(chart, "l" * (p + q))
    comps = []
    for idx in _indices(n, p + q):
        total = chart.zero
        for subset in combinations(range(p + q), p):
            left = tuple(idx[i] for i in subset)
            right = tuple(idx[i] for i in range(p + q) if i not in subset)
            # shuffle sign: one inversion per (complement position, later subset position)
            sign = 1
            seen = 0
            for pos in range(p + q):
                if pos in subset:
                    sign = -sign if seen % 2 else sign
                else:
                    seen += 1
            term = a.comps[_flat(n, left)] * b.comps[_flat(n, right)]
            total = total + term if sign == 1 else total - term
        comps.append(total)
    return TensorField(chart, "l" * (p + q), comps)


def dense_hodge_star(w):
    """1/p! sum over the orderings A of each complement of B of
    w^{A} eps_{A B}, raising every index with the diagonal inverse metric."""
    chart = w.chart
    n, p = chart.n, w.rank
    ginv = chart.inverse_metric_diag
    raised = []
    for idx in _indices(n, p):
        v = w.comps[_flat(n, idx)]
        for i in idx:
            v = v * ginv[i]
        raised.append(v)
    inv_pfact = Fraction(1, factorial(p))
    comps = []
    for bidx in _indices(n, n - p):
        total = chart.zero
        if len(set(bidx)) == n - p:
            remaining = [i for i in range(n) if i not in bidx]
            for aperm in permutations(remaining):
                v = raised[_flat(n, aperm)]
                total = total + v if permutation_sign(aperm + bidx) == 1 else total - v
            total = (total * chart.volume_scalar).scale(inv_pfact)
        comps.append(total)
    return TensorField(chart, "l" * (n - p), comps)


def rand_form(chart, p, rng, degree=2):
    n = chart.n
    raw = [random_polynomial(rng, n, degree) for _ in range(n ** p)]
    if p <= 1:
        return TensorField(chart, "l" * p, raw)
    anti = symmetrize_slots(raw, n, p, tuple(range(p)), signed=True, zero=chart.zero)
    return TensorField(chart, "l" * p, anti)


def eta_box(chart, w):
    comps = []
    for c in w.comps:
        acc = chart.zero
        for a in range(chart.n):
            acc = acc + c.derivative(a).derivative(a).scale(chart.eta[a])
        comps.append(acc)
    return TensorField(chart, w.variance, comps)


def test_is_form():
    m = minkowski(4)
    rng = random.Random(0)
    assert is_form(rand_form(m, 2, rng))
    sym = TensorField.metric(m)
    assert not is_form(sym)


def test_d_squared_zero():
    rng = random.Random(1)
    for chart in (minkowski(4), de_sitter(4, 1)):
        for p in range(chart.n + 1):
            w = rand_form(chart, p, rng)
            assert exterior_derivative(exterior_derivative(w)).is_zero()


def test_codifferential_sign_calibration():
    # brute-force the unique consistent sign assignment per dimension
    for n in (2, 3, 4):
        chart = minkowski(n)
        rng = random.Random(11)
        forms = {p: [rand_form(chart, p, rng, degree=2) for _ in range(3)]
                 for p in range(n + 1)}
        solutions = []
        for signs in product((1, -1), repeat=n):
            ok = True
            for p in range(n + 1):
                for w in forms[p]:
                    target = eta_box(chart, w)
                    res = TensorField.zero(chart, "l" * p)
                    if p >= 1:
                        inner = hodge_star(exterior_derivative(hodge_star(w)))
                        dd = exterior_derivative(inner)
                        res = res + (dd if signs[p - 1] == 1 else -dd)
                    if p < n:
                        inner = hodge_star(
                            exterior_derivative(hodge_star(exterior_derivative(w))))
                        res = res + (inner if signs[p] == 1 else -inner)
                    if not all(a == b for a, b in zip(res.comps, target.comps)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                solutions.append(signs)
        assert solutions == [tuple(codifferential_sign(p, n) for p in range(1, n + 1))]


def test_scalar_wave_calibration_minkowski():
    m = minkowski(4)
    rng = random.Random(2)
    f = TensorField.scalar(m, random_polynomial(rng, 4, 3))
    assert box_de_rham(f).comps[0] == eta_box(m, f).comps[0]


def test_box_commutes_with_d():
    rng = random.Random(3)
    for chart in (minkowski(4), de_sitter(4, 1)):
        for p in range(chart.n):
            w = rand_form(chart, p, rng)
            lhs = exterior_derivative(box_de_rham(w))
            rhs = box_de_rham(exterior_derivative(w))
            assert all(a == b for a, b in zip(lhs.comps, rhs.comps)), (chart.kind, p)


def test_box_on_forms_is_componentwise_wave_on_flat():
    m = minkowski(4)
    rng = random.Random(4)
    for p in range(5):
        w = rand_form(m, p, rng)
        assert all(a == b for a, b in zip(box_de_rham(w).comps, eta_box(m, w).comps))


def test_star_star_sign():
    # ** = (-1)^{p(n-p)} * sign(det eta) on p-forms
    m = minkowski(4)
    rng = random.Random(5)
    for p in range(5):
        w = rand_form(m, p, rng)
        ss = hodge_star(hodge_star(w))
        sign = (-1) ** (p * (4 - p)) * (-1)
        expected = w if sign == 1 else -w
        assert all(a == b for a, b in zip(ss.comps, expected.comps))


def test_star_volume_normalization():
    # star of 1 is the volume form; star of the volume form is -1 (Lorentzian)
    ds = de_sitter(4, 1)
    one = TensorField.scalar(ds, ds.one)
    vol = hodge_star(one)
    assert vol.get(0, 1, 2, 3) == ds.volume_scalar
    back = hodge_star(vol)
    assert back.comps[0] == -ds.one


def test_wedge_one_forms():
    m = minkowski(4)
    rng = random.Random(6)
    a, b = rand_form(m, 1, rng), rand_form(m, 1, rng)
    w = wedge(a, b)
    for i in range(4):
        for j in range(4):
            assert w.get(i, j) == a.comps[i] * b.comps[j] - a.comps[j] * b.comps[i]


def test_wedge_graded_leibniz():
    m = minkowski(4)
    rng = random.Random(7)
    a = rand_form(m, 1, rng)
    c = rand_form(m, 2, rng)
    lhs = exterior_derivative(wedge(a, c))
    rhs = wedge(exterior_derivative(a), c) - wedge(a, exterior_derivative(c))
    assert all(x == y for x, y in zip(lhs.comps, rhs.comps))


def test_wedge_associative():
    ds = de_sitter(4, 1)
    rng = random.Random(8)
    a, b, c = (rand_form(ds, 1, rng) for _ in range(3))
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert all(x == y for x, y in zip(lhs.comps, rhs.comps))


def test_codifferential_rejects_scalars_and_non_forms():
    m = minkowski(4)
    with pytest.raises(FormError):
        codifferential(TensorField.scalar(m, m.one))
    with pytest.raises(FormError):
        codifferential(TensorField.metric(m))


def rand_lower(chart, p, rng, degree=1):
    """All-lower, with no symmetry."""
    return TensorField(chart, "l" * p,
                       [random_polynomial(rng, chart.n, degree) for _ in range(chart.n ** p)])


def almost_form(chart, rng):
    """A 2-form with one nonzero repeated-index component added: w[1, 1] = x0."""
    w = rand_form(chart, 2, rng, degree=1)
    comps = list(w.comps)
    comps[_flat(chart.n, (1, 1))] = chart.coordinate(0)
    return TensorField(chart, "ll", comps)


def oracle_inputs(chart, seed):
    rng = random.Random(seed)
    inputs = []
    for p in range(chart.n + 1):
        inputs.append(rand_form(chart, p, rng, degree=1))
        inputs.append(rand_lower(chart, p, rng))
    inputs.append(almost_form(chart, rng))
    return inputs


ORACLE_CHARTS = [minkowski(3), de_sitter(3, 1), minkowski(4), de_sitter(4, Fraction(2, 3))]


def _same(x, y):
    return x.variance == y.variance and x.comps == y.comps


@pytest.mark.parametrize("chart", ORACLE_CHARTS, ids=lambda c: f"{c.kind.value}{c.n}")
def test_operators_equal_the_dense_oracles(chart):
    inputs = oracle_inputs(chart, seed=chart.n)
    assert [is_form(w) for w in inputs] == [dense_is_form(w) for w in inputs]
    assert [is_form(w) for w in inputs].count(False) == chart.n  # ranks >= 2, plus one
    for w in inputs:
        assert _same(exterior_derivative(w), dense_exterior_derivative(w)), w.rank
        assert _same(hodge_star(w), dense_hodge_star(w)), w.rank
    for a, b in product(inputs, repeat=2):
        if a.rank + b.rank <= chart.n + 1:
            assert _same(wedge(a, b), dense_wedge(a, b)), (a.rank, b.rank)


def test_oracles_see_the_repeated_index_component():
    m = minkowski(4)
    w = almost_form(m, random.Random(12))
    assert not is_form(w) and not dense_is_form(w)
    star = hodge_star(w)
    assert _same(star, dense_hodge_star(w))
    # the antisymmetric part ignores the repeated index entirely
    clean = TensorField(m, "ll", [m.zero if i == _flat(4, (1, 1)) else c
                                  for i, c in enumerate(w.comps)])
    assert _same(star, hodge_star(clean))
    # d is a plain signed sum of derivatives, so it does see it
    assert (exterior_derivative(w) - exterior_derivative(clean)).get(0, 1, 1) == m.one
    assert _same(exterior_derivative(w), dense_exterior_derivative(w))

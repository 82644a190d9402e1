"""Exterior calculus on chart forms: d, wedge, Hodge star, codifferential.

Forms are antisymmetric all-lower :class:`TensorField` values stored
densely.  The Hodge star uses the exact volume scalar Omega^n (with
|det eta| = 1) and the orientation x0,...,x_{n-1}; the codifferential is
a per-degree sign times star-d-star, with the signs fixed once by the
calibration requirement that d delta + delta d act on flat scalars as
eta^{ab} d_a d_b (wave-operator principal part, not the Riemannian
Laplacian sign).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .tensors import TensorField, _flat, _indices, raise_first_index
from .young import _index_table, permutation_sign


class FormError(ValueError):
    pass


def is_form(w: TensorField) -> bool:
    """All-lower and antisymmetric in every index pair."""
    if "u" in w.variance:
        return False
    n = w.chart.n
    r = w.rank
    if r <= 1:
        return True
    for idx in _indices(n, r):
        sidx = tuple(sorted(idx))
        if len(set(idx)) != r:
            if not w.comps[_flat(n, idx)].is_zero():
                return False
            continue
        perm_sign = permutation_sign(idx)
        lhs = w.comps[_flat(n, idx)]
        rhs = w.comps[_flat(n, sidx)]
        if perm_sign == 1:
            if not (lhs == rhs):
                return False
        else:
            if not (lhs == -rhs if not rhs.is_zero() else lhs.is_zero()):
                return False
    return True


def _require_form(w: TensorField) -> None:
    if not is_form(w):
        raise FormError("input is not an antisymmetric all-lower tensor field")


def exterior_derivative(w: TensorField) -> TensorField:
    """(dw)[i_0..i_p] = sum_j (-1)^j d_{i_j} w[i_0..^i_j..i_p]."""
    chart = w.chart
    n = chart.n
    p = w.rank
    if p >= n:
        return TensorField.zero(chart, "l" * (p + 1))
    comps = []
    for idx in _indices(n, p + 1):
        total = chart.zero
        for j in range(p + 1):
            rest = idx[:j] + idx[j + 1:]
            v = w.comps[_flat(n, rest)]
            if not v.is_zero():
                dv = v.derivative(idx[j])
                if not dv.is_zero():
                    total = total + dv if j % 2 == 0 else total - dv
        comps.append(total)
    return TensorField(chart, "l" * (p + 1), comps)


def wedge(a: TensorField, b: TensorField) -> TensorField:
    """(a ^ b)[I] = sum over p-element position subsets S of sign(S) a[I_S] b[I_Sc]."""
    chart = a.chart
    n = chart.n
    p, qdeg = a.rank, b.rank
    if p + qdeg > n:
        return TensorField.zero(chart, "l" * (p + qdeg))
    from itertools import combinations
    comps = []
    for idx in _indices(n, p + qdeg):
        total = chart.zero
        for subset in combinations(range(p + qdeg), p):
            in_subset = set(subset)
            left = tuple(idx[i] for i in subset)
            right = tuple(idx[i] for i in range(p + qdeg) if i not in in_subset)
            av = a.comps[_flat(n, left)]
            if av.is_zero():
                continue
            bv = b.comps[_flat(n, right)]
            if bv.is_zero():
                continue
            # shuffle sign: inversions between the subset and its complement
            sign = 1
            non_subset_seen = 0
            for pos in range(p + qdeg):
                if pos in in_subset:
                    if non_subset_seen % 2 == 1:
                        sign = -sign
                else:
                    non_subset_seen += 1
            term = av * bv
            total = total + term if sign == 1 else total - term
        comps.append(total)
    return TensorField(chart, "l" * (p + qdeg), comps)


def hodge_star(w: TensorField) -> TensorField:
    """(star w)[B] = 1/p! w^{A} eps_{A B} with eps the exact volume tensor."""
    chart = w.chart
    n = chart.n
    p = w.rank
    if p > n:
        raise FormError(f"form degree {p} exceeds chart dimension {n}")
    # raise all indices (diagonal inverse metric)
    raised = w
    for _ in range(p):
        raised = raise_first_index(raised)
        # rotate the fresh upper index to the back so each lower slot gets raised
        raised = _rotate_first_to_last(raised)
    vol = chart.volume_scalar
    inv_pfact = Fraction(1, _factorial(p))
    comps = []
    for bidx in _indices(n, n - p):
        if len(set(bidx)) != n - p:
            comps.append(chart.zero)
            continue
        remaining = [i for i in range(n) if i not in set(bidx)]
        total = chart.zero
        for aperm in permutations(remaining):
            v = raised.comps[_flat(n, aperm)]
            if v.is_zero():
                continue
            sign = permutation_sign(tuple(aperm) + tuple(bidx))
            total = total + v if sign == 1 else total - v
        total = (total * vol).scale(inv_pfact)
        comps.append(total)
    return TensorField(chart, "l" * (n - p), comps)


def _rotate_first_to_last(t: TensorField) -> TensorField:
    """T'[i_1, .., i_{r-1}, i_0] = T[i_0, i_1, .., i_{r-1}]."""
    r = t.rank
    table = _index_table(t.chart.n, r, (r - 1,) + tuple(range(r - 1)))
    return TensorField(t.chart, t.variance[1:] + t.variance[:1], [t.comps[i] for i in table])


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def codifferential_sign(p: int, n: int) -> int:
    """Per-degree sign s with delta = s * star d star on p-forms.

    Fixed by calibration: (d delta + delta d) must act on flat forms in
    every degree as eta^{ab} d_a d_b (wave-operator principal part).  On
    signature (-,+,...,+) the unique solution for n = 2, 3, 4 is
    (-1)^{n(p+1)+1}, re-derived by brute force in the test suite.
    """
    return -1 if (n * (p + 1) + 1) % 2 else 1


def codifferential(w: TensorField) -> TensorField:
    """delta = sign(p, n) * star d star, mapping p-forms to (p-1)-forms."""
    _require_form(w)
    p = w.rank
    if p == 0:
        raise FormError("the codifferential of a 0-form does not exist")
    s = codifferential_sign(p, w.chart.n)
    out = hodge_star(exterior_derivative(hodge_star(w)))
    return out if s == 1 else -out


def box_de_rham(w: TensorField) -> TensorField:
    """The wave operator d delta + delta d on forms."""
    _require_form(w)
    p = w.rank
    n = w.chart.n
    if p == 0:
        return codifferential(exterior_derivative(w))
    if p == n:
        return exterior_derivative(codifferential(w))
    return exterior_derivative(codifferential(w)) + codifferential(exterior_derivative(w))

"""Exterior calculus on chart forms: d, wedge, Hodge star, codifferential.

Forms are antisymmetric all-lower :class:`TensorField` values stored
densely.  Every operator is a signed sum of slot permutations evaluated by
:func:`causalcoh.tensors.pattern_sum`, or reads and fills the orbits of
the column diagram (1,...,1) of :func:`causalcoh.young.orbits`, whose
canonical indices are the sorted index subsets.  The Hodge star uses the
exact volume scalar Omega^n (with |det eta| = 1) and the orientation
x0,...,x_{n-1}; the codifferential is a per-degree sign times star-d-star,
with the signs fixed once by the calibration requirement that
d delta + delta d act on flat scalars as eta^{ab} d_a d_b (wave-operator
principal part, not the Riemannian Laplacian sign).
"""

from __future__ import annotations

from itertools import combinations
from string import ascii_lowercase

from .tensors import UPPER, TensorField, partial_tensor, pattern_sum, project
from .young import YoungDiagram, is_symmetric, orbits, permutation_sign


class FormError(ValueError):
    pass


def _column(p: int) -> YoungDiagram | None:
    """The diagram of p-forms: one column, antisymmetric in all p slots;
    None for 0-forms, which have no slots.  The canonical indices of its
    orbits are the sorted p-subsets."""
    return YoungDiagram((1,) * p) if p else None


def _shuffle(subset: tuple, k: int) -> tuple:
    """The sorted subset of range(k) followed by its sorted complement."""
    return subset + tuple(i for i in range(k) if i not in subset)


def is_form(w: TensorField) -> bool:
    """All-lower and antisymmetric in every index pair."""
    if UPPER in w.variance:
        return False
    return w.rank <= 1 or is_symmetric(w.comps, w.chart.n, _column(w.rank), w.chart.zero)


def _require_form(w: TensorField) -> None:
    if not is_form(w):
        raise FormError("input is not an antisymmetric all-lower tensor field")


def exterior_derivative(w: TensorField) -> TensorField:
    """(dw)[i_0..i_p] = sum_j (-1)^j d_{i_j} w[i_0..^i_j..i_p]."""
    p = w.rank
    if p >= w.chart.n:
        return TensorField.zero(w.chart, "l" * (p + 1))
    s = ascii_lowercase[:p + 1]
    return pattern_sum(partial_tensor(w),
                       {s[j] + s[:j] + s[j + 1:]: (-1) ** j for j in range(p + 1)})


def wedge(a: TensorField, b: TensorField) -> TensorField:
    """(a ^ b)[I] = sum over p-element position subsets S of sign(S) a[I_S] b[I_Sc]."""
    chart = a.chart
    k = a.rank + b.rank
    if k > chart.n:
        return TensorField.zero(chart, "l" * k)
    outer = [x * y for x in a.comps for y in b.comps]
    s = ascii_lowercase[:k]
    words = {}
    for subset in combinations(range(k), a.rank):
        perm = _shuffle(subset, k)
        words["".join(s[i] for i in perm)] = permutation_sign(perm)
    return pattern_sum(TensorField(chart, "l" * k, outer), words)


def hodge_star(w: TensorField) -> TensorField:
    """(star w)[B] = 1/p! w^{A} eps_{A B} with eps the exact volume tensor.

    Only the antisymmetric part of w contributes, once per sorted p-subset
    A: (star w)[B] = sign(A B) Omega^n prod_{a in A} g^{aa} w[A] for the
    sorted complement B of A.  The sorted complements of the (n-p)-subsets
    in lexicographic order are the p-subsets in reverse order.
    """
    chart = w.chart
    n = chart.n
    p = w.rank
    if p > n:
        raise FormError(f"form degree {p} exceeds chart dimension {n}")
    anti = project(w, _column(p)).comps if p > 1 else w.comps
    ginv = chart.inverse_metric_diag
    vol = chart.volume_scalar
    values = []
    for subset, flat in zip(combinations(range(n), p), orbits(n, p, _column(p)).canonical):
        v = anti[flat]
        if not v.is_zero():
            for a in subset:
                v = v * ginv[a]
            v = v * vol
            if permutation_sign(_shuffle(subset, n)) < 0:
                v = -v
        values.append(v)
    values.reverse()
    dual = orbits(n, n - p, _column(n - p))
    return TensorField(chart, "l" * (n - p), dual.fill_from(values, chart.zero))


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
    if w.rank == 0:
        raise FormError("the codifferential of a 0-form does not exist")
    return _codifferential(w)


def _codifferential(w: TensorField) -> TensorField:
    # unchecked: box_de_rham checks its input once, and d of a form is a form
    s = codifferential_sign(w.rank, w.chart.n)
    out = hodge_star(exterior_derivative(hodge_star(w)))
    return out if s == 1 else -out


def box_de_rham(w: TensorField) -> TensorField:
    """The wave operator d delta + delta d on forms."""
    _require_form(w)
    p = w.rank
    n = w.chart.n
    if p == 0:
        return _codifferential(exterior_derivative(w))
    if p == n:
        return exterior_derivative(_codifferential(w))
    return exterior_derivative(_codifferential(w)) + _codifferential(exterior_derivative(w))

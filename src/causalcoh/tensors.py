"""Dense tensor fields with exact Laurent-polynomial components.

Components are stored densely with the flat index
``(((i_0 * n) + i_1) * n + ...) + i_{r-1}``; desk scale (n <= 4, rank <= 7)
keeps this comfortably small.  One kernel computes a component of the
covariant derivative: :func:`nabla` maps it over its canonical indices, and
:func:`box_tensor` applies it to nabla T at the diagonal components
(c, c, J).  It exploits the sparsity of conformally flat Christoffel
symbols: the corrections iterate over the O(n) nonzero symbols of the
chart's pull tables instead of the dense n^3 cube.

Storage is dense, but computation follows the ``symmetry`` tag.  A tag is
a signed slot group, the frozenset of pairs (w, s) with t[I o w] = s * t[I]
(:func:`causalcoh.young.slot_group`); a Young diagram given as a tag is
converted to its group once, and the trivial group is stored as None.
:func:`nabla`, :func:`box_tensor`, :func:`trace_pair`, :func:`project` and
a :func:`pattern_sum` with a declared symmetry evaluate one canonical index
per orbit of the group (:func:`causalcoh.young.orbits`) and fill the
rest of the orbit with signed copies; an untagged field has the trivial
group and every index is evaluated.  A wrong tag therefore gives wrong
components, so the tag is set only on output that is symmetric by
construction: projections, declared pattern sums, the box of a tagged
field, sums and multiples of fields with equal tags, and the groups that
survive a derivative or a trace.  nabla T carries T's group on its last
slots, and a trace the elements that map the contracted pair onto
itself: at n = 4 the divergence in the level-4 Calabi homotopy is
evaluated at 24 of its 1024 components, and the covariant derivative of
its trace at 64 of 1024.

Index permutations are never spelled out as flat-index arithmetic:
:func:`pattern_sum` writes a signed sum of slot permutations as letter
patterns, ``{"abc": 1, "bac": 1}`` for t_abc + t_bac, and evaluates it
through the orbit tables of :mod:`causalcoh.young`, which hold the layout
above in one place.  The metric products ``odot`` are such sums over the
outer product g_xy t_...
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product
from string import ascii_lowercase
from typing import Callable, Sequence

from .charts import Chart
from .polynomials import RationalFunction, sum_of_products
from .young import (YoungDiagram, contracted_group, group_rank, lifted_group, orbits,
                    project_components, slot_combination, slot_group)

LOWER = "l"
UPPER = "u"


class TensorError(ValueError):
    pass


class TensorField:
    """Tensor field on a chart; ``variance`` is a string of 'l'/'u' slots."""

    __slots__ = ("chart", "variance", "comps", "symmetry")

    def __init__(self, chart: Chart, variance: str, comps: Sequence[RationalFunction],
                 symmetry: YoungDiagram | frozenset | None = None):
        self.chart = chart
        self.variance = variance
        n, r = chart.n, len(variance)
        if len(comps) != n ** r:
            raise TensorError(f"expected {n ** r} components, got {len(comps)}")
        group = slot_group(symmetry)
        if group is not None and (group_rank(group) != r or UPPER in variance):
            raise TensorError(f"a {variance!r} tensor cannot carry the symmetry of {symmetry}")
        self.comps = tuple(comps)
        self.symmetry = group

    @property
    def rank(self) -> int:
        return len(self.variance)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, variance: str) -> "TensorField":
        return cls(chart, variance, (chart.zero,) * (chart.n ** len(variance)))

    @classmethod
    def from_function(cls, chart: Chart, variance: str,
                      fn: Callable[[tuple], RationalFunction]) -> "TensorField":
        n, r = chart.n, len(variance)
        comps = [fn(idx) for idx in product(range(n), repeat=r)]
        return cls(chart, variance, comps)

    @classmethod
    def scalar(cls, chart: Chart, value: RationalFunction) -> "TensorField":
        return cls(chart, "", (value,))

    @classmethod
    def metric(cls, chart: Chart) -> "TensorField":
        return cls(chart, "ll", chart.metric, symmetry=YoungDiagram((2,)))

    @classmethod
    def inverse_metric(cls, chart: Chart) -> "TensorField":
        return cls(chart, "uu", chart.inverse_metric)

    # -- access -----------------------------------------------------------

    def get(self, *idx: int) -> RationalFunction:
        return self.comps[_flat(self.chart.n, idx)]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorField):
            return NotImplemented
        return (self.chart == other.chart and self.variance == other.variance
                and all(a == b for a, b in zip(self.comps, other.comps)))

    __hash__ = None

    # -- pointwise algebra --------------------------------------------------
    # Sums and multiples keep a tag both operands share; a tagged result is
    # computed once per orbit and filled.

    def _pointwise(self, fn, symmetry, *others) -> "TensorField":
        comps = [self.comps] + [o.comps for o in others]
        orb = orbits(self.chart.n, self.rank, symmetry)
        out = orb.fill_from([fn(*(c[flat] for c in comps)) for flat in orb.canonical],
                            self.chart.zero)
        return TensorField(self.chart, self.variance, out, symmetry=symmetry)

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_compatible(other)
        return self._pointwise(operator.add, self._shared_symmetry(other), other)

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._check_compatible(other)
        return self._pointwise(operator.sub, self._shared_symmetry(other), other)

    def __neg__(self) -> "TensorField":
        return self._pointwise(operator.neg, self.symmetry)

    def scale(self, c) -> "TensorField":
        """c times the field, for an int, a Fraction or a chart scalar c
        (exact scalars only: a float raises ``TypeError``)."""
        if isinstance(c, RationalFunction):
            return self._pointwise(lambda a: a * c, self.symmetry)
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"expected int, Fraction or chart scalar, got {type(c).__name__}")
        return self._pointwise(lambda a: a.scale(c), self.symmetry)

    def _shared_symmetry(self, other: "TensorField") -> frozenset | None:
        return self.symmetry if self.symmetry == other.symmetry else None

    def _check_compatible(self, other: "TensorField") -> None:
        if self.chart != other.chart:
            raise TensorError("tensors live on different charts")
        if self.variance != other.variance:
            raise TensorError(f"variance mismatch: {self.variance} vs {other.variance}")


def _flat(n: int, idx) -> int:
    f = 0
    for i in idx:
        f = f * n + i
    return f


def first_difference(t: TensorField, other_comps) -> str:
    """'' if the components agree, else the index of the first component
    that differs and the residual t - other there."""
    n, r = t.chart.n, t.rank
    for flat, (a, b) in enumerate(zip(t.comps, other_comps)):
        if a != b:
            idx = tuple(flat // n ** (r - 1 - k) % n for k in range(r))
            return f"first differing component {idx}: residual {a - b!r}"
    return ""


# -- covariant derivative ---------------------------------------------------

def partial_tensor(t: TensorField) -> TensorField:
    """Coordinate derivative: one extra lower index, leftmost."""
    n = t.chart.n
    out = []
    for c in range(n):
        out.extend(comp.derivative(c) for comp in t.comps)
    return TensorField(t.chart, LOWER + t.variance, out)


def _derivative_at(t: TensorField) -> Callable[[int], RationalFunction]:
    """The one covariant-derivative kernel: flat -> (nabla_c T)[J] at the
    flat index c * n^r + J of nabla T, with

    (nabla T)[c, J] = d_c T[J] - sum_i Gamma^d_{c J_i} T[J_i -> d]   (lower slots)
                              + sum_i Gamma^{J_i}_{c d} T[J_i -> d]  (upper slots)

    summed over the nonzero symbols of :attr:`Chart.connection_pulls` by
    one :func:`causalcoh.polynomials.sum_of_products`; the slots' place
    values, pull tables and signs are looked up once per kernel.
    """
    chart = t.chart
    n = chart.n
    size = n ** t.rank
    src = t.comps
    lower, upper = chart.connection_pulls
    slots = [(n ** (t.rank - 1 - slot), lower if v == LOWER else upper, -1 if v == LOWER else 1)
             for slot, v in enumerate(t.variance)]

    def at(flat: int) -> RationalFunction:
        c, j = divmod(flat, size)
        products = [(1, src[j].derivative(c), None)]
        for block, pulls, sign in slots:
            digit = j // block % n
            for other, gamma in pulls.get((c, digit), ()):
                u = src[j + (other - digit) * block]
                if u.terms:
                    products.append((sign, gamma, u))
        return sum_of_products(n, products)

    return at


def nabla(t: TensorField) -> TensorField:
    """Covariant derivative (extra lower index, leftmost), exact.

    nabla T has T's slot symmetries on its last slots, so the kernel is
    evaluated at one (c, J) per orbit, filled, and tagged with the lifted
    group.
    """
    group = None if t.symmetry is None else lifted_group(t.symmetry)
    orb = orbits(t.chart.n, t.rank + 1, group)
    values = list(map(_derivative_at(t), orb.canonical))
    return TensorField(t.chart, LOWER + t.variance, orb.fill_from(values, t.chart.zero),
                       symmetry=group)


def box_tensor(t: TensorField) -> TensorField:
    """g^{cb} nabla_c nabla_b T for an all-lower tensor field.

    The second derivative is the kernel applied to nabla T, at the
    components (c, c, J) of the nonzero entries g^{cc} of the (diagonal)
    inverse metric, and at one J per slot-symmetry orbit of T; the output
    keeps T's symmetry tag.
    """
    if UPPER in t.variance:
        raise TensorError("box is implemented for all-lower tensors")
    chart = t.chart
    n = chart.n
    size = n ** t.rank
    second = _derivative_at(nabla(t))
    diagonal = [((c * n + c) * size, g) for c, g in enumerate(chart.inverse_metric_diag)
                if not g.is_zero()]
    orb = orbits(n, t.rank, t.symmetry)
    values = []
    for j in orb.canonical:
        products = []
        for offset, g in diagonal:
            v = second(offset + j)
            if v.terms:
                products.append((1, g, v))
        values.append(sum_of_products(n, products))
    return TensorField(chart, t.variance, orb.fill_from(values, chart.zero),
                       symmetry=t.symmetry)


# -- metric contractions -----------------------------------------------------

def trace_pair(t: TensorField, i: int, j: int) -> TensorField:
    """Contract two lower slots with the inverse metric: g^{ab} T[..a@i..b@j..].

    The trace keeps the slot symmetries of T that map the pair {i, j} onto
    itself (:func:`causalcoh.young.contracted_group`), so it is evaluated
    at one index per orbit of that group, filled and tagged with it.
    """
    if i == j:
        raise TensorError("trace slots must differ")
    if t.variance[i] != LOWER or t.variance[j] != LOWER:
        raise TensorError("trace_pair contracts lower slots")
    chart = t.chart
    n = chart.n
    r = t.rank
    i, j = min(i, j), max(i, j)
    new_var = "".join(v for k, v in enumerate(t.variance) if k not in (i, j))
    group = None if t.symmetry is None else contracted_group(t.symmetry, i, j)
    orb = orbits(n, r - 2, group)
    # the flat index of T at output digits K with a in slots i and j is
    # base(K) + a * step
    weights = [n ** (r - 1 - k) for k in range(r) if k not in (i, j)]
    step = n ** (r - 1 - i) + n ** (r - 1 - j)
    diagonal = [(a * step, g) for a, g in enumerate(chart.inverse_metric_diag) if not g.is_zero()]
    comps = t.comps
    values = []
    for digits in orb.digits:
        base = sum(map(operator.mul, digits, weights))
        products = []
        for offset, g in diagonal:
            v = comps[base + offset]
            if v.terms:
                products.append((1, g, v))
        values.append(sum_of_products(n, products))
    return TensorField(chart, new_var, orb.fill_from(values, chart.zero), symmetry=group)


# -- signed sums of slot permutations -----------------------------------------

def pattern_sum(t: TensorField, patterns: dict[str, int],
                symmetry: YoungDiagram | None = None) -> TensorField:
    """out_{ab...} = sum over ``patterns`` of c * t_{pattern}, c an int.

    A pattern is a word in the first ``t.rank`` letters, each used once;
    the output's slots are those letters in alphabetical order, so
    ``{"abc": 1, "bac": 1}`` is t_abc + t_bac.  ``t`` is all-lower.  A
    ``symmetry`` declares that the sum has that diagram's slot symmetries
    whenever ``t`` has the symmetry its operator expects; the sum is then
    evaluated once per orbit and the output carries the tag.
    """
    if UPPER in t.variance:
        raise TensorError("pattern sums permute lower slots only")
    letters = ascii_lowercase[:t.rank]
    for word in patterns:
        if "".join(sorted(word)) != letters:
            raise TensorError(f"pattern {word!r} is not a permutation of {letters!r}")
    terms = [(tuple(ord(ch) - ord("a") for ch in word), c) for word, c in patterns.items()]
    comps = slot_combination(t.comps, t.chart.n, t.rank, terms, t.chart.zero, symmetry)
    return TensorField(t.chart, t.variance, comps, symmetry=symmetry)


# -- symmetrized products with the metric ------------------------------------

ODOT_SHAPES = ("s2s2", "s2_21", "s2_211")

# shape -> (input rank, sign of the input's (0, 1) swap, output symmetry,
# patterns over the outer product g_xy t_...)
_ODOT = {
    "s2s2": (2, 1, YoungDiagram((2, 2)),
             {"acbd": 1, "bcad": -1, "adbc": -1, "bdac": 1}),
    "s2_21": (3, -1, YoungDiagram((2, 2, 1)),
              {"adbce": 1, "bdcae": 1, "cdabe": 1,
               "aebcd": -1, "becad": -1, "ceabd": -1}),
    "s2_211": (4, -1, YoungDiagram((2, 2, 1, 1)),
               {"aebcdf": 1, "becdaf": -1, "cedabf": 1, "deabcf": -1,
                "afbcde": -1, "bfcdae": 1, "cfdabe": -1, "dfabce": 1}),
}


def odot(chart: Chart, t: TensorField, shape: str) -> TensorField:
    """The metric-symmetrized products used by the constant-curvature complex.

    ``s2s2``  : symmetric h_bd -> (g@h)_abcd = g_ac h_bd - g_bc h_ad - g_ad h_bc + g_bd h_ac
    ``s2_21`` : t_{bc:e} (antisymmetric pair + single) -> rank 5 of type (2,2,1),
                g_ad t_bce + g_bd t_cae + g_cd t_abe - (d <-> e)
    ``s2_211``: t_{bcd:e} (antisymmetric triple + single) -> rank 6 of type (2,2,1,1),
                g_ae t_bcdf - g_be t_cdaf + g_ce t_dabf - g_de t_abcf - (e <-> f)

    Each is a pattern sum over the outer product g_xy t_...
    """
    if shape not in _ODOT:
        raise TensorError(f"unknown odot shape {shape!r}; expected one of {ODOT_SHAPES}")
    rank, sign, diagram, patterns = _ODOT[shape]
    if t.rank != rank:
        raise TensorError(f"{shape} expects a rank-{rank} input")
    _require_symmetry(t, sign)
    zero = chart.zero
    gt = [zero if g.is_zero() else g * v for g in chart.metric for v in t.comps]
    return pattern_sum(TensorField(chart, "l" * (rank + 2), gt), patterns, symmetry=diagram)


def _require_symmetry(t: TensorField, sign: int) -> None:
    """Cheap input check: slots 0 and 1 symmetric (+1) or antisymmetric (-1)."""
    if pattern_sum(t, {"ba" + ascii_lowercase[2:t.rank]: sign}).comps != t.comps:
        kind = "symmetry" if sign == 1 else "antisymmetry"
        raise TensorError(f"input lacks the required pair {kind}")


def project(t: TensorField, diagram: YoungDiagram) -> TensorField:
    """Apply the Young-symmetry projector of ``diagram`` to a tensor field."""
    if t.rank != diagram.cells:
        raise TensorError(
            f"diagram with {diagram.cells} cells cannot project a rank-{t.rank} tensor")
    comps = project_components(t.comps, t.chart.n, diagram, t.chart.zero)
    return TensorField(t.chart, t.variance, comps, symmetry=diagram)


# kind -> (input rank, contracted slots)
_TRACE = {"h": (2, (0, 1)), "r": (4, (1, 3)), "b3": (5, (2, 4)), "b4": (6, (3, 5))}

TRACE_KINDS = tuple(_TRACE)


def trace(t: TensorField, kind: str) -> TensorField:
    """The printed metric traces of the constant-curvature complex.

    ``h``  : scalar tr h = h_e^e           (rank 2 -> scalar)
    ``r``  : tr[r]_ab = r_{ae:b}^e         (rank 4 -> rank 2)
    ``b3`` : tr[b]_{ab:c} = b_{abe:c}^e    (rank 5 -> rank 3)
    ``b4`` : tr[b]_{abc:d} = b_{abce:d}^e  (rank 6 -> rank 4)
    """
    if kind not in _TRACE:
        raise TensorError(f"unknown trace kind {kind!r}; expected one of {TRACE_KINDS}")
    rank, pair = _TRACE[kind]
    if t.rank != rank:
        raise TensorError(f"trace kind {kind!r} expects rank {rank}")
    return trace_pair(t, *pair)

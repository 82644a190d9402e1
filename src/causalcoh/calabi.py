"""The Killing-Riemann-Bianchi (Calabi) complex on constant-curvature charts.

Levels 0..n carry tensor bundles of Young symmetry types
(1), (2), (2,2), (2,2,1), (2,2,1,1), connected by first-order
antisymmetrized-derivative operators ``calabi_diff`` (level l-1 -> l).
Second-order wave-type cochain maps ``calabi_wave`` act level-wise and are
null-homotopic with witness ``calabi_homotopy`` (level l -> l-1):

    wave_l = homotopy_{l+1} o diff_{l+1} + diff_l o homotopy_l,

with the edge cases wave_0 = homotopy_1 o diff_1 and
wave_n = diff_n o homotopy_n.  All identities are verified as exact
Laurent-polynomial equalities on seeded random polynomial fields.

The level-4 differential is the antisymmetrized derivative
4 nabla_[a b_{bcd]:ef}; expanded on a tensor antisymmetric in its first
three slots this is
nabla_a b_{bcd} - nabla_b b_{cda} + nabla_c b_{dab} - nabla_d b_{abc}
(the + on the third term is forced by the complex property, which the
verification suite checks machine-exactly).

Every operator is written as the slot-pattern sum of its formula
(:func:`causalcoh.tensors.pattern_sum`) over nabla T, nabla nabla T, the
divergence ``trace_pair(nabla(T), 0, 1)`` and the metric products ``odot``:
``{"abcdef": 1, "bcdaef": -1, ...}`` is the expansion above, term by term.
No operator here computes a flat component index; the layout lives in the
orbit tables of :mod:`causalcoh.young`.

Fields are stored densely but computed per slot-symmetry orbit.  Every
field of the corpus and every operator output carries its level's
``symmetry`` tag, and a tag decides what is computed: nabla, box and the
traces of a tagged field, and each pattern sum declared with the level's
diagram, are evaluated at one canonical index per orbit and filled with
signed copies; nabla and the traces keep the slot symmetries that survive
them, so the divergences and nabla tb of the homotopies are too.
The tag is set only where the output has the symmetry by construction,
given an input of its level's type: the diagram's slot symmetries permute
the terms of each declared sum among themselves, with their signs, and
every other output inherits its tag from the operators it is built from,
since a sum keeps a tag its terms share.  An untagged input therefore
gives an untagged output, evaluated at every index.  The
``check_symmetries`` battery checks every output against its Young
projection.  The jet oracle :func:`linearized_riemann`
reads components by their flat index directly, so it stays independent of
the kernel behind the operators it checks.  :func:`killing_system` applies
the operators themselves, n + 1 times per unknown component, and builds
its columns by the Leibniz rule.

The restricted-support table :func:`calabi_table` has no degree
bookkeeping of its own.  It is the slice's de Rham table
(:func:`causalcoh.causal.full_table`) with Killing and Killing-Yano
coefficients, which enter at the slice profile, and it is gated by
:func:`causalcoh.causal.pairing_audit`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm

from .causal import CohomologyTable, SpacetimeModel, SupportClass, full_table, pairing_audit
from .charts import (Chart, ChartKind, christoffel_from_metric, de_sitter, lower_last_index,
                     minkowski, riemann_from_christoffel)
from .linalg import sparse_rank
from .polynomials import RationalFunction, monomial_key, monomial_shift
from .simplicial import CohomologyProfile, preset_profile
from .tensors import (TensorField, box_tensor, first_difference, nabla, odot, partial_tensor,
                      pattern_sum, trace, trace_pair)
from .young import CALABI_DIAGRAMS, YoungDiagram, is_symmetric, project_components


class CalabiError(ValueError):
    pass


class CalabiIndexingError(CalabiError):
    """Raised when the support-class table of the complex fails a gate."""


@dataclass(frozen=True)
class CalabiField:
    """A level-l field: covariant tensor of the level's symmetry type.

    The natural realizations are used, so the rank equals the cell count of
    the level's diagram: covectors (1), symmetric 2-tensors (2), then
    curvature-type ranks 4, 5, 6.
    """

    level: int
    field: TensorField

    def __post_init__(self):
        if not 0 <= self.level <= 4:
            raise CalabiError(f"level {self.level} outside [0, 4]")
        expected_rank = CALABI_DIAGRAMS[self.level].cells
        if self.field.rank != expected_rank:
            raise CalabiError(
                f"level {self.level} field must have rank {expected_rank}, "
                f"got {self.field.rank}")

    @classmethod
    def checked(cls, level: int, field: TensorField) -> "CalabiField":
        """Construct and verify the level's symmetry (raises on violation)."""
        out = cls(level, field)
        if not out.check_symmetry():
            raise CalabiError(
                f"field is not invariant under the level-{level} symmetry projector")
        return out

    @property
    def chart(self) -> Chart:
        return self.field.chart

    def diagram(self) -> YoungDiagram:
        return CALABI_DIAGRAMS[self.level]

    def check_symmetry(self) -> bool:
        return is_symmetric(self.field.comps, self.chart.n, self.diagram(),
                            self.chart.zero)

    def is_zero(self) -> bool:
        return self.field.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CalabiField):
            return NotImplemented
        return self.level == other.level and self.field == other.field


def field_rank(level: int) -> int:
    return CALABI_DIAGRAMS[level].cells


# -- the differentials diff_l : level l-1 -> level l -------------------------

def calabi_diff(f: CalabiField) -> CalabiField:
    """Apply diff_{l+1} to a level-l field (Killing, curvature-linearization,
    Bianchi and higher-Bianchi operators for l = 0..3)."""
    level = f.level
    chart = f.chart
    if level >= 4:
        raise CalabiError("no differential out of the top level")
    t = f.field
    if level == 0:
        # (diff_1 v)_ab = nabla_a v_b + nabla_b v_a
        return CalabiField(1, pattern_sum(nabla(t), {"ab": 1, "ba": 1}, CALABI_DIAGRAMS[1]))
    if level == 1:
        return CalabiField(2, _diff2(chart, t))
    if level == 2:
        return CalabiField(3, _diff3(t))
    return CalabiField(4, _diff4(t))


def _diff2(chart: Chart, h: TensorField) -> TensorField:
    """(diff_2 h)_{ab:cd} = 1/2 (S_ac h_bd - S_bc h_ad - S_ad h_bc + S_bd h_ac)
    + k/(n(n-1)) (g (.) h), with S_xy h = (nabla_x nabla_y + nabla_y nabla_x) h.

    Both normalizations are forced by machine verification: the halved
    derivative part provably breaks the level-1 homotopy identity on flat
    charts, and the halved curvature term breaks diff_2 o diff_1 = 0 on
    curved ones."""
    n = chart.n
    out = pattern_sum(nabla(nabla(h)), {"acbd": 1, "cabd": 1, "bcad": -1, "cbad": -1,
                                        "adbc": -1, "dabc": -1, "bdac": 1, "dbac": 1},
                      CALABI_DIAGRAMS[2]).scale(Fraction(1, 2))
    k = chart.scalar_curvature
    if k:
        gh = odot(chart, h, "s2s2")
        out = out + gh.scale(Fraction(k, n * (n - 1)))
    return out


def _diff3(r: TensorField) -> TensorField:
    """(diff_3 r)_{abc:de} = nabla_a r_{bc:de} + nabla_b r_{ca:de} + nabla_c r_{ab:de}."""
    return pattern_sum(nabla(r), {"abcde": 1, "bcade": 1, "cabde": 1}, CALABI_DIAGRAMS[3])


def _diff4(b: TensorField) -> TensorField:
    """(diff_4 b)_{abcd:ef} = nabla_a b_{bcd:ef} - nabla_b b_{cda:ef}
    + nabla_c b_{dab:ef} - nabla_d b_{abc:ef} (= 4 nabla_[a b_{bcd]:ef})."""
    return pattern_sum(nabla(b), {"abcdef": 1, "bcdaef": -1, "cdabef": 1, "dabcef": -1},
                       CALABI_DIAGRAMS[4])


# -- the homotopies homotopy_l : level l -> level l-1 ------------------------

def calabi_homotopy(f: CalabiField) -> CalabiField:
    """Apply the divergence-type homotopy homotopy_l to a level-l field."""
    level = f.level
    if level == 0:
        raise CalabiError("no homotopy out of level 0")
    t = f.field
    if level == 1:
        # homotopy_1[h]_a = nabla^b h_ab - 1/2 nabla_a tr h
        out = trace_pair(nabla(t), 0, 2) - partial_tensor(trace(t, "h")).scale(Fraction(1, 2))
        return CalabiField(0, out)
    if level == 2:
        # homotopy_2[r]_ab = r_{ac:b}^c
        return CalabiField(1, trace(t, "r"))
    if level == 3:
        return CalabiField(2, _homotopy3(t))
    return CalabiField(3, _homotopy4(t))


def _homotopy3(b: TensorField) -> TensorField:
    """homotopy_3[b]_{ab:cd} = 1/2 (nabla^e b_{eab:cd} + nabla^e b_{ecd:ab})
    - 1/2 (nabla_a tb_{cd:b} - nabla_b tb_{cd:a} + nabla_c tb_{ab:d} - nabla_d tb_{ab:c}),
    with tb_{xy:z} = b_{xye:z}^e.

    Each of the two sums has the (2,2) slot symmetries on its own: b is
    antisymmetric in its first three slots and tb in its first two."""
    div = trace_pair(nabla(b), 0, 1)
    ntb = nabla(trace(b, "b3"))
    diagram = CALABI_DIAGRAMS[2]
    out = (pattern_sum(div, {"abcd": 1, "cdab": 1}, diagram)
           - pattern_sum(ntb, {"acdb": 1, "bcda": -1, "cabd": 1, "dabc": -1}, diagram))
    return out.scale(Fraction(1, 2))


def _homotopy4(b: TensorField) -> TensorField:
    """homotopy_4[b]_{abc:de} = 1/3 (2 nabla^f b_{fabc:de} + nabla^f b_{fdea:bc}
    + nabla^f b_{fdeb:ca} + nabla^f b_{fdec:ab})
    + 1/6 (2 nabla_d tb_{abc:e} - 2 nabla_e tb_{abc:d}
           - nabla_a tb_{deb:c} + nabla_a tb_{dec:b}
           - nabla_b tb_{dec:a} + nabla_b tb_{dea:c}
           - nabla_c tb_{dea:b} + nabla_c tb_{deb:a}),
    with tb_{xyz:w} = b_{xyzf:w}^f.

    Each of the two sums has the (2,2,1) slot symmetries on its own: apart
    from the terms already antisymmetric in abc, each is a cyclic sum over
    abc of a tensor antisymmetric in its last two of a, b, c, and b and tb
    are antisymmetric in d, e."""
    div = trace_pair(nabla(b), 0, 1)
    ntb = nabla(trace(b, "b4"))
    diagram = CALABI_DIAGRAMS[3]
    return (pattern_sum(div, {"abcde": 2, "deabc": 1, "debca": 1, "decab": 1}, diagram)
            .scale(Fraction(1, 3))
            + pattern_sum(ntb, {"dabce": 2, "eabcd": -2, "adebc": -1, "adecb": 1,
                                "bdeca": -1, "bdeac": 1, "cdeab": -1, "cdeba": 1}, diagram)
            .scale(Fraction(1, 6)))


# -- the wave-type cochain maps wave_l : level l -> level l ------------------

def calabi_wave(f: CalabiField) -> CalabiField:
    """The wave-type cochain map in closed form at the field's level."""
    level = f.level
    chart = f.chart
    n = chart.n
    k = chart.scalar_curvature
    t = f.field
    boxed = box_tensor(t)
    if level == 0:
        out = boxed + t.scale(Fraction(k, n)) if k else boxed
        return CalabiField(0, out)
    if level == 1:
        out = boxed
        if k:
            coeff = Fraction(2 * k, n * (n - 1))
            trh = trace(t, "h").comps[0]
            gtr = TensorField.metric(chart).scale(trh)
            out = out - t.scale(coeff) + gtr.scale(coeff)
        return CalabiField(1, out)
    if level == 2:
        out = boxed
        if k:
            out = out - t.scale(Fraction(2 * k, n))
            out = out + odot(chart, trace(t, "r"), "s2s2").scale(Fraction(2 * k, n * (n - 1)))
        return CalabiField(2, out)
    if level == 3:
        out = boxed
        if k:
            out = out - t.scale(Fraction(k * (3 * n - 7), n * (n - 1)))
            out = out - odot(chart, trace(t, "b3"), "s2_21").scale(Fraction(2 * k, n * (n - 1)))
        return CalabiField(3, out)
    out = boxed
    if k:
        out = out - t.scale(Fraction(2 * k * (2 * n - 7), n * (n - 1)))
        out = out + odot(chart, trace(t, "b4"), "s2_211").scale(Fraction(2 * k, n * (n - 1)))
    return CalabiField(4, out)


def killing_operator(f: CalabiField) -> CalabiField:
    """The Killing operator: symmetrized covariant derivative of a covector."""
    if f.level != 0:
        raise CalabiError("the Killing operator acts on level-0 fields")
    return calabi_diff(f)


def killing_yano_operator(w: TensorField) -> TensorField:
    """Y[w]_abc = nabla_a w_bc + nabla_b w_ac on an antisymmetric 2-tensor."""
    return pattern_sum(nabla(w), {"abc": 1, "bac": 1})


# -- seeded random field corpus ----------------------------------------------

def random_polynomial(rng: random.Random, nvars: int, degree: int,
                      coeff_bound: int = 3, terms: int = 3) -> RationalFunction:
    """Up to ``terms`` monomials of degree <= ``degree`` with integer
    coefficients in [-coeff_bound, coeff_bound]; a draw over the degree
    bound is skipped without drawing its coefficient.  The draws are those
    of :func:`random_polynomials` with a count of 1."""
    return random_polynomials(rng, nvars, degree, 1, coeff_bound, terms)[0]


def random_polynomials(rng: random.Random, nvars: int, degree: int, count: int,
                       coeff_bound: int = 3, terms: int = 3) -> list[RationalFunction]:
    """``count`` polynomials drawn one after the other as by
    :func:`random_polynomial`, in one loop.

    Exact-stream contract: each exponent is ``rng.randrange(degree + 1)`` and
    each coefficient ``rng.randrange(-coeff_bound, coeff_bound + 1)``, drawn
    as CPython's ``random.Random`` draws them: ``getrandbits(w.bit_length())``
    for a range of width w, repeated while the value is >= w.  So a seed
    gives the same polynomials, and leaves ``rng`` in the same state, as
    the ``randrange`` calls would; only their per-call overhead is gone.
    (A ``random.Random`` subclass whose ``randrange`` does not go through
    ``getrandbits`` gets other draws.)  Monomial keys are packed as the
    exponents are drawn, so no exponent lists are built.
    """
    getrandbits = rng.getrandbits
    width, coeff_width = degree + 1, 2 * coeff_bound + 1
    bits, coeff_bits = width.bit_length(), coeff_width.bit_length()
    one = monomial_key((0,) * nvars)
    steps = [monomial_shift(nvars, [int(i == v) for v in range(nvars)]) for i in range(nvars)]
    out = []
    for _ in range(count):
        poly: dict[int, int] = {}
        for _ in range(terms):
            key, total = one, 0
            for step in steps:
                e = getrandbits(bits)
                while e >= width:
                    e = getrandbits(bits)
                key += e * step
                total += e
            if total > degree:
                continue
            c = getrandbits(coeff_bits)
            while c >= coeff_width:
                c = getrandbits(coeff_bits)
            acc = poly.get(key, 0) + c - coeff_bound
            if acc:
                poly[key] = acc
            else:
                poly.pop(key, None)
        out.append(RationalFunction.from_key_terms(nvars, poly))
    return out


def random_calabi_field(chart: Chart, level: int, rng: random.Random,
                        degree: int = 2) -> CalabiField:
    """Young-projected random polynomial field of the given level.

    One polynomial is drawn per dense component, n^r of them, by
    :func:`random_polynomials`, which keeps the exact ``randrange`` stream:
    a seed gives the same field, bit for bit, and leaves ``rng`` in the
    same state as n^r calls of :func:`random_polynomial`."""
    n = chart.n
    r = field_rank(level)
    raw = random_polynomials(rng, n, degree, n ** r)
    if level == 0:
        return CalabiField(0, TensorField(chart, "l", raw, symmetry=CALABI_DIAGRAMS[0]))
    comps = project_components(raw, n, CALABI_DIAGRAMS[level], chart.zero)
    return CalabiField(level, TensorField(chart, "l" * r, comps,
                                          symmetry=CALABI_DIAGRAMS[level]))


# -- identity verification ----------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    """One verdict; a failed one says in ``detail`` where the two sides of
    the identity first differ."""

    name: str
    level: int
    case: int
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CalabiIdentityReport:
    background: str
    seed: int
    degree_bound: int
    cases: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "background": self.background,
            "seed": self.seed,
            "degree_bound": self.degree_bound,
            "cases": self.cases,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "level": c.level, "case": c.case, "passed": c.passed,
                 **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
        }


def _fields_equal(a: TensorField, b: TensorField) -> bool:
    return all(x == y for x, y in zip(a.comps, b.comps))


def verify_calabi_identities(chart: Chart, seed: int = 42, degree_bound: int = 2,
                             cases: int = 20, check_symmetries: bool = False) -> CalabiIdentityReport:
    """Machine verification of the complex and null-homotopy identities.

    For seeded random Young-projected polynomial fields: the composition of
    consecutive differentials vanishes (levels 1..3), the homotopy identity
    holds at levels 1..3 and at both edges, all as exact Laurent-polynomial
    equalities.  A battery with no cases checks nothing, so ``cases`` must
    be at least 1.
    """
    if degree_bound < 1:
        raise CalabiError("degree bound must be >= 1")
    if cases < 1:
        raise CalabiError(f"cases must be >= 1, got {cases}")
    rng = random.Random(seed)
    corpus = {level: [random_calabi_field(chart, level, rng, degree_bound)
                      for _ in range(cases)]
              for level in range(5)}
    checks: list[IdentityCheck] = []

    def record(name, level, case, lhs, rhs_comps):
        detail = first_difference(lhs, rhs_comps)
        checks.append(IdentityCheck(name, level, case, not detail, detail))

    def record_symmetry(name, level, case, f):
        projected = project_components(f.field.comps, chart.n, f.diagram(), chart.zero)
        record(name, level, case, f.field, projected)

    # each field's differential is computed once and read by every check
    diffs = {level: [calabi_diff(f) for f in corpus[level]] for level in range(4)}

    for l in (1, 2, 3):
        for i, df in enumerate(diffs[l - 1]):
            twice = calabi_diff(df).field
            record(f"diff{l + 1}∘diff{l} = 0", l, i, twice, [chart.zero] * len(twice.comps))

    for l in (1, 2, 3):
        for i, f in enumerate(corpus[l]):
            lhs = calabi_homotopy(diffs[l][i]).field + calabi_diff(calabi_homotopy(f)).field
            rhs = calabi_wave(f)
            record(f"homotopy{l + 1}∘diff{l + 1} + diff{l}∘homotopy{l} = wave{l}",
                   l, i, lhs, rhs.field.comps)
            if check_symmetries:
                record_symmetry(f"wave{l} output symmetry", l, i, rhs)

    for i, f in enumerate(corpus[0]):
        lhs = calabi_homotopy(diffs[0][i]).field
        record("homotopy1∘diff1 = wave0", 0, i, lhs, calabi_wave(f).field.comps)

    for i, f in enumerate(corpus[4]):
        lhs = calabi_diff(calabi_homotopy(f)).field
        record("diff4∘homotopy4 = wave4", 4, i, lhs, calabi_wave(f).field.comps)

    if check_symmetries:
        for l in (0, 1, 2, 3):
            for i, df in enumerate(diffs[l]):
                record_symmetry(f"diff{l + 1} output symmetry", l, i, df)
        for l in (1, 2, 3, 4):
            for i, f in enumerate(corpus[l]):
                record_symmetry(f"homotopy{l} output symmetry", l, i, calabi_homotopy(f))

    label = chart.kind.value + (f"(H={chart.hubble})" if chart.hubble else "")
    return CalabiIdentityReport(background=label, seed=seed, degree_bound=degree_bound,
                                cases=cases, checks=tuple(checks))


# -- linearized curvature oracle ----------------------------------------------

class Jet:
    """First-order arithmetic a + eps*b with eps^2 = 0 (exact)."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalFunction, b: RationalFunction):
        self.a = a
        self.b = b

    def __add__(self, o):
        return Jet(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Jet(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return Jet(-self.a, -self.b)

    def __mul__(self, o):
        return Jet(self.a * o.a, self.a * o.b + self.b * o.a)

    def scale(self, c):
        return Jet(self.a.scale(c), self.b.scale(c))

    def derivative(self, var: int):
        return Jet(self.a.derivative(var), self.b.derivative(var))

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()


def linearized_riemann(chart: Chart, h: CalabiField) -> CalabiField:
    """First-order coefficient of the all-lower Riemann tensor of g + eps*h.

    Computed through the full metric -> connection -> curvature pipeline in
    first-order jet arithmetic; independent of the closed-form operators,
    so it serves as an oracle for them.
    """
    if h.level != 1:
        raise CalabiError("the linearization oracle perturbs by a level-1 field")
    n = chart.n
    zero_jet = Jet(chart.zero, chart.zero)
    g_jet = [Jet(chart.metric_component(a, b), h.field.comps[a * n + b])
             for a in range(n) for b in range(n)]
    # (g + eps h)^{-1} = g^{-1} - eps g^{-1} h g^{-1}
    ginv = chart.inverse_metric_diag
    ginv_jet = []
    for a in range(n):
        for b in range(n):
            first = chart.inverse_metric_component(a, b)
            corr = -(ginv[a] * h.field.comps[a * n + b] * ginv[b])
            ginv_jet.append(Jet(first, corr))
    diff = lambda j, v: j.derivative(v)
    gamma = christoffel_from_metric(g_jet, ginv_jet, n, diff, zero_jet)
    riem_up = riemann_from_christoffel(gamma, n, diff, zero_jet)
    riem = lower_last_index(riem_up, g_jet, n, zero_jet)
    comps = [j.b for j in riem]
    return CalabiField(2, TensorField(chart, "llll", comps))


def linearization_relation_holds(chart: Chart, h: CalabiField) -> bool:
    """Exact check of dot-R = -1/2 diff_2[h] + k/(n(n-1)) (g (.) h).

    The curvature coefficient is pinned by two independent anchors: the
    jet-pipeline oracle itself and the scaling identity dot-R[g] = R-bar
    (both fail for any other multiple).  At k = 0 this is diff_2 = -2 dot-R.
    """
    n = chart.n
    k = chart.scalar_curvature
    dot_r = linearized_riemann(chart, h).field
    rhs = calabi_diff(h).field.scale(Fraction(-1, 2))
    if k:
        rhs = rhs + odot(chart, h.field, "s2s2").scale(Fraction(k, n * (n - 1)))
    return _fields_equal(dot_r, rhs)


# -- polynomial solution dimensions -------------------------------------------

SOLUTION_OPERATORS = ("killing", "killingYano")

_ANTISYMMETRIC = YoungDiagram((1, 1))

# Smallest polynomial degree of the upper-index ansatz at which the kernel
# dimension reaches its stable value (verified by the monotonicity tests).
SUFFICIENT_DEGREE = {
    (ChartKind.MINKOWSKI, "killing"): 1,
    (ChartKind.MINKOWSKI, "killingYano"): 1,
    (ChartKind.DE_SITTER, "killing"): 2,
    (ChartKind.DE_SITTER, "killingYano"): 3,
}


@dataclass(frozen=True)
class SolutionDimension:
    operator: str
    dim: int
    degree_bound: int
    sufficient_degree: int | None

    @property
    def below_sufficient(self) -> bool:
        return self.sufficient_degree is not None and self.degree_bound < self.sufficient_degree


def _monomials_up_to(nvars: int, degree: int) -> list[tuple[int, ...]]:
    return sorted(e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree)


def killing_system(operator: str, chart: Chart, degree_bound: int) -> list[dict]:
    """The linear system of :func:`polynomial_solution_dimension`, as columns.

    Returns one sparse integer column per unknown (one per upper-index
    component and monomial of the ansatz): a dict from (output component,
    Laurent key) to its nonzero coefficient, empty for an unknown the
    operator annihilates.  A matrix and its transpose have one rank, so the
    columns are ranked as they are built: no rows are scattered or sorted.

    Both operators are linear and first order.  For the unit field E of a
    component (one upper-index entry, lowered with the metric) and a
    monomial x^m the Leibniz rule gives

        Op(x^m E) = x^m Op(E) + sum_c m_c x^(m - e_c) S_c(E),
        S_c(E) = Op(x_c E) - x_c Op(E),

    so the operator is applied n + 1 times per component, not once per
    unknown.  A column is built by shifting the Laurent keys of Op(E) and
    of the S_c(E) by the monomial and accumulating integers.  All columns
    of a component are scaled by one common denominator of its n + 1
    outputs; a positive scaling of a column leaves the rank unchanged.
    """
    if operator not in SOLUTION_OPERATORS:
        raise CalabiError(f"unknown operator {operator!r}")
    if degree_bound < 0:
        raise CalabiError(f"degree bound must be >= 0, got {degree_bound}")
    n = chart.n
    g = chart.metric_diag
    if operator == "killing":
        units = [TensorField(chart, "l", [g[a] if c == a else chart.zero for c in range(n)])
                 for a in range(n)]
        apply_op = lambda v: calabi_diff(CalabiField(0, v)).field
    else:
        units = []
        for a in range(n):
            for b in range(a + 1, n):
                comps = [chart.zero] * (n * n)
                comps[a * n + b] = g[a] * g[b]
                comps[b * n + a] = -comps[a * n + b]
                units.append(TensorField(chart, "ll", comps, symmetry=_ANTISYMMETRIC))
        apply_op = killing_yano_operator
    monos = _monomials_up_to(n, degree_bound)
    shifts = [monomial_shift(n, m) for m in monos]
    unit_shifts = [monomial_shift(n, [int(c == v) for v in range(n)]) for c in range(n)]
    coords = [chart.coordinate(c) for c in range(n)]
    columns = []
    for unit in units:
        op_e = apply_op(unit)
        parts = [op_e]
        for x in coords:
            parts.append(apply_op(unit.scale(x)) - op_e.scale(x))
        common = lcm(*(v.d for part in parts for v in part.comps))
        terms = [[(pos, key, coeff * (common // v.d))
                  for pos, v in enumerate(part.comps) for key, coeff in v.terms.items()]
                 for part in parts]
        for mono, shift in zip(monos, shifts):
            acc: dict[tuple[int, int], int] = {}
            for pos, key, coeff in terms[0]:
                acc[pos, key + shift] = acc.get((pos, key + shift), 0) + coeff
            for c, mc in enumerate(mono):
                if mc:
                    s = shift - unit_shifts[c]
                    for pos, key, coeff in terms[c + 1]:
                        acc[pos, key + s] = acc.get((pos, key + s), 0) + mc * coeff
            columns.append({row: coeff for row, coeff in acc.items() if coeff})
    return columns


def polynomial_solution_dimension(operator: str, chart: Chart,
                                  degree_bound: int) -> SolutionDimension:
    """Kernel dimension of the operator on polynomial upper-index fields.

    The ansatz has polynomial components of total degree <= degree_bound in
    the upper-index position, lowered with the chart metric before the
    operator is applied; the linear system (:func:`killing_system`) equates
    every Laurent coefficient of every component to zero, and its columns
    are ranked by sparse elimination.
    """
    columns = killing_system(operator, chart, degree_bound)
    return SolutionDimension(
        operator=operator, dim=len(columns) - sparse_rank(columns), degree_bound=degree_bound,
        sufficient_degree=SUFFICIENT_DEGREE.get((chart.kind, operator)))


# -- restricted-support cohomology tables --------------------------------------

#: Reference vanishing patterns for the two validated backgrounds: degrees in
#: which the spacelike-compact row and the wave-solution sc row are claimed
#: nonzero.  The flat pattern pins the compact-support degree bookkeeping;
#: deviations on other backgrounds are reported, never silently absorbed.
REFERENCE_PATTERNS = {
    "minkowski4": {"sc": (3,), "wave_sc": (3, 4)},
    "deSitter4": {"sc": (3,), "wave_sc": (0, 3, 4)},
}

CALABI_BACKGROUNDS = ("minkowski4", "deSitter4")


@dataclass(frozen=True)
class CalabiTable(CohomologyTable):
    """The support-class table of the complex, the coefficient ranks it was
    built with, and any disagreement between its vanishing pattern and the
    reference pattern."""

    dim_killing: int
    dim_killing_yano: int
    reference_deviations: tuple[str, ...]


def _background_model(background: str) -> SpacetimeModel:
    if background == "minkowski4":
        return SpacetimeModel(n=4, sigma=preset_profile("euclidean", 3), label="minkowski4")
    if background == "deSitter4":
        return SpacetimeModel(n=4, sigma=preset_profile("sphere", 3), label="deSitter4")
    raise CalabiError(
        f"unknown background {background!r}; expected one of {CALABI_BACKGROUNDS}")


def background_chart(background: str) -> Chart:
    if background == "minkowski4":
        return minkowski(4)
    if background == "deSitter4":
        return de_sitter(4, 1)
    raise CalabiError(
        f"unknown background {background!r}; expected one of {CALABI_BACKGROUNDS}")


def calabi_table(background: str, strict: bool = False) -> CalabiTable:
    """Restricted-support cohomology table for a validated background.

    The complex resolves the Killing sheaf, locally constant of rank
    dim K = C(n+1, 2); its adjoint resolves the Killing-Yano sheaf, of rank
    dim KY = C(n+1, 3).  Both slices, R^3 and S^3, are simply connected, so
    the monodromy is trivial and the table is
    :func:`causalcoh.causal.full_table` of the slice profile with h scaled
    by dim K and h_c by dim KY.  A slice with nontrivial monodromy (the
    Killing local system on R x T^3) needs a twisted profile instead.

    A :func:`causalcoh.causal.pairing_audit` violation, or an sc row other
    than the unrestricted row over a compact slice (where the sc restriction
    is vacuous), raises :class:`CalabiIndexingError`.  Deviations from the
    reference vanishing patterns are reported (raised when ``strict``).
    """
    model = _background_model(background)
    n, sigma = model.n, model.sigma
    dim_k, dim_ky = comb(n + 1, 2), comb(n + 1, 3)
    scaled = CohomologyProfile(m=sigma.m, h=tuple(dim_k * x for x in sigma.h),
                               h_c=tuple(dim_ky * x for x in sigma.h_c), name=sigma.name)
    table = full_table(SpacetimeModel(n=n, sigma=scaled, label=model.label))
    sc = table.row(SupportClass.SPACELIKE_COMPACT)
    unrestricted = table.row(SupportClass.UNRESTRICTED)

    problems = list(pairing_audit(table).violations)
    if sigma.h == sigma.h_c and sigma.h[sigma.m] > 0 and sc != unrestricted:
        problems.append(
            "compact-slice gate: sc restriction is vacuous over a compact slice "
            f"but sc row {sc} != unrestricted row {unrestricted}")
    if problems:
        raise CalabiIndexingError("; ".join(problems))

    deviations = []
    ref = REFERENCE_PATTERNS[background]
    for name, row in (("sc", sc), ("wave_sc", table.solution_row(SupportClass.SPACELIKE_COMPACT))):
        got = tuple(l for l in range(n + 1) if row[l])
        if got != ref[name]:
            deviations.append(
                f"{name} row nonzero at degrees {got}, reference pattern says {ref[name]}")
    if strict and deviations:
        raise CalabiIndexingError("; ".join(deviations))
    return CalabiTable(**vars(table), dim_killing=dim_k, dim_killing_yano=dim_ky,
                       reference_deviations=tuple(deviations))

"""Conformally flat charts of constant-curvature spacetimes.

Charts carry a metric g_ab = Omega^2 eta_ab with eta = diag(-1,+1,...,+1)
and a conformal factor Omega that is 1 (flat), 1/(H x0) (positive constant
curvature) or 1/(H x_{n-1}) (negative constant curvature).  Everything
geometric -- Christoffel symbols, curvature, the inverse metric, the
volume scalar -- is then a Laurent polynomial in the coordinates, a
:class:`causalcoh.polynomials.RationalFunction` like every other chart
scalar, and is computed exactly.  The conformal factor is itself built in
that ring, as the constant 1/H divided by the coordinate x_i, and the only
division the charts need, by the conformal factor and its square, is
division by a monomial.  The nonzero Christoffel symbols are also kept as
the two pull tables of :attr:`Chart.connection_pulls`, built once per
chart: for a derivative index and a slot value, the symbols that the
covariant derivative of :mod:`causalcoh.tensors` reads for a lower and for
an upper slot.

:func:`curvature` computes the curvature from the Christoffel symbols and
*verifies* it against the constant-curvature closed forms

    R_{abcd} = k/(n(n-1)) (g_ac g_bd - g_bc g_ad),
    Ric_{ac} = (k/n) g_ac,    R = k,

so any sign-convention defect fails loudly, as a :class:`ChartError`, in
that call.  Constructing a :class:`Chart` does not run the comparison, and
no other module of the package calls :func:`curvature`: the test suite
does.  The Riemann convention is fixed by the covector commutator
(nabla_a nabla_b - nabla_b nabla_a) w_c = R_{abc}^d w_d.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .polynomials import RationalFunction


class ChartError(ValueError):
    pass


class ChartKind(Enum):
    MINKOWSKI = "minkowski"
    DE_SITTER = "deSitter"
    ANTI_DE_SITTER = "antiDeSitter"


@dataclass(frozen=True)
class Chart:
    n: int
    kind: ChartKind
    hubble: Fraction | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ChartError("chart dimension must be >= 2")
        if self.kind is ChartKind.MINKOWSKI:
            if self.hubble is not None:
                raise ChartError("flat chart takes no curvature scale")
        else:
            if self.hubble is None or self.hubble <= 0:
                raise ChartError("curved charts need a positive curvature scale H")

    # -- scalars ----------------------------------------------------------

    def rf(self, value) -> RationalFunction:
        return RationalFunction.constant(self.n, value)

    @cached_property
    def zero(self) -> RationalFunction:
        return self.rf(0)

    @cached_property
    def one(self) -> RationalFunction:
        return self.rf(1)

    def coordinate(self, i: int) -> RationalFunction:
        return RationalFunction.variable(self.n, i)

    @cached_property
    def eta(self) -> tuple[int, ...]:
        return (-1,) + (1,) * (self.n - 1)

    @cached_property
    def conformal_factor(self) -> RationalFunction:
        """Omega with g = Omega^2 eta: 1, or the monomial (1/H) x_i^-1."""
        if self.kind is ChartKind.MINKOWSKI:
            return self.one
        axis = 0 if self.kind is ChartKind.DE_SITTER else self.n - 1
        return self.rf(1 / self.hubble) / self.coordinate(axis)

    @cached_property
    def scalar_curvature(self) -> Fraction:
        if self.kind is ChartKind.MINKOWSKI:
            return Fraction(0)
        k = Fraction(self.n * (self.n - 1)) * self.hubble * self.hubble
        return k if self.kind is ChartKind.DE_SITTER else -k

    # -- metric -----------------------------------------------------------

    @cached_property
    def metric_diag(self) -> tuple[RationalFunction, ...]:
        w2 = self.conformal_factor * self.conformal_factor
        return tuple(w2.scale(e) for e in self.eta)

    @cached_property
    def inverse_metric_diag(self) -> tuple[RationalFunction, ...]:
        winv = self.one / (self.conformal_factor * self.conformal_factor)
        return tuple(winv.scale(e) for e in self.eta)  # eta entries are their own inverses

    def metric_component(self, a: int, b: int) -> RationalFunction:
        return self.metric_diag[a] if a == b else self.zero

    def inverse_metric_component(self, a: int, b: int) -> RationalFunction:
        return self.inverse_metric_diag[a] if a == b else self.zero

    @cached_property
    def metric(self) -> tuple[RationalFunction, ...]:
        n = self.n
        return tuple(self.metric_component(a, b) for a in range(n) for b in range(n))

    @cached_property
    def inverse_metric(self) -> tuple[RationalFunction, ...]:
        n = self.n
        return tuple(self.inverse_metric_component(a, b) for a in range(n) for b in range(n))

    @cached_property
    def volume_scalar(self) -> RationalFunction:
        """Omega^n: the density of the oriented volume form (|det eta| = 1)."""
        out = self.one
        for _ in range(self.n):
            out = out * self.conformal_factor
        return out

    # -- connection ---------------------------------------------------------

    @cached_property
    def dln_conformal(self) -> tuple[RationalFunction, ...]:
        w = self.conformal_factor
        return tuple(w.derivative(i) / w for i in range(self.n))

    @cached_property
    def christoffel_dict(self) -> dict:
        n = self.n
        w = self.dln_conformal
        eta = self.eta
        out = {}
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    # Gamma^a_bc = d^a_b w_c + d^a_c w_b - eta_bc eta^{ad} w_d
                    v = self.zero
                    if a == b:
                        v = v + w[c]
                    if a == c:
                        v = v + w[b]
                    if b == c:
                        v = v - w[a].scale(eta[b] * eta[a])
                    if not v.is_zero():
                        out[(a, b, c)] = v
        return out

    def christoffel_component(self, a: int, b: int, c: int) -> RationalFunction:
        return self.christoffel_dict.get((a, b, c), self.zero)

    @cached_property
    def connection_pulls(self) -> tuple[dict, dict]:
        """The nonzero symbols as the covariant derivative reads them:
        ``lower[c, a]`` lists (d, Gamma^d_{ca}), the pulls of a lower slot
        holding a, and ``upper[c, d]`` lists (a, Gamma^d_{ca}), those of an
        upper slot holding d."""
        lower: dict[tuple[int, int], list] = {}
        upper: dict[tuple[int, int], list] = {}
        for (d, c, a), gamma in self.christoffel_dict.items():
            lower.setdefault((c, a), []).append((d, gamma))
            upper.setdefault((c, d), []).append((a, gamma))
        return lower, upper


def minkowski(n: int = 4) -> Chart:
    return Chart(n=n, kind=ChartKind.MINKOWSKI)


def de_sitter(n: int = 4, hubble=1) -> Chart:
    return Chart(n=n, kind=ChartKind.DE_SITTER, hubble=Fraction(hubble))


def anti_de_sitter(n: int = 4, hubble=1) -> Chart:
    return Chart(n=n, kind=ChartKind.ANTI_DE_SITTER, hubble=Fraction(hubble))


def christoffel(chart: Chart) -> tuple:
    """Dense rank-3 array of Gamma^a_bc (flat index (a*n + b)*n + c)."""
    n = chart.n
    return tuple(chart.christoffel_component(a, b, c)
                 for a in range(n) for b in range(n) for c in range(n))


# -- generic curvature pipeline (reused with first-order jets) -------------

def christoffel_from_metric(g, g_inv, n, diff, zero):
    """Gamma^a_bc = 1/2 g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc).

    ``g`` and ``g_inv`` are dense length-n^2 arrays of ring elements;
    ``diff(elem, var)`` differentiates; works for chart scalars and
    for first-order jets alike.
    """
    half = Fraction(1, 2)
    dg = [[[diff(g[b * n + c], a) for c in range(n)] for b in range(n)] for a in range(n)]
    gamma = [zero] * (n * n * n)
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                total = zero
                for d in range(n):
                    gad = g_inv[a * n + d]
                    if gad.is_zero():
                        continue
                    term = dg[b][d][c] + dg[c][b][d] - dg[d][b][c]
                    if term.is_zero():
                        continue
                    total = total + gad * term
                total = total.scale(half)
                gamma[(a * n + b) * n + c] = total
                gamma[(a * n + c) * n + b] = total
    return gamma


def riemann_from_christoffel(gamma, n, diff, zero):
    """All-upper-last Riemann R_{abc}^d from the connection.

    R_{abc}^d = d_b Gamma^d_ac - d_a Gamma^d_bc
                + Gamma^f_ac Gamma^d_bf - Gamma^f_bc Gamma^d_af,
    the convention with (nabla_a nabla_b - nabla_b nabla_a) w_c = R_{abc}^d w_d.
    """
    out = [zero] * (n ** 4)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for c in range(n):
                for d in range(n):
                    v = diff(gamma[(d * n + a) * n + c], b) - diff(gamma[(d * n + b) * n + c], a)
                    for f in range(n):
                        g_ac_f = gamma[(f * n + a) * n + c]
                        if not g_ac_f.is_zero():
                            w = gamma[(d * n + b) * n + f]
                            if not w.is_zero():
                                v = v + g_ac_f * w
                        g_bc_f = gamma[(f * n + b) * n + c]
                        if not g_bc_f.is_zero():
                            w = gamma[(d * n + a) * n + f]
                            if not w.is_zero():
                                v = v - g_bc_f * w
                    out[((a * n + b) * n + c) * n + d] = v
    return out


def lower_last_index(riem_up, g, n, zero):
    """R_abcd = R_{abc}^e g_ed."""
    out = [zero] * (n ** 4)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                base = ((a * n + b) * n + c) * n
                for d in range(n):
                    v = zero
                    for e in range(n):
                        ged = g[e * n + d]
                        if ged.is_zero():
                            continue
                        r = riem_up[base + e]
                        if not r.is_zero():
                            v = v + r * ged
                    out[base + d] = v
    return out


@dataclass(frozen=True)
class CurvatureData:
    riemann: tuple      # all-lower R_abcd, dense n^4
    ricci: tuple        # Ric_ac, dense n^2
    scalar: RationalFunction
    k: Fraction


def curvature(chart: Chart) -> CurvatureData:
    """Exact curvature of the chart, verified against the closed forms."""
    n = chart.n
    zero = chart.zero
    diff = lambda f, v: f.derivative(v)
    gamma = christoffel(chart)
    riem_up = riemann_from_christoffel(gamma, n, diff, zero)
    riem = lower_last_index(riem_up, chart.metric, n, zero)
    # Ricci: Ric_ac = R_{abc}^b
    ricci = []
    for a in range(n):
        for c in range(n):
            v = zero
            for b in range(n):
                v = v + riem_up[((a * n + b) * n + c) * n + b]
            ricci.append(v)
    scalar = zero
    for a in range(n):
        for c in range(n):
            gac = chart.inverse_metric_component(a, c)
            if not gac.is_zero():
                v = ricci[a * n + c]
                if not v.is_zero():
                    scalar = scalar + gac * v
    k = chart.scalar_curvature
    coeff = Fraction(k, n * (n - 1)) if k else Fraction(0)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    expected = (chart.metric_component(a, c) * chart.metric_component(b, d)
                                - chart.metric_component(b, c) * chart.metric_component(a, d)
                                ).scale(coeff)
                    if riem[((a * n + b) * n + c) * n + d] != expected:
                        raise ChartError(
                            f"Riemann component ({a}{b}{c}{d}) disagrees with the "
                            f"constant-curvature closed form (convention bug)")
    ricci_coeff = Fraction(k, n) if k else Fraction(0)
    for a in range(n):
        for c in range(n):
            if ricci[a * n + c] != chart.metric_component(a, c).scale(ricci_coeff):
                raise ChartError(f"Ricci component ({a}{c}) disagrees with (k/n) g")
    if scalar != chart.rf(k):
        raise ChartError("scalar curvature disagrees with k")
    return CurvatureData(riemann=tuple(riem), ricci=tuple(ricci),
                         scalar=chart.rf(k), k=k)

"""Cohomology tables for the eight causal support classes.

Given a spacetime of dimension n with a Cauchy slice profile, every
causally restricted cohomology dimension reduces to slice data:

* retarded/advanced/past-compact/future-compact supports give zero,
* spacelike compact supports give the compactly supported slice
  cohomology in the same degree,
* timelike compact supports give the slice cohomology one degree down,

and the wave-operator solution spaces combine two adjacent degrees.  The
tables carry dimensions only; the isomorphisms behind them are exercised
on finite surrogates by :mod:`causalcoh.complexes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .simplicial import CohomologyProfile


class SupportClass(Enum):
    UNRESTRICTED = "unrestricted"
    COMPACT = "compact"
    RETARDED = "ret"
    ADVANCED = "adv"
    PAST_COMPACT = "pc"
    FUTURE_COMPACT = "fc"
    SPACELIKE_COMPACT = "sc"
    TIMELIKE_COMPACT = "tc"


TRIVIAL_SUPPORTS = (SupportClass.RETARDED, SupportClass.ADVANCED,
                    SupportClass.PAST_COMPACT, SupportClass.FUTURE_COMPACT)

SOLUTION_SUPPORTS = (SupportClass.SPACELIKE_COMPACT, SupportClass.UNRESTRICTED)


@dataclass(frozen=True)
class SpacetimeModel:
    """Dimension-n spacetime presented as a line times a Cauchy slice."""

    n: int
    sigma: CohomologyProfile
    label: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("spacetime dimension must be >= 2")
        if self.sigma.m != self.n - 1:
            raise ValueError(
                f"slice dimension {self.sigma.m} incompatible with spacetime dimension {self.n}")

    # Cohomology of the total space: homotopy equivalent to the slice.
    def h_spacetime(self, p: int) -> int:
        return self.sigma.h_at(p)

    # Compact supports on the total space, one degree above the slice.
    def h_compact_spacetime(self, p: int) -> int:
        return self.sigma.h_c_at(p - 1)


def restricted_dimension(model: SpacetimeModel, x: SupportClass, p: int) -> int:
    """dim H^p with supports restricted by the class ``x``.

    All dimensions vanish outside 0 <= p <= n.
    """
    if p < 0 or p > model.n:
        return 0
    if x in TRIVIAL_SUPPORTS:
        return 0
    if x is SupportClass.SPACELIKE_COMPACT:
        return model.sigma.h_c_at(p)
    if x is SupportClass.TIMELIKE_COMPACT:
        return model.sigma.h_at(p - 1)
    if x is SupportClass.UNRESTRICTED:
        return model.sigma.h_at(p)
    if x is SupportClass.COMPACT:
        return model.sigma.h_c_at(p - 1)
    raise ValueError(f"unhandled support class {x}")


def solution_dimension(model: SpacetimeModel, x: SupportClass, p: int) -> int:
    """dim of degree-p wave-operator solution cohomology, sc or unrestricted."""
    if x not in SOLUTION_SUPPORTS:
        raise ValueError("solution spaces are tabulated for sc and unrestricted supports only")
    if p < 0 or p > model.n:
        return 0
    if x is SupportClass.SPACELIKE_COMPACT:
        return model.sigma.h_c_at(p) + model.sigma.h_c_at(p - 1)
    return model.sigma.h_at(p) + model.sigma.h_at(p - 1)


@dataclass(frozen=True)
class CohomologyTable:
    """All support classes tabulated over degrees -1..n+1."""

    n: int
    label: str
    dims: dict
    solution_dims: dict

    def row(self, x: SupportClass) -> tuple[int, ...]:
        return tuple(self.dims[(x, p)] for p in range(self.n + 1))

    def solution_row(self, x: SupportClass) -> tuple[int, ...]:
        return tuple(self.solution_dims[(x, p)] for p in range(self.n + 1))

    def dim(self, x: SupportClass, p: int) -> int:
        """Dimension at any integer degree; zero outside the tabulated ones."""
        return self.dims.get((x, p), 0)

    def solution_dim(self, x: SupportClass, p: int) -> int:
        return self.solution_dims.get((x, p), 0)


def full_table(model: SpacetimeModel) -> CohomologyTable:
    dims = {}
    for x in SupportClass:
        for p in range(-1, model.n + 2):
            dims[(x, p)] = restricted_dimension(model, x, p)
    solution_dims = {}
    for x in SOLUTION_SUPPORTS:
        for p in range(-1, model.n + 2):
            solution_dims[(x, p)] = solution_dimension(model, x, p)
    return CohomologyTable(n=model.n, label=model.label or model.sigma.name,
                           dims=dims, solution_dims=solution_dims)


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def pairing_audit(table: CohomologyTable) -> AuditResult:
    """Non-degenerate pairing at the dimension level.

    Checks dim H^p_sc = dim H^{n-p}_tc and, for the solution rows,
    dim H^p_{wave,sc} = dim H^{n-p}_wave, for every degree p.
    """
    n = table.n
    bad = []
    for p in range(0, n + 1):
        sc = table.dims[(SupportClass.SPACELIKE_COMPACT, p)]
        tc = table.dims[(SupportClass.TIMELIKE_COMPACT, n - p)]
        if sc != tc:
            bad.append(f"sc/tc pairing fails at p={p}: {sc} != {tc}")
        ssc = table.solution_dims[(SupportClass.SPACELIKE_COMPACT, p)]
        su = table.solution_dims[(SupportClass.UNRESTRICTED, n - p)]
        if ssc != su:
            bad.append(f"solution pairing fails at p={p}: {ssc} != {su}")
    return AuditResult(ok=not bad, violations=tuple(bad))


def route_consistency(model: SpacetimeModel) -> AuditResult:
    """Cross-check the spacetime route against the slice route.

    The sc dimension can be computed either as compactly supported
    spacetime cohomology one degree up (H^{p+1}_0 of the total space, which
    in slice terms is h_c[p]) or directly as slice h_c[p]; similarly tc can
    be computed through the spacetime cohomology one degree down.  Both
    routes must agree in every degree.
    """
    bad = []
    for p in range(-1, model.n + 2):
        via_m = model.h_compact_spacetime(p + 1) if 0 <= p <= model.n else 0
        via_sigma = restricted_dimension(model, SupportClass.SPACELIKE_COMPACT, p)
        if via_m != via_sigma:
            bad.append(f"sc route mismatch at p={p}: {via_m} != {via_sigma}")
        via_m_tc = model.h_spacetime(p - 1) if 0 <= p <= model.n else 0
        via_sigma_tc = restricted_dimension(model, SupportClass.TIMELIKE_COMPACT, p)
        if via_m_tc != via_sigma_tc:
            bad.append(f"tc route mismatch at p={p}: {via_m_tc} != {via_sigma_tc}")
    return AuditResult(ok=not bad, violations=tuple(bad))

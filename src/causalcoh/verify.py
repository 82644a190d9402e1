"""Named verification suites shared by the CLI and the acceptance tests.

Each suite runs a battery of exact checks and returns a
:class:`SuiteReport` whose items carry one pass/fail verdict each.  All
randomness comes from explicit seeds, so reports are reproducible
byte-for-byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import calabi as _calabi
from .charts import Chart, de_sitter, minkowski
from .complexes import check_exactness, contractibility_check, long_exact_sequence
from .forms import box_de_rham, exterior_derivative
from .generators import (invertible_null_homotopic_map, random_contractible_complex,
                         random_short_exact_seq)
from .tensors import TensorField, first_difference
from .young import (CALABI_DIAGRAMS, group_algebra_idempotent, hook_rank, projector_rank,
                    symmetrize_slots)

#: The arguments besides the seed that each suite reads.
SUITE_READS = {"homology": ("cases",), "forms": ("cases", "degree"),
               "calabi": ("cases", "degree", "background"), "young": ()}
SUITES = tuple(SUITE_READS)


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    params: dict
    items: tuple[CheckItem, ...]

    @property
    def all_passed(self) -> bool:
        """True when there are checks and every one passed."""
        return bool(self.items) and all(i.passed for i in self.items)

    def failures(self) -> list[CheckItem]:
        return [i for i in self.items if not i.passed]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": dict(sorted(self.params.items())),
            "all_passed": self.all_passed,
            "checks": [
                {"name": i.name, "passed": i.passed, **({"detail": i.detail} if i.detail else {})}
                for i in self.items
            ],
        }


def _require_cases(cases: int) -> None:
    """A run with no checks verifies nothing, so it is refused."""
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")


def run_homology_suite(seed: int = 0, cases: int = 200) -> SuiteReport:
    """Random short exact sequences induce exact long sequences, and
    invertible null-homotopic endomorphisms force vanishing cohomology.

    Runs ``cases`` sequence checks and ``cases // 4`` contractibility
    checks.
    """
    _require_cases(cases)
    rng = random.Random(seed)
    items = []
    for i in range(cases):
        s = random_short_exact_seq(rng)
        verdicts = check_exactness(long_exact_sequence(s))
        bad = [v for v in verdicts if not v.exact]
        items.append(CheckItem(
            name=f"long exact sequence #{i}",
            passed=not bad,
            detail="" if not bad else (
                f"failed at {[(v.degree, v.position) for v in bad]}: "
                + "; ".join(f"H^{v.degree}({v.position}) {v.detail}" for v in bad))))
    for i in range(cases // 4):
        sc = random_contractible_complex(rng)
        f, h = invertible_null_homotopic_map(rng, sc)
        v = contractibility_check(f, h)
        items.append(CheckItem(
            name=f"contractibility #{i}",
            passed=v.invertible and v.cohomology_vanishes,
            detail="; ".join(f"{what} at p in {list(degrees)}" for what, degrees in (
                ("f(p) not invertible", v.singular_degrees), ("H^p != 0", v.nonzero_degrees))
                if degrees)))
    return SuiteReport("homology", seed, {"cases": cases}, tuple(items))


def _random_form(chart: Chart, p: int, rng: random.Random, degree: int) -> TensorField:
    n = chart.n
    raw = [_calabi.random_polynomial(rng, n, degree) for _ in range(n ** p)]
    if p <= 1:
        return TensorField(chart, "l" * p, raw)
    anti = symmetrize_slots(raw, n, p, tuple(range(p)), signed=True, zero=chart.zero)
    return TensorField(chart, "l" * p, anti)


def _equality(name: str, lhs: TensorField, rhs_comps) -> CheckItem:
    """A check that lhs has the components rhs_comps; a failure names the
    first differing component and the residual there."""
    detail = first_difference(lhs, rhs_comps)
    return CheckItem(name, not detail, detail)


def run_forms_suite(seed: int = 0, cases: int = 50, degree: int = 3) -> SuiteReport:
    """d^2 = 0 and commutation of the wave operator with d, on seeded
    random polynomial forms over both backgrounds, plus the flat scalar
    calibration of the codifferential sign.  A failed check names the
    first differing component and the residual there."""
    _require_cases(cases)
    if degree < 0:
        raise ValueError(f"degree must be at least 0, got {degree}")
    items = []
    for chart, label in ((minkowski(4), "minkowski4"), (de_sitter(4, 1), "deSitter4")):
        rng = random.Random(seed)
        n = chart.n
        for i in range(cases):
            p = i % (n + 1)
            w = _random_form(chart, p, rng, rng.randrange(degree + 1))
            dw = exterior_derivative(w)
            ddw = exterior_derivative(dw)
            items.append(_equality(f"{label}: d∘d #{i} (p={p})",
                                   ddw, [chart.zero] * len(ddw.comps)))
            lhs = exterior_derivative(box_de_rham(w))
            rhs = box_de_rham(dw) if p < n else TensorField.zero(chart, "l" * (p + 1))
            items.append(_equality(f"{label}: d∘box = box∘d #{i} (p={p})", lhs, rhs.comps))
    chart = minkowski(4)
    rng = random.Random(seed)
    f = TensorField.scalar(chart, _calabi.random_polynomial(rng, 4, degree))
    flat = chart.zero
    for a in range(4):
        flat = flat + f.comps[0].derivative(a).derivative(a).scale(chart.eta[a])
    items.append(_equality("minkowski4: scalar wave calibration", box_de_rham(f), [flat]))
    return SuiteReport("forms", seed, {"cases": cases, "degree": degree}, tuple(items))


def run_calabi_suite(background: str = "minkowski4", seed: int = 42,
                     degree: int = 2, cases: int = 20) -> SuiteReport:
    """The complex and null-homotopy identities, as exact equalities."""
    _require_cases(cases)
    chart = _calabi.background_chart(background)
    report = _calabi.verify_calabi_identities(chart, seed=seed, degree_bound=degree,
                                              cases=cases)
    items = tuple(CheckItem(name=f"{background}: {c.name} [case {c.case}]",
                            passed=c.passed, detail=c.detail)
                  for c in report.checks)
    return SuiteReport("calabi", seed,
                       {"background": background, "degree": degree, "cases": cases},
                       items)


def run_young_suite(seed: int = 0) -> SuiteReport:
    """Projector rank equals the hook content formula, plus idempotency.

    Covers every level's diagram at n = 3 and the diagrams with at most 5
    cells at n = 4 by explicit projector rank; the 6-cell diagram at n = 4
    is covered by the hook-length product value.
    """
    expected = {
        (3, 0): 3, (3, 1): 6, (3, 2): 6, (3, 3): 3, (3, 4): 0,
        (4, 0): 4, (4, 1): 10, (4, 2): 20, (4, 3): 20, (4, 4): 6,
    }
    items = []
    for level in range(5):
        d = CALABI_DIAGRAMS[level]
        items.append(CheckItem(f"group-algebra idempotency, level {level}",
                               group_algebra_idempotent(d)))
        for n in (3, 4):
            hr = hook_rank(d, n)
            items.append(CheckItem(f"hook rank value, level {level}, n={n}",
                                   hr == expected[(n, level)],
                                   detail=f"got {hr}"))
            if n == 4 and d.cells > 5:
                continue  # rank covered by the hook-length product above
            pr = projector_rank(d, n)
            items.append(CheckItem(
                f"projector rank = hook rank, level {level}, n={n}",
                pr == hr, detail=f"projector {pr}, hook {hr}"))
    return SuiteReport("young", seed, {}, tuple(items))


_RUNNERS = {"homology": run_homology_suite, "forms": run_forms_suite,
            "calabi": run_calabi_suite, "young": run_young_suite}


def run_suite(suite: str, **kwargs) -> SuiteReport:
    """Run the named suite on the seed and the arguments it reads.

    Arguments the suite does not read are dropped, and those not given
    take the runner's own defaults.
    """
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    reads = ("seed", *SUITE_READS[suite])
    return _RUNNERS[suite](**{k: v for k, v in kwargs.items() if k in reads})

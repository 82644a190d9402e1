import hashlib
import random

import pytest

from causalcoh import verify
from causalcoh.complexes import ContractibilityVerdict, NodeVerdict, long_exact_sequence
from causalcoh.generators import subcomplex_of_contractible_seq
from causalcoh.tensors import TensorField
from causalcoh.verify import (run_calabi_suite, run_forms_suite, run_homology_suite,
                              run_suite, run_young_suite)


def test_homology_suite_small():
    rep = run_homology_suite(seed=5, cases=12)
    assert rep.all_passed
    assert len(rep.items) == 12 + 3


def test_forms_suite_small():
    rep = run_forms_suite(seed=5, cases=6, degree=2)
    assert rep.all_passed
    # two backgrounds x (d2 + box-commute per case) + calibration
    assert len(rep.items) == 2 * 2 * 6 + 1


def test_calabi_suite_single_case():
    rep = run_calabi_suite("minkowski4", seed=42, degree=2, cases=1)
    assert rep.all_passed
    names = {c.name for c in rep.items}
    assert any("diff2∘diff1" in n for n in names)
    assert any("wave4" in n for n in names)


def test_young_suite():
    rep = run_young_suite()
    assert rep.all_passed
    assert len(rep.failures()) == 0


def test_run_suite_dispatch_and_report_shape():
    rep = run_suite("young")
    d = rep.to_dict()
    assert d["suite"] == "young"
    assert d["all_passed"] is True
    assert all({"name", "passed"} <= set(c) for c in d["checks"])
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_reports_reproducible():
    a = run_homology_suite(seed=9, cases=6).to_dict()
    b = run_homology_suite(seed=9, cases=6).to_dict()
    assert a == b


def test_report_without_checks_is_not_a_pass():
    from causalcoh.verify import SuiteReport
    rep = SuiteReport("homology", 0, {"cases": 0}, ())
    assert not rep.all_passed
    assert rep.to_dict()["all_passed"] is False


@pytest.mark.parametrize("cases", [0, -1])
def test_suites_refuse_zero_cases(cases):
    for run in (run_homology_suite, run_forms_suite, run_calabi_suite):
        with pytest.raises(ValueError, match="cases"):
            run(cases=cases)


def test_failed_les_item_carries_the_node_verdicts(monkeypatch):
    def check(les):
        return [NodeVerdict(0, "A", True, "ok"),
                NodeVerdict(1, "B", False, "rank(in)=1 + rank(out)=1 != dim=3")]

    monkeypatch.setattr(verify, "check_exactness", check)
    rep = run_homology_suite(seed=3, cases=4).to_dict()
    les = [c for c in rep["checks"] if c["name"].startswith("long exact")]
    assert len(les) == 4 and not rep["all_passed"]
    assert all(c["detail"] == "failed at [(1, 'B')]: "
               "H^1(B) rank(in)=1 + rank(out)=1 != dim=3" for c in les)
    assert all("detail" not in c for c in rep["checks"] if c["passed"])


def test_failed_contractibility_item_names_the_degrees(monkeypatch):
    verdicts = iter([ContractibilityVerdict((), ()), ContractibilityVerdict((1, 3), ()),
                     ContractibilityVerdict((), (2,)), ContractibilityVerdict((0,), (0,))])
    monkeypatch.setattr(verify, "contractibility_check", lambda f, h: next(verdicts))
    rep = run_homology_suite(seed=3, cases=16).to_dict()
    got = [(c["passed"], c.get("detail")) for c in rep["checks"]
           if c["name"].startswith("contractibility")]
    assert got == [(True, None),
                   (False, "f(p) not invertible at p in [1, 3]"),
                   (False, "H^p != 0 at p in [2]"),
                   (False, "f(p) not invertible at p in [0]; H^p != 0 at p in [0]")]
    assert all("detail" not in c for c in rep["checks"] if c["passed"])


def test_failed_forms_items_name_the_component_and_the_residual(monkeypatch):
    # a broken d that adds x1 dx0 to every 1-form it returns: d(x1 dx0) is
    # -1 at (0, 1), and on flat charts box(x1 dx0) = 0, so d(box w) and
    # box(d w) then differ by x1 at (0,)
    from causalcoh.forms import exterior_derivative

    def broken(w):
        dw = exterior_derivative(w)
        if dw.rank != 1:
            return dw
        extra = [dw.chart.coordinate(1) if i == 0 else dw.chart.zero for i in range(dw.chart.n)]
        return dw + TensorField(dw.chart, "l", extra)

    monkeypatch.setattr(verify, "exterior_derivative", broken)
    rep = run_forms_suite(seed=5, cases=6, degree=2).to_dict()
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["minkowski4: d∘d #0 (p=0)"]["detail"] == \
        "first differing component (0, 1): residual -1"
    assert checks["minkowski4: d∘box = box∘d #0 (p=0)"]["detail"] == \
        "first differing component (0,): residual x1"
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert {c["name"] for c in failed} == {
        f"{label}: {what} #{i} (p=0)" for label in ("minkowski4", "deSitter4")
        for what in ("d∘d", "d∘box = box∘d") for i in (0, 5)}
    assert all(c["detail"].startswith("first differing component (0,") for c in failed)
    assert all("detail" not in c for c in rep["checks"] if c["passed"])


def _les_digest(sequences) -> str:
    """SHA-256 of every node of the sequences: degree, position, dim, and the
    outgoing matrix's shape and stored rows, each entry with its type."""
    h = hashlib.sha256()
    for seq in sequences:
        for node in seq.nodes:
            m = node.outgoing
            rows = [sorted((j, type(v).__name__, str(v)) for j, v in row.items())
                    for row in m._r]
            h.update(repr((node.degree, node.position, node.dim, m.rows, m.cols, rows)).encode())
        h.update(b";")
    return h.hexdigest()


LES_DIGEST = "aeaf12e24238120ede21255013a9ec8f2b7f7b8636cdfebd8e9819ec34d61168"
SHIFT_LES_DIGEST = "46e969e452b6e81b3bffaf82d701736f1c462dc1d5eacaca79532506092bfbd6"


def test_homology_suite_sequences_are_pinned(monkeypatch):
    # the report lists only each check's verdict, so a wrong induced or
    # connecting map that keeps every sequence exact keeps its digest; this
    # pins the maps themselves, at the CLI's default seed and cases
    sequences = []

    def recorded(s):
        seq = long_exact_sequence(s)
        sequences.append(seq)
        return seq

    monkeypatch.setattr(verify, "long_exact_sequence", recorded)
    assert run_homology_suite(seed=42, cases=200).all_passed
    assert len(sequences) == 200
    assert _les_digest(sequences) == LES_DIGEST


def test_connecting_maps_of_shift_sequences_are_pinned():
    # the suite's twisted middle differential is a coboundary twist, so all
    # its connecting maps vanish; over a contractible middle complex they
    # are the isomorphisms H^p(C) = H^{p+1}(A)
    rng = random.Random(42)
    sequences = [long_exact_sequence(subcomplex_of_contractible_seq(rng)) for _ in range(50)]
    assert any(not node.outgoing.is_zero()
               for seq in sequences for node in seq.nodes if node.position == "C")
    assert _les_digest(sequences) == SHIFT_LES_DIGEST

"""Output checkers.  Each returns a list of problems; an empty list passes.

The references are properties the method must have or numbers computed
here, apart from the program: never a stored copy of an earlier output.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from slices import euler_characteristic, support_rows

# The battery case of ``verify --suite calabi`` checks diff∘diff = 0 at
# levels 1..3, the homotopy identity at levels 1..3, and both edge
# identities (levels 0 and 4).
CALABI_CHECKS_PER_CASE = 3 + 3 + 2


def check_calabi_report(rc: int, report: dict, cases: int) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"verify exit code {rc}")
    results = report.get("results", {})
    checks = results.get("checks", [])
    want = CALABI_CHECKS_PER_CASE * cases
    if want == 0 or len(checks) != want:
        problems.append(f"verify reported {len(checks)} checks, expected {want}")
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if failed:
        problems.append(f"identity checks failed: {failed}")
    if results.get("all_passed") is not True:
        problems.append("verify report is not an all-pass")
    return problems


def check_killing_report(rc: int, report: dict, operator: str, n: int) -> list[str]:
    """Killing / Killing-Yano kernels of a maximally symmetric n-space have
    dimension C(n+1, 2) and C(n+1, 3)."""
    want = comb(n + 1, 2) if operator == "killing" else comb(n + 1, 3)
    results = report.get("results", {})
    problems = []
    if rc != 0:
        problems.append(f"killing exit code {rc}")
    if results.get("dim") != want:
        problems.append(f"{operator} kernel dimension {results.get('dim')}, expected {want}")
    if results.get("below_sufficient_degree") is not False:
        problems.append(f"{operator} solved below its sufficient degree")
    return problems


def check_derham_report(rc: int, report: dict, betti, fv, n: int) -> list[str]:
    """A closed slice: Betti numbers as generated, chi(f-vector) = 0, every
    row by the support-class rule, and both audits passing."""
    problems = []
    if rc != 0:
        problems.append(f"derham exit code {rc}")
    if euler_characteristic(fv) != 0:
        problems.append(f"Euler characteristic of f-vector {fv} is not 0")
    results = report.get("results", {})
    sl = results.get("slice", {})
    if sl.get("h") != list(betti) or sl.get("h_c") != list(betti):
        problems.append(f"Betti numbers {sl.get('h')} / {sl.get('h_c')}, expected {list(betti)}")
    table = results.get("table", {})
    for name, row in support_rows(betti, betti, n).items():
        if table.get(name) != row:
            problems.append(f"row {name} = {table.get(name)}, rule gives {row}")
    for audit in ("pairing_audit", "route_consistency"):
        if results.get(audit, {}).get("ok") is not True:
            problems.append(f"{audit} not ok")
    return problems


def rank_q(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / top[c]
                m[i] = [x - f * y for x, y in zip(m[i], top)]
        rank += 1
    return rank


def cohomology_dim(dim_p: int, rows_d_p, rows_d_prev) -> int:
    """dim H^p = dim C^p - rank d_p - rank d_{p-1}."""
    return dim_p - rank_q(rows_d_p) - rank_q(rows_d_prev)


def check_les(nodes, own_dims) -> list[str]:
    """``nodes``: (degree, position, dim, exact) in sequence order;
    ``own_dims``: (degree, position) -> dimension computed here."""
    problems = []
    bad = [(d, pos) for d, pos, _dim, exact in nodes if not exact]
    if bad:
        problems.append(f"long exact sequence not exact at {bad}")
    alternating = sum((-1) ** k * dim for k, (_d, _p, dim, _e) in enumerate(nodes))
    if alternating != 0:
        problems.append(f"alternating sum of node dimensions is {alternating}")
    for d, pos, dim, _exact in nodes:
        if own_dims.get((d, pos)) != dim:
            problems.append(f"node H^{d}({pos}) has dim {dim}, rank routine gives "
                            f"{own_dims.get((d, pos))}")
    if not nodes:
        problems.append("long exact sequence has no nodes")
    return problems


def check_contractibility(invertible: bool, vanishes: bool) -> list[str]:
    if invertible and vanishes:
        return []
    return [f"contractibility verdict invertible={invertible} vanishes={vanishes}"]

"""Command-line surface: tables, verification suites, hook ranks, kernels.

Every report is deterministic for identical arguments (fixed seeds, sorted
keys, no timestamps): repeated invocations are byte-identical.  Exit codes:
0 on success and all-pass verification, 1 on any identity or audit
failure, on a failed internal invariant or when stdout closes before the
report is written, 2 on usage or input errors.  Invariant failures and
input errors both print a JSON diagnostic instead of the report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from .calabi import (CALABI_BACKGROUNDS, CalabiError, CalabiIndexingError, SOLUTION_OPERATORS,
                     background_chart, calabi_table, polynomial_solution_dimension)
from .causal import (SOLUTION_SUPPORTS, CohomologyTable, SpacetimeModel, SupportClass,
                     full_table, pairing_audit, route_consistency)
from .charts import ChartError
from .complexes import ComplexError, ExactnessError
from .simplicial import (PRESET_NAMES, TriangulationError, build_complex, preset_profile,
                         profile_from_triangulation)
from .tensors import TensorError
from .verify import SUITE_READS, SUITES, run_suite
from .young import YoungDiagram, hook_rank

SCHEMA = "causalcoh.report/v1"

# Failures of the program's own invariants, not of its input: no command
# takes a complex, calabi_table gates its table by the duality pairing and
# by the compact-slice rule, and contractibility_check asserts a theorem.
_INVARIANT_ERRORS = (CalabiIndexingError, ComplexError, ExactnessError, AssertionError)
_INPUT_ERRORS = (CalabiError, ChartError, TriangulationError, TensorError, ValueError,
                 json.JSONDecodeError)


def _digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _report(command: str, inputs: dict, results: dict, seed=None) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "seed": seed,
        "results": results,
    }


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2))
        out.write("\n")
    else:
        out.write(_render_markdown(report))


def _render_markdown(report: dict) -> str:
    lines = [f"# {report['command']} report", ""]
    results = report["results"]
    table = results.get("table")
    if table:
        degrees = list(range(len(next(iter(table.values())))))
        header = "| support | " + " | ".join(f"p={p}" for p in degrees) + " |"
        sep = "|---" * (len(degrees) + 1) + "|"
        lines += [header, sep]
        for name, row in table.items():
            lines.append("| " + name + " | " + " | ".join(str(v) for v in row) + " |")
        lines.append("")
    for key, value in sorted(results.items()):
        if key in ("table", "entries", "solution_entries"):
            continue  # already rendered as the table grid
        lines.append(f"- **{key}**: {json.dumps(value, sort_keys=True)}")
    lines.append("")
    lines.append(f"_inputs digest: {report['inputs_digest']}_")
    return "\n".join(lines) + "\n"


def _table_payload(table: CohomologyTable) -> dict:
    """Rows keyed by support class, in declaration order, plus flat
    {support, degree, dim} entries."""
    rows = {}
    entries = []
    for x in SupportClass:
        row = list(table.row(x))
        rows[x.value] = row
        entries.extend({"support": x.value, "degree": p, "dim": row[p]}
                       for p in range(table.n + 1))
    solution_entries = []
    for x in SOLUTION_SUPPORTS:
        row = list(table.solution_row(x))
        rows[f"wave_{x.value}"] = row
        solution_entries.extend({"support": x.value, "degree": p, "dim": row[p]}
                                for p in range(table.n + 1))
    return {"table": rows, "entries": entries, "solution_entries": solution_entries}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _read_triangulation(path: str) -> tuple[list, int | None]:
    """Facets and vertex count of a triangulation file, shape-checked."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise TriangulationError(f"cannot read triangulation file: {exc}") from exc
    if not isinstance(data, dict) or "facets" not in data:
        raise TriangulationError('triangulation file must hold an object with "facets"')
    facets = data["facets"]
    if not (isinstance(facets, list)
            and all(isinstance(f, list) and all(map(_is_int, f)) for f in facets)):
        raise TriangulationError('"facets" must be a list of lists of integer vertex indices')
    vertices = data.get("vertices")
    if "vertices" in data and not (_is_int(vertices) and vertices >= 0):
        raise TriangulationError('"vertices" must be a non-negative integer')
    return facets, vertices


def _cmd_derham(args, out) -> int:
    if args.triangulation:
        facets, vertices = _read_triangulation(args.triangulation)
        k = build_complex(facets, vertex_count=vertices)
        sigma = profile_from_triangulation(k, name=f"triangulation:{args.triangulation}")
        inputs = {"triangulation": {"vertices": k.vertex_count,
                                    "facets": sorted(facets)},
                  "n": args.n}
    else:
        if args.preset is None or args.m is None:
            raise ValueError("derham needs --preset and --m, or --triangulation")
        sigma = preset_profile(args.preset, args.m)
        inputs = {"preset": args.preset, "m": args.m, "n": args.n}
    model = SpacetimeModel(n=args.n, sigma=sigma)
    table = full_table(model)
    pairing = pairing_audit(table)
    route = route_consistency(model)
    results = {
        "slice": {"m": sigma.m, "h": list(sigma.h), "h_c": list(sigma.h_c)},
        **_table_payload(table),
        "pairing_audit": {"ok": pairing.ok, "violations": list(pairing.violations)},
        "route_consistency": {"ok": route.ok, "violations": list(route.violations)},
    }
    _emit(_report("derham", inputs, results), args.format, out)
    return 0 if (pairing.ok and route.ok) else 1


def _cmd_calabi(args, out) -> int:
    table = calabi_table(args.background)
    results = {
        **_table_payload(table),
        "dim_killing": table.dim_killing,
        "dim_killing_yano": table.dim_killing_yano,
        "reference_deviations": list(table.reference_deviations),
    }
    inputs = {"background": args.background}
    _emit(_report("calabi", inputs, results), args.format, out)
    return 0


def _cmd_verify(args, out) -> int:
    _resolve_suite_arguments(args)
    kwargs = {"seed": args.seed, "cases": args.cases, "degree": args.degree}
    if args.suite == "calabi":
        kwargs["background"] = args.background
    report = run_suite(args.suite, **kwargs)
    results = report.to_dict()
    failures = report.failures()
    results["failures"] = [i.name for i in failures]
    inputs = {"suite": args.suite, "seed": args.seed, "cases": args.cases,
              "degree": args.degree}
    if args.suite == "calabi":
        inputs["background"] = args.background
    _emit(_report("verify", inputs, results, seed=args.seed), args.format, out)
    return 0 if report.all_passed else 1


def _cmd_hook(args, out) -> int:
    rows = tuple(int(x) for x in args.diagram.split(","))
    diagram = YoungDiagram(rows)
    rank = hook_rank(diagram, args.n)
    inputs = {"diagram": list(rows), "n": args.n}
    _emit(_report("hook", inputs, {"rank": rank}), args.format, out)
    return 0


def _cmd_killing(args, out) -> int:
    chart = background_chart(args.background)
    result = polynomial_solution_dimension(args.operator, chart, args.degree)
    inputs = {"background": args.background, "operator": args.operator,
              "degree": args.degree}
    results = {
        "dim": result.dim,
        "degree_bound": result.degree_bound,
        "sufficient_degree": result.sufficient_degree,
        "below_sufficient_degree": result.below_sufficient,
    }
    _emit(_report("killing", inputs, results), args.format, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalcoh",
        description="Exact cohomology tables for causally restricted supports, "
                    "and machine verification of the Killing-Riemann-Bianchi complex.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derham", help="cohomology table for all support classes")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--m", type=int, help="slice dimension for --preset")
    p.add_argument("--triangulation", help="JSON file {\"vertices\": N, \"facets\": [[...]]}")
    p.add_argument("--n", type=int, required=True, help="spacetime dimension")
    p.add_argument("--format", choices=("json", "md"), default="json")

    p = sub.add_parser("calabi", help="restricted-support table for the Killing complex")
    p.add_argument("--background", choices=CALABI_BACKGROUNDS, required=True)
    p.add_argument("--format", choices=("json", "md"), default="json")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--background", choices=CALABI_BACKGROUNDS, default=None)
    p.add_argument("--format", choices=("json", "md"), default="json")

    p = sub.add_parser("hook", help="hook-content rank of a Young diagram")
    p.add_argument("--diagram", required=True, help="comma-separated row lengths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "md"), default="json")

    p = sub.add_parser("killing", help="polynomial kernel dimension of a Killing-type operator")
    p.add_argument("--background", choices=CALABI_BACKGROUNDS, required=True)
    p.add_argument("--operator", choices=SOLUTION_OPERATORS, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", choices=("json", "md"), default="json")
    return parser


# Per-suite values of the verify arguments left out of the command line, as
# the report's inputs echo them.  An explicit value for an argument the suite
# does not read (verify.SUITE_READS) is an input error.  Only the calabi
# suite reads a background, and only its report echoes one.
_SUITE_DEFAULTS = {
    "homology": {"cases": 100, "degree": 2},
    "forms": {"cases": 20, "degree": 2},
    "calabi": {"cases": 3, "degree": 2, "background": "minkowski4"},
    "young": {"cases": 0, "degree": 2},
}


def _resolve_suite_arguments(args) -> None:
    defaults = _SUITE_DEFAULTS[args.suite]
    for name in ("cases", "degree", "background"):
        if getattr(args, name) is None:
            setattr(args, name, defaults.get(name))
        elif name not in SUITE_READS[args.suite]:
            raise ValueError(f"verify --suite {args.suite} does not use --{name}")


_parser = functools.cache(build_parser)  # built on the first call of main, not at import


def main(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    args = _parser().parse_args(argv)
    handlers = {
        "derham": _cmd_derham,
        "calabi": _cmd_calabi,
        "verify": _cmd_verify,
        "hook": _cmd_hook,
        "killing": _cmd_killing,
    }
    try:
        try:
            code = handlers[args.command](args, out)
        except (*_INVARIANT_ERRORS, *_INPUT_ERRORS) as exc:
            out.write(json.dumps({"schema": SCHEMA, "error": str(exc),
                                  "error_type": type(exc).__name__}, sort_keys=True))
            out.write("\n")
            code = 1 if isinstance(exc, _INVARIANT_ERRORS) else 2
        out.flush()
    except BrokenPipeError:
        # The reader of the report has gone.  Write nothing more, and point
        # the descriptor at /dev/null so the interpreter's final flush of
        # the unwritten buffer does not fail a second time.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # not backed by a descriptor
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

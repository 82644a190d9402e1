"""The workloads: how each makes its inputs, runs one job, and checks it.

A workload's job list is drawn once from the workload seed (``--seed``), so
the same seed gives the same jobs on every run and on every commit.  Every
job of a workload is the same kind of work.  An untraced run splits its time
over ``processes`` fresh worker processes, started spread over the list,
each making a cold job and then warm jobs; a traced run makes the first ``trace_jobs`` jobs in one process.
The list has ``jobs`` entries: three times the most jobs one worker of a
40-second run reached in the recorded runs (calabi-dS4 3, slice-cohomology
3, les-audit 10), so that a program up to three times faster still meets
new inputs; a worker that reaches the end of the list goes on at its start.
``run`` is the timed part and calls only the program; ``check`` runs
afterwards, untimed and untraced.
"""

from __future__ import annotations

import io
import json
import os
import random

import checks
import slices


def _cli(argv) -> tuple[int, str]:
    from causalcoh import cli
    out = io.StringIO()
    rc = cli.main(argv, stdout=out)
    return rc, out.getvalue()


def _job_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


class CalabiBattery:
    """One seeded identity-battery case on de Sitter plus both Killing-type
    kernel solves one degree above their sufficient degrees (2 and 3),
    through the CLI as ``verify --suite calabi --cases 1`` and ``killing``."""

    name = "calabi-dS4"
    background = "deSitter4"
    degrees = {"killing": 3, "killingYano": 4}
    processes = 2
    trace_jobs = 2
    jobs = 9

    def setup(self, seed: int, outdir: str) -> list:
        import causalcoh.cli  # noqa: F401  (the CLI module is part of set-up)
        return _job_seeds(seed, self.jobs)

    def run(self, job_seed: int):
        outs = [_cli(["verify", "--suite", "calabi", "--background", self.background,
                      "--cases", "1", "--seed", str(job_seed)])]
        for op, degree in self.degrees.items():
            outs.append(_cli(["killing", "--background", self.background, "--operator", op,
                              "--degree", str(degree)]))
        return outs

    def check(self, job_seed: int, outs) -> list[str]:
        from causalcoh import calabi
        (rc, text), *kernels = outs
        report = json.loads(text)
        problems = checks.check_calabi_report(rc, report, cases=1)
        inputs = report.get("inputs", {})
        if inputs.get("seed") != job_seed or inputs.get("background") != self.background:
            problems.append(f"verify ran on inputs {inputs}")
        for op, (rc_k, text_k) in zip(self.degrees, kernels):
            problems += checks.check_killing_report(rc_k, json.loads(text_k), op, n=4)
        # The case's level-1 field (drawn second from the case seed, after
        # the level-0 field) against the jet-pipeline linearization.
        chart = calabi.background_chart(self.background)
        rng = random.Random(job_seed)
        calabi.random_calabi_field(chart, 0, rng, 2)
        h = calabi.random_calabi_field(chart, 1, rng, 2)
        if h.is_zero() or not calabi.linearization_relation_holds(chart, h):
            problems.append("level-1 field disagrees with the jet linearization route")
        return problems


class SliceCohomology:
    """``derham --triangulation`` (n = 4) on every slice of the catalogue,
    with vertex labels permuted per job."""

    name = "slice-cohomology"
    processes = 6
    trace_jobs = 4
    jobs = 9
    n = 4

    def setup(self, seed: int, outdir: str) -> list:
        import causalcoh.cli  # noqa: F401
        rng = random.Random(seed)
        catalogue = slices.slice_catalogue()
        jobs = []
        for j in range(self.jobs):
            job = []
            for name, (facets, vertices, betti) in catalogue.items():
                relabelled = slices.relabel(facets, vertices, rng)
                path = os.path.join(outdir, f"job{j}-{name}.json")
                with open(path, "w") as fh:
                    json.dump({"vertices": vertices, "facets": relabelled}, fh)
                job.append((path, relabelled, betti))
            jobs.append(job)
        return jobs

    def run(self, job):
        return [_cli(["derham", "--triangulation", path, "--n", str(self.n)])
                for path, _facets, _betti in job]

    def check(self, job, outs) -> list[str]:
        problems = []
        for (path, facets, betti), (rc, text) in zip(job, outs):
            found = checks.check_derham_report(rc, json.loads(text), betti,
                                               slices.f_vector(facets), self.n)
            problems += [f"{os.path.basename(path)}: {p}" for p in found]
        return problems


class LesAudit:
    """A batch of seeded random short exact sequences: long exact sequence
    and exactness at every node, plus contractibility of invertible
    null-homotopic maps (the ``verify --suite homology`` mechanisms)."""

    name = "les-audit"
    processes = 6
    trace_jobs = 12
    jobs = 30
    sequences = 100
    contractible = 25

    def setup(self, seed: int, outdir: str) -> list:
        import causalcoh.complexes  # noqa: F401
        import causalcoh.generators  # noqa: F401
        return _job_seeds(seed, self.jobs)

    def run(self, job_seed: int):
        from causalcoh import complexes, generators
        rng = random.Random(job_seed)
        seqs = []
        for _ in range(self.sequences):
            s = generators.random_short_exact_seq(rng)
            les = complexes.long_exact_sequence(s)
            seqs.append((s, les, complexes.check_exactness(les)))
        verdicts = []
        for _ in range(self.contractible):
            sc = generators.random_contractible_complex(rng)
            f, h = generators.invertible_null_homotopic_map(rng, sc)
            verdicts.append(complexes.contractibility_check(f, h))
        return seqs, verdicts

    def check(self, job_seed: int, out) -> list[str]:
        seqs, verdicts = out
        problems = []
        for s, les, exactness in seqs:
            if len(exactness) != len(les.nodes) or len(les.nodes) != 3 * len(s.degrees()):
                problems.append("long exact sequence has the wrong number of nodes")
                continue
            nodes = [(node.degree, node.position, node.dim, v.exact)
                     for node, v in zip(les.nodes, exactness)]
            own = {(p, pos): _own_cohomology_dim(cx, p)
                   for pos, cx in (("A", s.a), ("B", s.b), ("C", s.c))
                   for p in s.degrees()}
            problems += checks.check_les(nodes, own)
        for v in verdicts:
            problems += checks.check_contractibility(v.invertible, v.cohomology_vanishes)
        return problems


def _rows(m) -> list:
    return [m.row(i) for i in range(m.rows)]


def _own_cohomology_dim(cx, p: int) -> int:
    return checks.cohomology_dim(cx.dim(p), _rows(cx.d(p)), _rows(cx.d(p - 1)))


WORKLOADS = {
    w.name: w for w in (
        CalabiBattery(),
        SliceCohomology(),
        LesAudit(),
    )
}

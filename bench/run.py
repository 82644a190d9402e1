"""Benchmark entry point: one workload (or ``all``), one seed, one run.

    python3 bench/run.py --workload calabi-dS4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in fresh single-threaded worker processes, one after
another; an untraced run splits its wall-clock budget over several of them.
Times are CPU seconds of the worker (see ``worker.py``).  Set-up is a
worker's CPU time from its start until its inputs are made, reported as
the median over the workers; the cold job is each worker's first job.
A job that raises counts in ``attempted`` and ``failed`` and its time in
no metric.
The last line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics with
``--trace 1``).  The exit code is 0 only when every run produced a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

# Every run ends within this many seconds, whatever its budget.
DEADLINE_S = 170.0

# Metric names and units: the traced and untraced reports list exactly these.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # Let imports use cached bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(args, seconds: float, deadline: float, first_job: int, tag: str) -> dict:
    """Run one worker to its end and return its parsed result."""
    outdir = os.path.join(BENCH, "out", f"{args.workload}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--first-job", str(first_job), "--outdir", outdir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker for {args.workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker for {args.workload} printed no result")


def run_workload(args) -> dict:
    """One run: untraced, ``processes`` workers share the time budget;
    traced, one worker."""
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    workers = 1 if args.trace else workload.processes
    setups, colds, warm, walls, rss, problems, errors = [], [], [], [], [], [], []
    attempted = 0
    for k in range(workers):
        # Workers start spread over the job list, so that a run's cold and
        # warm medians are over several inputs, not one.
        res = _spawn(args, args.seconds / workers, deadline,
                     first_job=k * workload.jobs // workers, tag=f"w{k}")
        cold, *rest = res["job_times"]  # None for a job that raised
        setups.append(res["setup_s"])
        walls += res["wall_times"]
        colds += [cold] if cold is not None else []
        warm += [t for t in rest if t is not None]
        attempted += len(res["job_times"])
        rss.append(res["peak_rss_mb"])
        problems += res["problems"]
        errors += res["errors"]
        layers = res.get("layers")
    if not args.trace and not (colds and warm):
        raise BenchError(f"no cold or no warm job of {args.workload} succeeded")

    if args.trace:
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "cold_job_s": statistics.median(colds),
            "job_s_p50": statistics.median(warm),
            "jobs_per_s": len(warm) / sum(warm),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    for p in problems:
        print(f"{args.workload}: CHECK FAILED: {p}", file=sys.stderr)
    for e in errors:
        print(f"{args.workload}: OPERATION FAILED: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs "
          f"({len(errors)} failed) in {workers} processes")
    print("  cold job CPU s:  " + " ".join(f"{t:.3f}" for t in colds))
    print("  warm job CPU s:  " + " ".join(f"{t:.3f}" for t in warm))
    print("  job wall s:      " + " ".join(f"{t:.3f}" for t in walls))
    if not args.trace:
        print("  set-up CPU s:    " + " ".join(f"{s:.3f}" for s in setups))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": len(errors),
            "metrics": metrics}


def main() -> int:
    # On SIGTERM unwind, so that ``_spawn`` kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

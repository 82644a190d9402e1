"""One workload in one fresh process (started by ``run.py``, not by hand).

Prints one JSON line with the run's results.  Set-up and job times are CPU
seconds of this process and of any children it waited for: the program is
single-threaded and makes no I/O worth the name, so on an idle machine they
equal wall time, and on a shared host they leave out the time the hypervisor
gives the virtual CPU to other tenants, which made wall times of the same
job differ by 15 %.  The run's length is still kept by the wall clock.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Warm jobs every untraced process makes, even past its time budget.
MIN_WARM_JOBS = 1


def _cpu_s() -> float:
    """CPU seconds of this process (every thread) and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _import_program():
    sys.path.insert(0, SRC)
    import causalcoh
    where = os.path.realpath(os.path.dirname(causalcoh.__file__))
    if where != os.path.realpath(os.path.join(SRC, "causalcoh")):
        raise ImportError(f"causalcoh imported from {where}, not from {SRC}")


def _run_jobs(workload, jobs, first: int, seconds: float, tracer):
    """Run jobs until the wall-clock budget is spent; traced runs make a
    fixed batch.

    ``times`` holds one entry per attempted job: its CPU time, or ``None``
    when it raised, so that a failed job's time feeds no metric;
    ``durations`` the wall times, for the budget and the log only."""
    durations, times, problems, errors = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            if i >= workload.trace_jobs:
                break
        elif i > MIN_WARM_JOBS:
            typical = statistics.median(durations[1:])
            if time.perf_counter() - start + typical > seconds:
                break
        idx = (first + i) % len(jobs)
        job = jobs[idx]
        i += 1
        if tracer is not None:
            tracer.active = True
        failed = False
        t0, c0 = time.perf_counter(), _cpu_s()
        try:
            out = workload.run(job)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed = True
            errors.append(f"job {idx} raised {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.active = False
        cpu = _cpu_s() - c0
        durations.append(time.perf_counter() - t0)
        times.append(None if failed else cpu)
        if failed:
            continue
        try:
            found = workload.check(job, out)
        except Exception as exc:  # output the checker cannot read is wrong output
            found = [f"unreadable output ({type(exc).__name__}: {exc})"]
        problems += [f"job {idx}: {p}" for p in found]
    return times, durations, problems, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-job", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    _import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    os.makedirs(args.outdir, exist_ok=True)  # run.py removes it
    jobs = workload.setup(args.seed, args.outdir)
    setup_s = _cpu_s()
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    times, walls, problems, errors = _run_jobs(workload, jobs, args.first_job,
                                                args.seconds, tracer)
    result = {
        "problems": problems,
        "errors": errors,
        "setup_s": setup_s,
        "job_times": times,
        "wall_times": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

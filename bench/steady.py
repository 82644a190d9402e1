"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 bench/steady.py --runs 10

Two sets of runs: each set runs every workload of BENCHMARK.json once per
seed (seeds 1..runs), one run after another, untraced, for BENCHMARK.json's
``run_seconds``.  For every workload and end-to-end metric it
prints both sets' medians and quartiles, each set's spread (the quartile
distance over the median) and the drift of the second median from the
first in the worse direction, and whether they keep within the metric's
bound from BENCHMARK.json.  Set-up time's spread is shown but not held to
its bound.  Raw results go to bench/out/steady-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    log_path = os.path.join(BENCH, "out", f"steady-{int(time.time())}.jsonl")
    results = {}
    with open(log_path, "w") as log:
        for s in range(2):
            for w in workloads:
                for seed in range(1, args.runs + 1):
                    r = _one_run(w, seed, spec["run_seconds"])
                    results.setdefault((s, w), []).append(r)
                    log.write(json.dumps({"set": s + 1, "workload": w, "seed": seed, **r}) + "\n")
                    log.flush()
                    print(f"set {s + 1} {w} seed {seed}: {r['wall_s']:.1f} s, "
                          f"correct={r['correct']} attempted={r['attempted']} "
                          f"failed={r['failed']}", file=sys.stderr, flush=True)

    ok = True
    print(f"runs per set: {args.runs}, run seconds: {spec['run_seconds']}")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':12s} {'bound':>5s} | {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} | {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s}"
              f" | {'drift':>7s} verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [_summary([r["metrics"][name]["value"] for r in results[(s, w)]])
                    for s in range(2)]
            line = f"  {name:12s} {bound:5.2f}"
            verdict = True
            for med, q1, q3, spread in sets:
                line += f" | {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.1%}"
                if name != "setup_s" and spread > bound:
                    verdict = False
            m1, m2 = sets[0][0], sets[1][0]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            verdict = verdict and worse <= bound
            line += f" | {worse:+7.1%} {'agree' if verdict else 'DISAGREE'}"
            ok = ok and verdict
            print(line)
        shares = [sorted({r["failed"] / r["attempted"] for r in results[(s, w)]})
                  for s in range(2)]
        correct = all(r["correct"] for s in range(2) for r in results[(s, w)])
        same_share = all(len(sh) == 1 for sh in shares) and len({sh[0] for sh in shares}) == 1
        ok = ok and correct and same_share
        print(f"  correct in every run: {correct}; failed share per set: {shares}")
    print(f"\nraw results: {os.path.relpath(log_path, ROOT)}")
    print("verdict:", "steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

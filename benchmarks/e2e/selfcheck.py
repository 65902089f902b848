#!/usr/bin/env python3
"""Does the benchmark agree with itself?

Runs two alternating sets (A, B, A, B, ...) of every workload on the same
build, each run with another seed, through the command in BENCHMARK.json,
exactly as a driver would. For every workload and end-to-end metric it
prints the two set medians, how much worse B is than A as a share of A,
the spread (interquartile range over median) of all runs, and the metric's
bound. Any breach makes the exit code non-zero. The result is written to
BASELINE.json in this directory under "noise".

    python3 benchmarks/e2e/selfcheck.py [--runs N] [--workloads a,b] [--trace]

--runs N   runs per set (default 3, at least 3)
--trace    also make one traced run per workload and record its per-layer
           metrics under "traced"
"""

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    calib = re.search(r"calib (\d+) us", done.stdout)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, float(calib.group(1)) if calib else None, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()
    if args.runs < 3:
        parser.error("--runs must be at least 3")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        chosen = [w for w in chosen if w in args.workloads.split(",")]
    seconds = spec["run_seconds"]
    noise, traced, breaches = {}, {}, []

    for workload in chosen:
        sets = {"A": [], "B": []}
        calibs, walls = [], []
        for i in range(2 * args.runs):
            values, calib, elapsed = run(spec["command"], workload, args.seed + i, seconds, 0)
            sets["AB"[i % 2]].append(values)
            calibs.append(calib)
            walls.append(round(elapsed, 1))
        print(f"{workload}: host.calib_us per run {calibs}, wall s per run {walls}")
        noise[workload] = {"calib_us": calibs, "wall_s": walls, "runs": sets, "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(v[name] for v in sets["A"])
            b = statistics.median(v[name] for v in sets["B"])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            both = [v[name] for v in sets["A"] + sets["B"]]
            iqr = spread(both)
            ok = worse <= bound and (name == "setup_s" or iqr <= bound)
            if not ok:
                breaches.append(f"{workload} {name}")
            print(
                f"  {name:<16} A {a:>14.4f}  B {b:>14.4f}  B worse by {worse:+7.2%}"
                f"  spread {iqr:6.2%}  bound {bound:.0%}  {'ok' if ok else 'BREACH'}"
            )
            noise[workload]["metrics"][name] = {
                "median_a": a, "median_b": b, "b_worse_by": worse,
                "spread": iqr, "bound": bound, "median": statistics.median(both),
            }
        if args.trace:
            traced[workload], _, _ = run(spec["command"], workload, args.seed, seconds, 1)

    baseline_path = HERE / "BASELINE.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    baseline.setdefault("noise", {}).update(noise)
    if traced:
        baseline.setdefault("traced", {}).update(traced)
    baseline["runs_per_set"] = args.runs
    baseline["box"] = {"nproc": os.cpu_count(), "kernel": platform.release()}
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    if breaches:
        print("breaches: " + ", ".join(breaches))
        return 1
    print("every workload and metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())

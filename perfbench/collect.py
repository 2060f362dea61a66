#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and reduce them to medians and spreads.

    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 --out perfbench/results/BENCH_x.json

Each run is ``perfbench/run.py`` in a fresh interpreter, for the
``run_seconds`` of ``BENCHMARK.json``.  Runs go seed by seed, every workload
once per seed, so a noisy minute on the machine is shared out across
workloads.  ``--workloads`` defaults to those of ``BENCHMARK.json``.

For every end-to-end metric the report holds the values, their median and
quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound.  A spread is flagged
above a third of its bound; ``setup_s`` is exempt, as it is compared by
median only.  ``--baseline`` flags each median that is worse than the one in
an earlier report by more than the bound.  ``--trace-seed`` adds one traced
run per workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import git_commit, nproc  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated names")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--baseline", default=None, help="an earlier report to compare with")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    if args.workloads:
        workloads = args.workloads.split(",")
    else:
        workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failures = {w: 0 for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = run(workload, seed, seconds, 0)
            failures[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())
            ), flush=True)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)["workloads"]
    report = {
        "env": {
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": nproc(),
            "commit": git_commit(),
            "seeds": seeds,
            "seconds": seconds,
        },
        "workloads": {},
    }
    steady = True
    print(f"{'workload':<16} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
    for workload in workloads:
        entry = {"failed": failures[workload], "metrics": {}}
        for name, vals in values[workload].items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]["bound"]
            ok = name == "setup_s" or spread < bound / 3
            note = "" if ok else "  <-- spread above bound/3"
            before = baseline.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = median / before["median"] - 1
                if bounds[name]["better"] == "higher":
                    change = -change
                note += f"  {change:+.1%} vs baseline"
                if change > bound:
                    ok, note = False, note + " <-- worse than the bound"
            steady &= ok
            entry["metrics"][name] = {
                "unit": bounds[name]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": vals,
            }
            print(f"{workload:<16} {name:<12} {median:>12.5g} {q1:>12.5g} {q3:>12.5g}"
                  f" {spread:>8.4f} {bound}{note}")
        if args.trace_seed is not None:
            entry["per_layer"] = run(workload, args.trace_seed, seconds, 1)["metrics"]
        report["workloads"][workload] = entry
    print("steady" if steady else "NOT steady", "| failed:", failures)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if steady and not any(failures.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

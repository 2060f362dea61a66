#!/usr/bin/env python3
"""pow2sums benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload catalog_serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  ``--workload all`` runs every workload, each in its own fresh
interpreter.  ``--trace 0`` measures the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes and
measures its per-layer metrics.  ``--smoke`` swaps in tiny domains for the
self-test.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment and every metric with its unit.  Each run also
writes ``perfbench/out/<workload>-seed<seed>-trace<t>.json`` (and, traced,
the spans of its last traced pass).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from reference import REFERENCE_S, gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("catalog_serial", "catalog_pool", "orbit_vanishing", "deep_query")

# A fresh interpreter imports the library and sweeps a tiny domain.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pow2sums; "
    "pow2sums.run_sweep(pow2sums.SweepSpec('lemma1', 1, 15, 1, 4)); print('ready', flush=True)"
)


@dataclass
class Pass:
    """Measurements of one pass, operation by operation.

    A gauged pass also holds the (wall, CPU) seconds of the reference
    computation run before the first operation and after each one.
    """

    walls: list[float]
    parent_cpus: list[float]
    worker_cpus: list[float]
    cases: int
    gauges: list[tuple[float, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def parent_cpu(self) -> float:
        return sum(self.parent_cpus)

    @property
    def worker_cpu(self) -> float:
        return sum(self.worker_cpus)

    def at_reference_speed(self) -> tuple[list[float], list[float]]:
        """Each operation's wall and CPU seconds at the reference speed.

        An operation's time is divided by the mean of the reference times
        right before and right after it, then multiplied by REFERENCE_S.
        """
        walls, cpus = [], []
        for i, wall in enumerate(self.walls):
            (w0, c0), (w1, c1) = self.gauges[i], self.gauges[i + 1]
            walls.append(wall * REFERENCE_S / ((w0 + w1) / 2))
            cpu = self.parent_cpus[i] + self.worker_cpus[i]
            cpus.append(cpu * REFERENCE_S / ((c0 + c1) / 2))
        return walls, cpus


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def time_setup(gate) -> float:
    """Seconds from starting a fresh interpreter to its 'ready' line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-I", "-c", SETUP_CODE, SRC], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    gate.record(
        proc.returncode == 0 and line.strip() == "ready",
        "setup: a fresh interpreter did not become ready",
    )
    return ready


def cpu_seconds(who: int) -> float:
    """User plus system CPU of this process or of its reaped children."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def timed_pass(workload, gauged: bool = False) -> tuple[Pass, list]:
    """Run and time each operation once; a raised exception is its result.

    ``gauged`` runs the reference computation before the first operation and
    after each one, outside the operations' timed windows.
    """
    sample = Pass([], [], [], 0)
    if gauged:
        sample.gauges.append(gauge())
    results = []
    for i in range(len(workload)):
        parent, workers = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            result = workload.run_op(i)
        except (Exception, SystemExit) as exc:  # counted by workload.check
            result = exc
        sample.walls.append(time.perf_counter() - start)
        sample.parent_cpus.append(cpu_seconds(resource.RUSAGE_SELF) - parent)
        sample.worker_cpus.append(cpu_seconds(resource.RUSAGE_CHILDREN) - workers)
        results.append(result)
        if gauged:
            sample.gauges.append(gauge())
    sample.cases = workload.cases(results)
    return sample, results


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def gauged_setup(gate, before: tuple[float, float]) -> float:
    """One set-up time at the reference speed, gauged before and after."""
    ready = time_setup(gate)
    after = gauge()
    return ready * REFERENCE_S / ((before[0] + after[0]) / 2)


def end_to_end(workload, gate, seconds: float) -> dict[str, float]:
    """Gauged passes for the given seconds, one fresh-interpreter set-up after each.

    Other tenants of the machine slow it by up to 1.9x, in stretches from
    seconds to minutes, so every time is taken at the reference speed (see
    ``reference.py``).  A pass is the sum over its operations of each one's
    median time at that speed, and set-up time is the median of its samples
    over the whole run.  The raw times are printed alongside.
    """
    samples: list[Pass] = []
    setups: list[float] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        sample, results = timed_pass(workload, gauged=True)
        workload.check(results, gate)
        samples.append(sample)
        setups.append(gauged_setup(gate, sample.gauges[-1]))
    while len(setups) < 5:
        setups.append(gauged_setup(gate, gauge()))
    scaled = [s.at_reference_speed() for s in samples]
    wall = sum(statistics.median(w[i] for w, _ in scaled) for i in range(len(workload)))
    cpu = sum(statistics.median(c[i] for _, c in scaled) for i in range(len(workload)))
    raw = statistics.median(s.wall for s in samples)
    reference_s = statistics.median(w for s in samples for w, _ in s.gauges)
    print(f"{len(samples)} passes; median raw pass {raw:.4f} s, reference {reference_s:.4f} s")
    print("wall s at reference speed: " + " ".join(f"{sum(w):.3f}" for w, _ in scaled))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cases_per_s": samples[-1].cases / wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, gate, seconds: float, smoke: bool, spans_path: str) -> dict[str, float]:
    """Alternate untraced and traced passes, then run the standalone probes.

    Span metrics come from the fastest traced pass and the CPU split from
    the fastest untraced pass; the spans written out are the last pass's.
    """
    from tracing import Tracer, layer_metrics, probe_layers

    tracer = Tracer()
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        sample, results = timed_pass(workload)
        workload.check(results, gate)
        plain.append(sample)

        tracer.clear()
        tracer.install()
        try:
            traced_sample, traced_results = timed_pass(workload)
        finally:
            tracer.uninstall()
        workload.check(traced_results, gate)
        gate.record(
            workload.fingerprint(traced_results) == workload.fingerprint(results),
            "traced output differs from the untraced output",
        )
        layers = layer_metrics(tracer.summary(), traced_sample.cases)
        layers["cli.output_bytes"] = workload.output_bytes(traced_results)
        traced.append((traced_sample, layers))
    print(f"pass pairs: {len(traced)}, spans in the last traced pass: {len(tracer.names)}")
    tracer.write(spans_path)

    best_traced, metrics = min(traced, key=lambda t: t[0].wall)
    best = min(plain, key=lambda s: s.wall)
    metrics["sweep.parent_cpu_s"] = best.parent_cpu
    metrics["sweep.worker_cpu_s"] = best.worker_cpu
    metrics["sweep.cpu_util"] = (best.parent_cpu + best.worker_cpu) / (workload.jobs * best.wall)
    metrics["trace.overhead_ratio"] = best_traced.wall / best.wall
    metrics.update(probe_layers(min_calls=1, budget_s=0.02) if smoke else probe_layers())
    return metrics


def run_one(args) -> dict:
    from workloads import Gate, build

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    jobs = min(2, nproc())
    workload = build(args.workload, args.seed, jobs, args.smoke)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "jobs": workload.jobs,
        "nproc": nproc(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": git_commit(),
    }
    print("env: " + json.dumps(env, sort_keys=True))
    gate = Gate()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        measured = per_layer(workload, gate, args.seconds, args.smoke, stem + "-spans.csv.gz")
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(workload, gate, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<42} {gate.failed_ratio:.6g} ({gate.failed} of {gate.attempted})")
    for note in gate.notes:
        print(f"gate: {note}", file=sys.stderr)
    with open(stem + ".json", "w") as f:
        json.dump(
            {"env": env, "metrics": metrics, "failed_ratio": gate.failed_ratio, "gate": gate.notes},
            f,
            indent=2,
            sort_keys=True,
        )
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own interpreter; metrics are named workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny domains, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pow2sums", "__init__.py")):
        print(f"perfbench: the pow2sums sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

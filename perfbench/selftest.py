#!/usr/bin/env python3
"""Self-test of the benchmark on tiny domains; takes well under a minute.

    python3 perfbench/selftest.py

Checks that every workload runs and passes its gate, that each run prints
every metric of ``BENCHMARK.json`` with its unit, that traced and untraced
outputs match (the traced run counts a mismatch as a failure), that a
tampered or raising result is counted as failed, and that the benchmark
exits non-zero without a result when the library sources are missing.
It is a plain script, not a pytest module, so the repository's test suite
does not collect it.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from workloads import Gate, build  # noqa: E402


def run_all(trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--smoke",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_metrics(result: dict, wanted: list[dict], trace: int) -> None:
    assert result["correct"] and result["failed"] == 0, f"trace {trace}: {result['failed']} failed"
    assert result["attempted"] >= len(WORKLOADS)
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in wanted
    }
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, sorted(set(got) ^ set(expected))
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def check_tampering() -> None:
    """A wrong or raising result must land in the failed count."""
    for name in WORKLOADS:
        workload = build(name, seed=7, jobs=1, smoke=True)
        results = [workload.run_op(i) for i in range(len(workload))]
        clean = Gate()
        workload.check(results, clean)
        assert clean.failed == 0, clean.notes

        raised = [RuntimeError("injected")] + results[1:]
        tampered = list(results)
        if name == "deep_query":
            code, text = tampered[0]
            record = json.loads(text)
            record["omega"] *= 2
            tampered[0] = (code, json.dumps(record))
        else:
            tampered[0].tallies["holds"] -= 1
        for bad in (raised, tampered):
            gate = Gate()
            workload.check(bad, gate)
            assert gate.failed == 1 and gate.failed_ratio > 0, (name, gate.notes)


def check_missing_program() -> None:
    """Without src/, the benchmark must exit non-zero and print no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for entry in os.listdir(HERE):
        if entry.endswith(".py"):
            shutil.copy(os.path.join(HERE, entry), os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_tampering()
    print("ok: tampered and raising results are counted as failed")
    check_missing_program()
    print("ok: exits non-zero without a result when the sources are missing")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        check_metrics(run_all(trace), spec[key], trace)
        print(f"ok: --trace {trace} reports every {key} metric for every workload, all correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())

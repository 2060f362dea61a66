#!/usr/bin/env python3
"""Mutation gate: small deliberate bugs that named tests must catch.

Usage: python tools/mutants.py

Each mutant is an exact (file, old text, new text) replacement plus the
pytest node ids that must kill it.  The gate checks that every old text
occurs exactly once, runs every named test on an unmutated copy of src/
and tests/, and then applies each mutant in a fresh temporary copy and
runs `pytest -x -q` on its ids.  A mutant is killed when those tests
fail.  The known equivalent mutants change no result, each for the
reason given; they run as controls and must survive.

Exit 1 on a surviving mutant, a killed equivalent, an old text that does
not occur exactly once, or a named test that does not pass unmutated.  A
survivor is fixed by a test, not by dropping the mutant.  Stdlib only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
# a mutant whose tests run longer than this is counted as killed (a hang)
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: Optional[str] = None  # why it changes no result


EXP = "src/pow2sums/exp_sum.py"
CLI = "src/pow2sums/cli.py"
SWEEP = "src/pow2sums/sweep.py"
T_EXP = "tests/test_exp_sum.py::"
T_CLI = "tests/test_cli.py::"
T_SWEEP = "tests/test_sweep.py::"
DENSE = T_EXP + "test_dense_decider_agrees_with_the_multiset_route"
SWITCH = T_EXP + "test_dense_decider_switches_route_above_the_cap"

MUTANTS = [
    # the dense table decider and the expsum certificate
    Mutant("decider-half-split-off-by-one", EXP,
           "    if table[:half] == table[half:]:\n        return None",
           "    if table[:half - 1] == table[half:-1]:\n        return None",
           (DENSE,)),
    Mutant("certificate-half-split-off-by-one", EXP,
           "    if table[:half] == table[half:]:\n        # a vanishing",
           "    if table[:half - 1] == table[half:-1]:\n        # a vanishing",
           (DENSE,)),
    Mutant("table-walk-starts-at-1", EXP,
           "    cur = w & mask\n", "    cur = 1\n",
           (DENSE,)),
    Mutant("decider-route-switch-at-the-cap", EXP,
           "    if n > LITERAL_EXPONENT_CAP:\n        orbit = residue_orbit(g, w, n)\n        if",
           "    if n >= LITERAL_EXPONENT_CAP:\n        orbit = residue_orbit(g, w, n)\n        if",
           (SWITCH,)),
    Mutant("certificate-route-switch-at-the-cap", EXP,
           "    if n > LITERAL_EXPONENT_CAP:\n        orbit = residue_orbit(g, w, n)\n        value",
           "    if n >= LITERAL_EXPONENT_CAP:\n        orbit = residue_orbit(g, w, n)\n        value",
           (SWITCH,)),
    Mutant("decider-offender-is-the-weight", EXP,
           "    r = w * g & ((1 << n) - 1)\n", "    r = w & ((1 << n) - 1)\n",
           (DENSE,)),
    Mutant("certificate-offender-is-the-weight", EXP,
           "violating_residue=w * g & (m - 1)", "violating_residue=w & (m - 1)",
           (T_CLI + "test_expsum_command_nonzero_case", DENSE)),
    Mutant("decider-offender-is-the-least-residue", EXP,
           "    return r, table[r], table[r ^ half]",
           "    r = table.index(next(filter(None, table)))\n    return r, table[r], table[r ^ half]",
           (DENSE,)),
    Mutant("certificate-offender-is-the-least-residue", EXP,
           "violating_residue=w * g & (m - 1)", "violating_residue=residues[0]",
           (T_CLI + "test_table_format", DENSE)),
    Mutant("pairing-one-row-too-long", EXP,
           "k = len(residues) >> 1", "k = (len(residues) >> 1) + 1",
           (T_CLI + "test_table_format", DENSE)),
    Mutant("float-without-multiplicities", EXP,
           "sum(c * cmath.exp(2j * math.pi * r / m) for r, c in zip(residues, counts))",
           "sum(cmath.exp(2j * math.pi * r / m) for r, c in zip(residues, counts))",
           (DENSE,)),
    Mutant("terms-as-distinct-residues", EXP,
           "return OrbitCertificate(omega, cert, value)",
           "return OrbitCertificate(len(residues), cert, value)",
           (DENSE,)),
    Mutant("min-vanishing-on-the-multiset-route", EXP,
           "if _unpaired(g, w, n, _order_column(g, n, n)[0][0]) is None:",
           "if is_exact_zero(residue_orbit(g, w, n)).is_zero:",
           (T_EXP + "test_min_vanishing_n_decides_from_the_table_below_the_cap",)),
    Mutant("min-vanishing-starts-one-late", EXP,
           "range(two_adic_valuation(w) + 2, n_max + 1)",
           "range(two_adic_valuation(w) + 3, n_max + 1)",
           (T_EXP + "test_min_vanishing_n_examples", T_CLI + "test_min_vanishing_command")),
    Mutant("orbit-decision-and-to-or", EXP,
           "if unpaired is None and guard_holds:", "if unpaired is None or guard_holds:",
           ("tests/test_claim_records.py::test_orbit_vanishing_records_the_unpaired_residue",)),
    Mutant("literal-orbit-cap-one-short", EXP,
           "if omega > 1 << (LITERAL_EXPONENT_CAP - 2):",
           "if omega >= 1 << (LITERAL_EXPONENT_CAP - 2):",
           (T_EXP + "test_literal_orbit_is_capped",)),
    # the single-query cell rule
    Mutant("cell-rule-drops-tuples", CLI,
           "isinstance(v, (list, tuple))", "isinstance(v, list)",
           (T_CLI + "test_table_format", T_CLI + "test_csv_format_single_query")),
    Mutant("table-skips-the-cell-rule", CLI,
           "for k, cell in zip(keys, cells)", "for k, cell in zip(keys, map(record.get, keys))",
           (T_CLI + "test_table_format",)),
    Mutant("csv-cells-unquoted", CLI,
           'csv.writer(sys.stdout, lineterminator="\\n").writerows([keys, cells])',
           'print(",".join(keys))\n        print(",".join(cells))',
           (T_CLI + "test_csv_format_single_query",)),
    # sweep slicing and the pool
    Mutant("overlapping-g-slices", SWEEP,
           "g_max=min(g + 2 * run - 2, spec.g_max)", "g_max=min(g + 2 * run, spec.g_max)",
           (T_SWEEP + "test_pool_jobs_are_sub_specs",)),
    Mutant("short-w-slices", SWEEP,
           "w_max=min(w + run - 1, spec.w_max)", "w_max=min(w + run - 2, spec.w_max)",
           (T_SWEEP + "test_pool_jobs_are_sub_specs",)),
    Mutant("pool-not-bounded-by-the-cpu-count", SWEEP,
           "min(spec.jobs, len(slices), os.cpu_count() or 1)", "min(spec.jobs, len(slices))",
           (T_SWEEP + "test_pool_size_is_bounded_by_the_cpu_count",)),
    Mutant("wrong-first-n", SWEEP,
           "max(spec.n_min, g.bit_length())", "max(spec.n_min, g.bit_length() + 1)",
           (T_SWEEP + "test_run_sweep_counts_whole_domain",)),
    Mutant("top-g-dropped", SWEEP,
           "return range(lo | 1, hi + 1, 2)", "return range(lo | 1, hi, 2)",
           (T_SWEEP + "test_run_sweep_counts_whole_domain",)),
    # known equivalents: run as controls, they must survive
    Mutant("table-multiplier-unreduced", EXP,
           "    s = g & mask\n    cur = w & mask\n", "    s = g\n    cur = w & mask\n",
           (DENSE,),
           equivalent="cur * g & mask is cur * (g & mask) & mask: both are the product "
                      "modulo 2^n, and Python's & reduces a negative g the same way"),
    Mutant("exact-zero-half-count-at-least", EXP,
           "if 2 * len(matched) == len(items):", "if 2 * len(matched) >= len(items):",
           (T_EXP + "test_is_exact_zero_agrees_with_cyclotomic_reduction",
            T_EXP + "test_is_exact_zero_matches_the_pairwise_walk"),
           equivalent="each matched lower residue pairs with a distinct occupied upper "
                      "residue, so twice the matched count never exceeds the occupied count"),
]


def stale(mutants: list[Mutant]) -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    messages = []
    for m in mutants:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            messages.append(f"{m.name}: old text occurs {found} times in {m.path}, not once")
    return messages


def run_tests(tree: Path, tests: tuple[str, ...]) -> Optional[int]:
    """pytest's exit code for the tests in tree, or None past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    problems = stale(MUTANTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    start = time.perf_counter()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp, "clean")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, clean / part, ignore=shutil.ignore_patterns("__pycache__"))
        code = run_tests(clean, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exit {code})", file=sys.stderr)
            return 1
        for m in MUTANTS:
            tree = Path(tmp, m.name)
            shutil.copytree(clean, tree)
            target = tree / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            code = run_tests(tree, m.tests)
            shutil.rmtree(tree)
            # pytest exits 1 when a test fails; a hang counts as a kill
            killed = code in (None, 1)
            outcome = "killed" if code == 1 else "killed (timeout)" if killed else "survived"
            if code not in (None, 0, 1):
                outcome, bad = f"error (pytest exit {code})", True
            elif m.equivalent:
                outcome, bad = outcome + " (listed as equivalent)", killed
            else:
                bad = not killed
            failed += bad
            print(f"{'FAIL' if bad else 'ok  '}  {m.name}: {outcome} in {time.perf_counter() - t0:.1f} s")
    print(f"{len(MUTANTS)} mutants, {failed} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Mutation gate: small deliberate bugs that named tests must catch.

Usage: python tools/mutants.py [NAME ...]

With names, only those mutants run; the stale-text check still covers
the whole table.  Each mutant is an exact (file, old text, new text) replacement plus the
pytest node ids that must kill it.  The gate checks that every old text
occurs exactly once, runs every named test on an unmutated copy of src/
and tests/, and then applies each mutant in a fresh temporary copy and
runs `pytest -x -q` on its ids.  A mutant is killed when those tests
fail, or when they run longer than twice the unmutated run (at most
TIMEOUT_S), which is taken for a hang.  The known equivalent mutants
change no result, each for the reason given; they run as controls and
must survive.

Exit 1 on a surviving mutant, a killed equivalent, an old text that does
not occur exactly once, or a named test that does not pass unmutated, and
exit 2 on a NAME that is not in the table.  A survivor is fixed by a test,
not by dropping the mutant.  Stdlib only.
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
# a mutant whose tests run longer than twice the unmutated run of every
# named test, or than this, is counted as killed (a hang)
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
ORDER = "src/pow2sums/order_engine.py"
HALF = "src/pow2sums/half_order.py"
T_EXP = "tests/test_exp_sum.py::"
T_CLI = "tests/test_cli.py::"
T_SWEEP = "tests/test_sweep.py::"
T_ORDER = "tests/test_order_engine.py::"
T_HALF = "tests/test_half_order.py::"
DENSE = T_EXP + "test_dense_decider_agrees_with_the_multiset_route"
SWITCH = T_EXP + "test_dense_decider_switches_route_above_the_cap"
STRUCT = T_EXP + "test_structural_decider_agrees_with_the_multiset_route"
GROUPED = T_EXP + "test_subgroup_run_agrees_with_each_tuples_own_table"
A_GROUP = T_EXP + "test_a_group_decides_each_weight_for_the_h_whose_met_holds_it"
IDENT = T_EXP + "test_each_sum_is_decided_by_its_subgroup_modulo_2_to_the_m"
IDENT_SWEEP = T_EXP + "test_theorem6_sweep_reports_each_tuple_as_its_literal_orbit"
ONE_DECIDER = T_EXP + "test_one_decider_for_a_run_of_weights_on_both_sides_of_the_cap"
CLASS_SUM = T_EXP + "test_a_run_of_valuation_classes_is_the_sum_of_its_one_weight_runs"
LEAST_MET = T_EXP + "test_a_run_above_the_cap_walks_each_column_from_its_least_met_m"
ALIKE = T_EXP + "test_the_run_and_the_certificate_decide_alike_from_their_tables"
ONE_BYTE = T_EXP + "test_a_table_at_the_cap_holds_one_byte_per_counter"
T_WALK = T_ORDER + "test_order_column_t_walk_equals_the_chain"
STRADDLE = T_ORDER + "test_order_column_straddles_the_walk_switch"
ABOVE = T_EXP + "test_half_order_and_antipodal_shift_above_the_walk_switch"
ANGLE_SUM = T_EXP + "test_float_value_is_the_literal_angle_sum"
BUDGET = T_ORDER + "test_naive_scan_budget_counts_the_words_of_each_product"
PER_ORBIT = "tests/test_claim_records.py::test_orbit_sweep_builds_at_most_one_orbit_per_tuple"
RECORDS = "tests/test_claim_records.py::test_orbit_vanishing_records_the_unpaired_residue"
SHIFT = T_ORDER + "test_order_column_t_walk_shifts_once_its_square_vanishes"
SHORT = T_SWEEP + "test_a_run_one_tally_short_raises"
PARTITION = T_SWEEP + "test_pool_jobs_partition_the_domain"
AGREE = T_SWEEP + "test_per_modulus_runs_agree_with_the_public_checks"
AT_LIMIT = T_SWEEP + "test_lemma1_at_the_exponent_limit_is_tallied_not_raised"
LIMIT_AT_CALL = T_SWEEP + "test_lemma1_reads_the_exponent_limit_at_call_time"
BOUNDED = "tests/test_bounded_calls.py::test_every_public_call_is_bounded_or_raises_a_typed_error"

MUTANTS = [
    # the dense table decider and the expsum certificate
    Mutant("decider-half-split-off-by-one", EXP,
           "    half = len(table) >> 1\n    return half > 1",
           "    half = (len(table) >> 1) - 1\n    return half > 1",
           (DENSE,)),
    Mutant("certificate-half-split-off-by-one", EXP,
           "paired = _paired(table)\n", "paired = _paired(table[:-1])\n",
           (DENSE,)),
    Mutant("table-walk-starts-at-1", EXP,
           "    cur = w & mask\n", "    cur = 1\n",
           (DENSE,)),
    Mutant("decider-route-switch-at-the-cap", EXP,
           "if n <= LITERAL_EXPONENT_CAP and m > 0:", "if n < LITERAL_EXPONENT_CAP and m > 0:",
           (SWITCH,)),
    Mutant("certificate-route-switch-at-the-cap", EXP,
           "    if n > LITERAL_EXPONENT_CAP:\n        r = None if _vanishes",
           "    if n >= LITERAL_EXPONENT_CAP:\n        r = None if _vanishes",
           (SWITCH,)),
    Mutant("vanishing-certificate-names-the-first-term", EXP,
           "ZeroCertificate(r is None, violating_residue=r), None)",
           "ZeroCertificate(r is None, violating_residue=w * g & ((1 << n) - 1)), None)",
           (SWITCH, STRUCT)),
    Mutant("decider-offender-is-the-weight", EXP,
           "    r = w * g & ((1 << n) - 1)\n", "    r = w & ((1 << n) - 1)\n",
           (DENSE, SWITCH, ONE_DECIDER, STRUCT)),
    Mutant("certificate-offender-is-the-weight", EXP,
           "violating_residue=w * g & ((1 << n) - 1)", "violating_residue=w & ((1 << n) - 1)",
           (T_CLI + "test_expsum_command_nonzero_case", DENSE)),
    Mutant("decider-offender-is-the-least-residue", EXP,
           "    return r, k * table[s], ",
           "    r = table.index(next(filter(None, table)))\n"
           "    return r, k * table[s], ",
           (DENSE,)),
    # the offender's counts, read from the table of <g> mod 2^m at g and its antipode
    Mutant("collapsed-exponent-taken-as-n", EXP,
           "    m = n - two_adic_valuation(w)\n    if n <=", "    m = n\n    if n <=",
           (STRUCT, IDENT)),
    Mutant("offender-read-at-the-cofactor", EXP,
           "s, half = g & len(table) - 1, ",
           "s, half = r >> n - len(table).bit_length() + 1 & len(table) - 1, ",
           (DENSE, IDENT_SWEEP)),
    Mutant("antipode-read-at-the-residue", EXP,
           "k * table[s ^ half]", "k * table[s]",
           (DENSE, IDENT_SWEEP)),
    # theorem6 below the cap: one table per subgroup <g> mod 2^m
    Mutant("offender-count-without-k", EXP,
           "k = omegas[n - lo] // omegas[m - lo]\n", "k = 1\n",
           (IDENT_SWEEP, GROUPED, T_EXP + "test_structural_decider_matches_the_exact_value")),
    Mutant("verdict-keyed-by-n", EXP,
           "at = [(m + d, c) for d, c in classes.items() if lo",
           "at = [(m, c) for d, c in classes.items() if lo",
           (IDENT_SWEEP, GROUPED)),
    # the valuation classes: one step holds a class, a reported weight is visited alone
    Mutant("class-held-once-not-per-weight", EXP,
           "return at, sum(len(c) for _, c in at)", "return at, len(at)",
           (CLASS_SUM, T_SWEEP + "test_run_sweep_theorem6_domain")),
    Mutant("unmet-counted-per-class", EXP,
           "unmet += sum(len(c) * (min(", "unmet += sum(1 * (min(",
           (CLASS_SUM, T_SWEEP + "test_run_sweep_theorem6_domain")),
    Mutant("details-for-a-class-first-weight-only", EXP,
           "                for w in c:\n", "                for w in c[:1]:\n",
           (CLASS_SUM, IDENT_SWEEP)),
    Mutant("class-met-at-another-class-n", EXP,
           "for d, c in classes.items() if lo",
           "for d, c in zip(sorted(classes), classes.values()) if lo",
           (CLASS_SUM, IDENT_SWEEP)),
    Mutant("shared-membership-filter-dropped", EXP,
           "joins = run[2][m - 1] == omegas[m - 1] and table[run[0] & low]",
           "joins = True",
           (GROUPED, PER_ORBIT)),
    Mutant("subgroup-order-check-dropped", EXP,
           "run[2][m - 1] == omegas[m - 1] and table[run[0] & low]", "table[run[0] & low]",
           (GROUPED,)),
    Mutant("subgroup-table-reused-across-m", EXP,
           "table = _orbit_table(lead, 1, m, omegas[m - 1])",
           "table = _orbit_table.__dict__.setdefault(\n"
           "                lead, _orbit_table(lead, 1, m, omegas[m - 1]))",
           (GROUPED,)),
    Mutant("group-decides-its-leader-only", EXP,
           "tally(group, m, 1, at, ", "tally(group[:1], m, 1, at, ",
           (GROUPED, A_GROUP)),
    Mutant("sweep-table-kept-across-groups", EXP,
           "            table = None\n    return held, unmet, details\n",
           "    return held, unmet, details\n",
           (T_SWEEP + "test_theorem6_sweep_keeps_one_orbit_table_alive",)),
    Mutant("paired-at-the-one-counter-half", EXP,
           "return half > 1 and", "return half > 0 and",
           (DENSE, T_EXP + "test_paired_compares_the_halves_of_an_odd_coset")),
    Mutant("paired-against-a-slice-at-0", EXP,
           "table[1:half:2] == table[half + 1::2]", "table[1:half:2] == table[0:half:2]",
           (DENSE, ALIKE)),
    # the tables are bytearrays of one counter per residue
    Mutant("table-one-counter-short", EXP,
           "    table = bytearray(mask + 1)\n", "    table = bytearray(mask)\n",
           (DENSE, ALIKE)),
    Mutant("table-counted-in-a-list", EXP,
           "    table = bytearray(mask + 1)\n", "    table = [0] * (mask + 1)\n",
           (ONE_BYTE, T_SWEEP + "test_theorem6_sweep_keeps_one_orbit_table_alive")),
    Mutant("strided-pairing-drops-the-last-pair", EXP,
           "table[1:half:2] == table[half + 1::2]",
           "table[1:half - 1:2] == table[half + 1:-1:2]",
           (DENSE,)),
    Mutant("bounds-ignore-the-weight-valuation", EXP,
           "len(c) * (min(max(d + base, ns.start)", "len(c) * (min(max(base, ns.start)",
           (T_SWEEP + "test_run_sweep_theorem6_domain",)),
    Mutant("certificate-offender-is-the-least-residue", EXP,
           "violating_residue=w * g & ((1 << n) - 1)", "violating_residue=residues[0]",
           (T_CLI + "test_table_format", DENSE)),
    # the certificate lists the coset w0 <g> mod 2^m scaled by 2^d
    Mutant("cofactors-not-scaled-by-2-to-the-d", EXP,
           "range(1 << d, 1 << n, 2 << d)", "range(1, 1 << m, 2)",
           (ANGLE_SUM, T_CLI + "test_expsum_command")),
    Mutant("counts-not-multiplied-by-k", EXP,
           "    k = omega // len(residues)\n", "    k = 1\n",
           (DENSE,)),
    Mutant("certificate-table-at-m-0", EXP,
           "    if m > 0:\n        # r = s * 2^d", "    if m >= 0:\n        # r = s * 2^d",
           (ANGLE_SUM, DENSE)),
    Mutant("pairing-one-row-too-long", EXP,
           "repeat(k)), len(residues) >> 1)", "repeat(k)), (len(residues) >> 1) + 1)",
           (T_CLI + "test_table_format", DENSE)),
    Mutant("float-without-multiplicities", EXP,
           "sum(map(cmath.rect, repeat(k), ", "sum(map(cmath.rect, repeat(1), ",
           (DENSE, T_EXP + "test_float_value_is_the_bits_of_the_complex_exponential_sum")),
    Mutant("terms-as-distinct-residues", EXP,
           "return OrbitCertificate(omega, cert, value)",
           "return OrbitCertificate(len(residues), cert, value)",
           (DENSE,)),
    Mutant("min-vanishing-on-the-multiset-route", EXP,
           "if _vanishes(g, w, n, column):",
           "if is_exact_zero(residue_orbit(g, w, n)).is_zero:",
           (T_EXP + "test_min_vanishing_n_decides_from_the_table_below_the_cap",)),
    Mutant("min-vanishing-starts-one-late", EXP,
           "range(two_adic_valuation(w) + 2, n_max + 1)",
           "range(two_adic_valuation(w) + 3, n_max + 1)",
           (T_EXP + "test_min_vanishing_n_examples", T_CLI + "test_min_vanishing_command")),
    Mutant("min-vanishing-never-walks-past-the-bound", EXP,
           "        if n > len(column):\n", "        if False:\n",
           (T_EXP + "test_min_vanishing_n_walks_its_column_only_to_the_bound",)),
    Mutant("multiset-guard-one-above-the-limit", EXP,
           "if not 0 <= self.n <= core_arith.MAX_EXPONENT:",
           "if not 0 <= self.n <= core_arith.MAX_EXPONENT + 1:",
           (T_EXP + "test_multiset_exponent_is_guarded",)),
    # the congruence above the cap
    Mutant("structural-involution-is-half-minus-one", EXP,
           "m >= 2 and column[m - 1][1] == (1 << (m - 1)) + 1",
           "m >= 2 and column[m - 1][1] == (1 << (m - 1)) - 1",
           (STRUCT,)),
    Mutant("run-congruence-read-at-n", EXP,
           "column[m - lo][1] == (1 << (m - 1)) + 1, None)",
           "column[at[0][0] - lo][1] == (1 << (at[0][0] - 1)) + 1, None)",
           (IDENT_SWEEP, ONE_DECIDER)),
    # wholly above the cap a column starts at the least met m, lo
    Mutant("run-column-starts-one-above-lo", EXP,
           "max(base, ns.start - max(classes))", "max(base, ns.start - max(classes)) + 1",
           (LEAST_MET,)),
    Mutant("run-congruence-row-read-at-lo-minus-1", EXP,
           "column[m - lo][1] == (1 << (m - 1)) + 1, None)",
           "column[m - lo + 1][1] == (1 << (m - 1)) + 1, None)",
           (LEAST_MET,)),
    Mutant("run-count-read-at-lo-minus-1", EXP,
           "k = omegas[n - lo] // omegas[m - lo]\n", "k = omegas[n - lo + 1] // omegas[m - lo + 1]\n",
           (LEAST_MET,)),
    Mutant("run-congruence-skips-the-base", EXP,
           "            if m >= base:\n", "            if m > base:\n",
           (ONE_DECIDER,)),
    Mutant("run-decision-reused-for-the-next-m", EXP,
           "column[m - lo][1] == (1 << (m - 1)) + 1, None)",
           "_vanishes.__dict__.setdefault(\n"
           "                      g, column[m - lo][1] == (1 << (m - 1)) + 1), None)",
           (ONE_DECIDER,)),
    Mutant("orbit-decision-and-to-or", EXP,
           "if paired and h & low not in (1, low):", "if paired or h & low not in (1, low):",
           (RECORDS,)),
    Mutant("theorem6-unmet-skips-one-n", EXP,
           "min(max(d + base, ns.start), ns.stop) - ns.start)",
           "min(max(d + base, ns.start + 1), ns.stop) - ns.start - 1)",
           (T_SWEEP + "test_run_sweep_theorem6_domain",)),
    Mutant("theorem6-detail-names-the-first-weight", EXP,
           "details.append((h, n, w, ", "details.append((h, n, c[0], ",
           (T_SWEEP + "test_theorem6_run_agrees_with_the_public_check",)),
    Mutant("literal-orbit-cap-one-short", EXP,
           "if omega > 1 << (LITERAL_EXPONENT_CAP - 2):",
           "if omega >= 1 << (LITERAL_EXPONENT_CAP - 2):",
           (T_EXP + "test_literal_orbit_is_capped",)),
    # the order column and the doubling law
    Mutant("column-loop-off-by-one", ORDER,
           "    for n in range(n_lo, n_hi + 1):\n        low = (1 << n) - 1\n        while (s - 1)",
           "    for n in range(n_lo, n_hi + 2):\n        low = (1 << n) - 1\n        while (s - 1)",
           (T_ORDER + "test_order_column_equals_one_chain_per_exponent", STRADDLE)),
    Mutant("t-walk-loop-off-by-one", ORDER,
           "        for n in range(n_lo, n_hi + 1):\n            low = (1 << n) - 1\n            while sq",
           "        for n in range(n_lo, n_hi + 2):\n            low = (1 << n) - 1\n            while sq",
           (T_ORDER + "test_order_column_at_the_exponent_limit", STRADDLE)),
    Mutant("t-walk-square-one-bit-short", ORDER,
           "t, k, sq, half = (g - 1) & mask, 1, mask >> 2, 0",
           "t, k, sq, half = (g - 1) & mask, 1, mask >> 3, 0",
           (T_WALK,)),
    Mutant("t-walk-residue-is-t", ORDER,
           "column.append((1 << (k - 1), (half + 1) & low))",
           "column.append((1 << (k - 1), half & low))",
           (STRADDLE, ABOVE)),
    Mutant("t-walk-shift-one-step-too-far", ORDER,
           "half, t, k = t << (r - 1), t << r & mask, k + r",
           "half, t, k = t << r, t << r & mask, k + r",
           (SHIFT, STRADDLE)),
    Mutant("t-walk-k-advanced-by-2", ORDER,
           "                k += 1\n", "                k += 2\n",
           (STRADDLE, ABOVE)),
    Mutant("column-wrong-chain-residue", ORDER,
           "column.append((omega, half & low))", "column.append((omega, s & low))",
           ("tests/test_half_order.py::test_half_order_residue_examples",)),
    Mutant("doubling-drops-the-plus-minus-one-check", ORDER,
           "if g & low in (1, low) or above is None:", "if above is None:",
           (T_SWEEP + "test_run_sweep_counts_whole_domain",)),
    Mutant("doubling-met-past-the-exponent-limit", ORDER,
           "if g & low in (1, low) or above is None:", "if g & low in (1, low):",
           (AT_LIMIT, LIMIT_AT_CALL)),
    Mutant("naive-scan-multiplier-unsigned", ORDER,
           "        x = x * t & mask\n", "        x = x * s & mask\n",
           (T_ORDER + "test_naive_scan_multiplies_by_the_signed_representative",)),
    Mutant("budget-not-scaled-by-the-multipliers-width", ORDER,
           "(max(64, t.bit_length()) * n)", "(64 * n)", (BUDGET,)),
    Mutant("budget-not-scaled-by-the-modulus-width", ORDER,
           "(max(64, t.bit_length()) * n)", "(max(64, t.bit_length()) * 64)", (BUDGET,)),
    Mutant("naive-scan-skips-its-first-product", ORDER,
           "    x = s\n", "    x = s * t & mask\n",
           (T_ORDER + "test_order_examples", BOUNDED)),
    Mutant("scan-range-one-short-of-the-cap", ORDER,
           "for k in range(1, cap + 1):", "for k in range(1, cap):",
           (T_ORDER + "test_naive_scan_cap",)),
    # the half-order checkers' direct residue tests
    Mutant("membership-drops-half-minus-one", HALF,
           "if residue in (2 * top - 1, top - 1, top + 1):",
           "if residue in (2 * top - 1, top + 1):",
           (T_HALF + "test_involution_membership_examples",)),
    Mutant("minus-one-case-tests-half-plus-one", HALF,
           "    if residue != (1 << n) - 1:\n",
           "    if residue != (1 << (n - 1)) + 1:\n",
           (T_HALF + "test_minus_one_case_examples",)),
    Mutant("classification-wants-half-minus-one", HALF,
           "want = g if g == (1 << n) - 1 else (1 << (n - 1)) + 1",
           "want = g if g == (1 << n) - 1 else (1 << (n - 1)) - 1",
           (T_HALF + "test_classification_checker_examples",)),
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
    # the query registry
    Mutant("query-option-not-required", CLI,
           'p.add_argument(f"--{option}", type=int, required=True)',
           'p.add_argument(f"--{option}", type=int)',
           (T_CLI + "test_query_options_are_required",
            T_CLI + "test_module_entry_point_usage_error_exit_code")),
    Mutant("query-record-bound-late", CLI,
           "run=lambda args, record=record: _emit(", "run=lambda args: _emit(",
           (T_CLI + "test_table_format", T_CLI + "test_csv_format_single_query")),
    # sweep slicing and the pool
    Mutant("overlapping-g-runs", SWEEP,
           "gs[i * len(gs) // k:(i + 1) * len(gs) // k]",
           "gs[i * len(gs) // k:(i + 1) * len(gs) // k + 1]",
           (PARTITION,)),
    Mutant("one-slice-per-worker", SWEEP,
           "k = min(4 * workers, len(gs), -(-len", "k = min(workers, len(gs), -(-len",
           (PARTITION,)),
    Mutant("slices-not-capped-by-the-g-count", SWEEP,
           "k = min(4 * workers, len(gs), -(-len", "k = min(4 * workers, -(-len",
           (PARTITION, T_SWEEP + "test_a_one_g_sweep_runs_inline_whatever_its_chunk_count")),
    Mutant("chunks-counted-from-the-real-tuples", SWEEP,
           "-(-len(gs) * len(ws) * len(ns) // _CHUNK_TUPLES)",
           "-(-len(ws) * sum(len(range(gs.start, min(gs.stop, 1 << n), 2)) for n in ns)"
           " // _CHUNK_TUPLES)",
           (PARTITION,)),
    Mutant("one-cpu-starts-a-pool", SWEEP,
           "_slices(claim, gs, ws, ns, workers) if workers > 1 else []",
           "_slices(claim, gs, ws, ns, workers) if spec.jobs > 1 else []",
           (T_SWEEP + "test_a_single_cpu_runs_the_sweep_inline",)),
    Mutant("one-slice-starts-a-pool", SWEEP,
           "    if len(slices) <= 1:\n", "    if not slices:\n",
           (T_SWEEP + "test_a_one_g_sweep_runs_inline_whatever_its_chunk_count",
            T_SWEEP + "test_orbit_domain_of_one_chunk_runs_inline_whatever_its_g_count")),
    Mutant("pool-not-bounded-by-the-cpu-count", SWEEP,
           "workers = min(spec.jobs, os.cpu_count() or 1)", "workers = spec.jobs",
           (T_SWEEP + "test_pool_size_is_bounded_by_the_cpu_count",)),
    Mutant("pool-imported-at-module-level", SWEEP,
           "import time\n", "import time\nfrom concurrent.futures import ProcessPoolExecutor\n",
           (T_SWEEP + "test_only_a_sweep_that_starts_a_pool_imports_the_pool_stack",)),
    Mutant("wrong-first-n", SWEEP,
           "max(ns.start, g.bit_length())", "max(ns.start, g.bit_length() + 1)",
           (T_SWEEP + "test_run_sweep_counts_whole_domain",)),
    Mutant("run-skips-its-last-g", SWEEP,
           "        for g in gs:\n            # the claim takes g",
           "        for g in gs[:-1]:\n            # the claim takes g",
           (T_SWEEP + "test_run_sweep_counts_whole_domain", AGREE)),
    Mutant("column-walked-past-the-exponent-limit", SWEEP,
           "top = min(ns[-1] + reach, core_arith.MAX_EXPONENT)", "top = ns[-1] + reach",
           (AT_LIMIT, LIMIT_AT_CALL)),
    Mutant("lemma1-without-its-reach", SWEEP,
           "_column_claim(order_engine._doubling, reach=1)",
           "_column_claim(order_engine._doubling, reach=0)",
           (T_SWEEP + "test_run_sweep_counts_whole_domain", AGREE)),
    Mutant("top-g-dropped", SWEEP,
           "return range(lo | 1, hi + 1, 2)", "return range(lo | 1, hi, 2)",
           (T_SWEEP + "test_run_sweep_counts_whole_domain",)),
    Mutant("table-exception-drops-the-weight", SWEEP,
           'where = f"g={e.g}, n={e.n}" + ("" if e.w is None else f", w={e.w}")',
           'where = f"g={e.g}, n={e.n}"',
           (T_SWEEP + "test_format_table_is_human_readable",)),
    # the count check: a run's tallies count each of its tuples once
    Mutant("slab-length-check-dropped", SWEEP,
           "    if held + unmet + len(details) != size:\n",
           "    if held + unmet + len(details) != held + unmet + len(details):\n",
           (SHORT,)),
    Mutant("count-check-dropped", SWEEP,
           "    if held + unmet + len(details) != size:\n", "    if False:\n",
           (SHORT,)),
    Mutant("count-check-ignores-details", SWEEP,
           "held + unmet + len(details) != size", "held + unmet != size",
           (T_SWEEP + "test_run_sweep_finds_known_exception_family",)),
    Mutant("slab-with-one-exception-skipped", SWEEP,
           "    for *_, (verdict, _) in details:\n", "    for *_, (verdict, _) in details[1:]:\n",
           (T_SWEEP + "test_fresh_detail_free_outcomes_are_tallied_once_each",
            "tests/test_claim_records.py::test_a_run_reports_its_first_and_its_last_g")),
    Mutant("row-template-takes-a-bool-leaf", SWEEP,
           "set(map(type, chain.from_iterable(value))) == {int}",
           "all(isinstance(v, int) for v in chain.from_iterable(value))",
           (T_SWEEP + "test_canonical_json_is_the_bytes_of_json_dumps",)),
    Mutant("row-template-takes-ragged-rows", SWEEP,
           "len(set(map(len, value))) == 1", "len(set(map(len, value))) <= 2",
           (T_SWEEP + "test_canonical_json_is_the_bytes_of_json_dumps",)),
    Mutant("record-value-indented-one-space", SWEEP,
           'replace("\\n", "\\n  ")', 'replace("\\n", "\\n ")',
           (T_SWEEP + "test_canonical_json_is_the_bytes_of_json_dumps",
            T_CLI + "test_expsum_pairing_is_byte_identical_to_json_dumps")),
    Mutant("record-keys-in-insertion-order", SWEEP,
           "for key in sorted(obj):", "for key in obj:",
           (T_SWEEP + "test_canonical_json_is_the_bytes_of_json_dumps",)),
    # known equivalents: run as controls, they must survive
    Mutant("table-multiplier-unreduced", EXP,
           "    s = g & mask\n    cur = w & mask\n", "    s = g\n    cur = w & mask\n",
           (DENSE,),
           equivalent="cur * g & mask is cur * (g & mask) & mask: both are the product "
                      "modulo 2^n, and Python's & reduces a negative g the same way"),
    Mutant("table-counter-set-not-added", EXP,
           "        table[cur] += 1\n", "        table[cur] = 1\n",
           (DENSE, ALIKE),
           equivalent="the omega terms of an odd coset are distinct, so each counter "
                      "is reached once and += 1 sets it to 1"),
    Mutant("exact-zero-half-count-at-least", EXP,
           "if 2 * len(matched) == len(items):", "if 2 * len(matched) >= len(items):",
           (T_EXP + "test_is_exact_zero_agrees_with_cyclotomic_reduction",
            T_EXP + "test_is_exact_zero_matches_the_pairwise_walk"),
           equivalent="each matched lower residue pairs with a distinct occupied upper "
                      "residue, so twice the matched count never exceeds the occupied count"),
    Mutant("t-walk-square-keeps-extra-bits", ORDER,
           "                sq >>= 2\n", "                sq >>= 1\n",
           (T_WALK, STRADDLE, ABOVE),
           equivalent="bits of t >> k at or above 2^(n_hi - 2k) enter u * u << 2k only "
                      "at 2^n_hi and above, where the mask drops them"),
    Mutant("walk-switch-at-or-above", ORDER,
           "if n_hi > _SHIFTED_WALK_ABOVE:", "if n_hi >= _SHIFTED_WALK_ABOVE:",
           (STRADDLE,),
           equivalent="both walks give the same column, so the top exponent on the "
                      "switch may take either"),
]


def stale(mutants: list[Mutant]) -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    messages = []
    for m in mutants:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            messages.append(f"{m.name}: old text occurs {found} times in {m.path}, not once")
    return messages


def run_tests(tree: Path, tests: tuple[str, ...], timeout: float = TIMEOUT_S) -> Optional[int]:
    """pytest's exit code for the tests in tree, or None past timeout seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"no such mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    problems = stale(MUTANTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp, "clean")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, clean / part, ignore=shutil.ignore_patterns("__pycache__"))
        t0 = time.perf_counter()
        code = run_tests(clean, tuple(dict.fromkeys(t for m in chosen for t in m.tests)))
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exit {code})", file=sys.stderr)
            return 1
        # each mutant runs a subset of those tests, so twice their time is a hang
        unmutated = time.perf_counter() - t0
        timeout = min(TIMEOUT_S, 2 * unmutated)
        print(f"named tests pass unmutated in {unmutated:.1f} s; a mutant gets {timeout:.1f} s")
        for m in chosen:
            tree = Path(tmp, m.name)
            shutil.copytree(clean, tree)
            target = tree / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            code = run_tests(tree, m.tests, timeout)
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
    print(f"{len(chosen)} mutants, {failed} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

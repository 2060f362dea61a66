"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every domain and tolerance is pinned here; nothing is deferred to later
calibration.
"""
from __future__ import annotations

import random
from dataclasses import replace

from pow2sums import (
    CLAIMS,
    Claim,
    InvolutionClass,
    SweepSpec,
    Verdict,
    check_antipodal_shift,
    check_order_scaling,
    check_orbit_vanishing,
    float_sum,
    format_report,
    half_order_residue,
    is_exact_zero,
    residue_orbit,
    run_sweep,
    two_adic_valuation,
    vanishing_bound,
)
from pow2sums.cli import main


def _verdict_line(num: int, ok: bool, description: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _sweep(claim: str, g: tuple[int, int], n: tuple[int, int], jobs: int = 1):
    return run_sweep(
        SweepSpec(claim=claim, g_min=g[0], g_max=g[1], n_min=n[0], n_max=n[1], jobs=jobs)
    )


def test_criterion_1_order_oracle_equivalence():
    report = _sweep("order_oracle", g=(1, (1 << 12) - 1), n=(1, 12))
    ok = (
        report.tallies["counterexample"] == 0
        and report.cases_checked == (1 << 12) - 1
        and report.tallies["holds"] == report.cases_checked
    )
    _verdict_line(
        1, ok, f"order fast path == naive scan on {report.cases_checked} exhaustive cases"
    )


def test_criterion_2_order_doubling_sweep():
    report = _sweep("lemma1", g=(1, (1 << 16) - 1), n=(1, 16), jobs=4)
    ok = report.tallies["counterexample"] == 0 and report.cases_checked == (1 << 16) - 1
    _verdict_line(
        2,
        ok,
        f"order doubling holds on {report.tallies['holds']} applicable cases, "
        f"{report.tallies['counterexample']} counterexamples",
    )


def test_criterion_3_involution_candidates_sweep():
    report = _sweep("lemma2", g=(1, (1 << 14) - 1), n=(3, 14), jobs=4)
    ok = report.tallies["counterexample"] == 0 and report.cases_checked == (1 << 14) - 4
    _verdict_line(
        3,
        ok,
        f"half-order residue always among the three involutions "
        f"({report.cases_checked} cases, OTHER count 0)",
    )


def test_criterion_4_minus_one_case_sweep():
    report = _sweep("lemma3", g=(1, (1 << 14) - 1), n=(3, 14), jobs=4)
    per_n_ok = True
    for n in range(3, 15):
        minus_one = [
            g
            for g in range(3, 1 << n, 2)
            if half_order_residue(g, n).involution is InvolutionClass.MINUS_ONE
        ]
        if minus_one != [(1 << n) - 1]:
            per_n_ok = False
            break
    ok = report.tallies["counterexample"] == 0 and per_n_ok
    _verdict_line(
        4,
        ok,
        "residue -1 forces omega=2 and g=-1; the class is exactly one residue per n",
    )


def test_criterion_5_classification_sweep_and_strict_flag(capsys):
    report = _sweep("lemma4_theorem5", g=(1, (1 << 14) - 1), n=(3, 14), jobs=4)
    expected_exceptions = [((1 << (n - 1)) - 1, n) for n in range(3, 15)]
    ok = (
        report.tallies["counterexample"] == 0
        and [(e.g, e.n) for e in report.exceptions] == expected_exceptions
        and report.tallies["paper_exception"] == len(expected_exceptions)
    )
    argv = [
        "sweep", "--claim", "lemma4_theorem5",
        "--g-min", "1", "--g-max", str((1 << 14) - 1),
        "--n-min", "3", "--n-max", "14", "--jobs", "4",
    ]
    lax_code = main(argv)
    strict_code = main(argv + ["--strict-paper"])
    capsys.readouterr()
    ok = ok and lax_code == 0 and strict_code == 1
    _verdict_line(
        5,
        ok,
        f"exception set is exactly g=2^(n-1)-1 per n ({len(report.exceptions)} flagged); "
        f"exit {lax_code} default, {strict_code} with --strict-paper",
    )


def test_criterion_6_orbit_vanishing_with_float_crosscheck():
    failures = 0
    cases = 0
    for g in [x for x in range(-31, 32, 2) if x not in (-1, 1)]:
        for w in [x for x in range(-32, 33) if x != 0]:
            bound = vanishing_bound(g, w)
            for n in range(bound, bound + 4):
                cases += 1
                orbit = residue_orbit(g, w, n)
                cert = is_exact_zero(orbit)
                verdict = check_orbit_vanishing(g, w, n)
                good = verdict is Verdict.HOLDS and cert.is_zero and cert.pairing is not None
                if n <= 20:
                    good = good and abs(float_sum(orbit)) <= 1e-9 * orbit.total
                if not good:
                    failures += 1
    ok = failures == 0 and cases == 30 * 64 * 4
    _verdict_line(
        6,
        ok,
        f"exact-zero certificate at and above the bound in {cases} cases, "
        f"{failures} failures; float magnitude <= 1e-9 * omega throughout",
    )


def test_criterion_7_proof_identities_on_random_tuples():
    rng = random.Random(20260810)
    violations = 0
    trials = 10_000
    for _ in range(trials):
        while True:
            g = rng.randrange(-1023, 1024) | 1
            if g in (-1, 1):
                continue
            w = rng.randrange(-(1 << 15), (1 << 15) + 1)
            if w == 0:
                continue
            bound = vanishing_bound(g, w)
            if bound <= 24:
                break
        n = rng.randrange(bound, 25)
        d = two_adic_valuation(w)
        if check_order_scaling(g, n, d) is not Verdict.HOLDS:
            violations += 1
        if check_antipodal_shift(g, w, n) is not Verdict.HOLDS:
            violations += 1
    _verdict_line(
        7,
        violations == 0,
        f"order-scaling and antipodal-shift identities on {trials} random tuples, "
        f"{violations} violations",
    )


def test_criterion_8_exact_float_separation():
    in_gap = 0
    mismatches = 0
    cases = 0
    for g in [x for x in range(-15, 16, 2) if x not in (-1, 1)]:
        for w in [x for x in range(-16, 17) if x != 0]:
            for n in range(1, 11):
                cases += 1
                orbit = residue_orbit(g, w, n)
                magnitude = abs(float_sum(orbit))
                exact = is_exact_zero(orbit).is_zero
                if exact != (magnitude < 1e-6):
                    mismatches += 1
                if 1e-6 <= magnitude <= 1e-3:
                    in_gap += 1
    ok = mismatches == 0 and in_gap == 0 and cases == 14 * 32 * 10
    _verdict_line(
        8,
        ok,
        f"exact zero iff |float| < 1e-6 on {cases} exhaustive cases; "
        f"{in_gap} magnitudes inside [1e-6, 1e-3]",
    )


def test_criterion_9_determinism_and_exit_codes(capsys):
    base = dict(claim="lemma2", g_min=1, g_max=511, n_min=3, n_max=9)
    serial = replace(run_sweep(SweepSpec(jobs=1, **base)), wall_time_ms=0)
    parallel = replace(run_sweep(SweepSpec(jobs=8, **base)), wall_time_ms=0)
    deterministic = format_report(serial, "json").encode() == format_report(
        parallel, "json"
    ).encode()

    passing = main(
        ["sweep", "--claim", "lemma1", "--g-min", "3", "--g-max", "31",
         "--n-min", "3", "--n-max", "6"]
    )
    claim = Claim(
        name="acceptance_forced_failure",
        needs_w=False,
        evaluate=lambda gs, ws, ns: (0, 0, [
            (g, n, None, (Verdict.COUNTEREXAMPLE, ("forced", "never")))
            for g in gs for n in ns if g < 1 << n
        ]),
    )
    CLAIMS[claim.name] = claim
    try:
        forced = main(
            ["sweep", "--claim", "acceptance_forced_failure",
             "--g-min", "1", "--g-max", "3", "--n-min", "2", "--n-max", "2"]
        )
    finally:
        del CLAIMS["acceptance_forced_failure"]
    usage = main(
        ["sweep", "--claim", "lemma1", "--g-min", "9", "--g-max", "3",
         "--n-min", "1", "--n-max", "2"]
    )
    capsys.readouterr()
    ok = deterministic and passing == 0 and forced == 1 and usage == 2
    _verdict_line(
        9,
        ok,
        f"reports byte-identical at jobs 1 vs 8; exit codes pass={passing}, "
        f"forced counterexample={forced}, usage error={usage}",
    )

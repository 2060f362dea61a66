from __future__ import annotations

import csv
import io
import json
from dataclasses import replace

import pytest

from pow2sums import (
    CLAIMS,
    Claim,
    DomainError,
    SweepSpec,
    UsageError,
    Verdict,
    canonical_json,
    check_order_doubling,
    format_report,
    run_sweep,
)
from pow2sums import core_arith


def spec(**kwargs) -> SweepSpec:
    base = dict(claim="lemma1", g_min=1, g_max=63, n_min=1, n_max=6, jobs=1)
    base.update(kwargs)
    return SweepSpec(**base)


def test_run_sweep_counts_whole_domain():
    report = run_sweep(spec())
    # odd canonical residues per exponent: 1, 2, 4, ..., 32
    assert report.cases_checked == sum(1 << (n - 1) for n in range(1, 7))
    assert sum(report.tallies.values()) == report.cases_checked
    assert report.tallies["counterexample"] == 0
    # +-1 per modulus fail the hypothesis: 1 case at n=1, 2 from n=2 on
    assert report.tallies["hypothesis_not_met"] == 1 + 2 * 5


def test_run_sweep_respects_g_range_clipping():
    report = run_sweep(spec(claim="order_oracle", g_min=3, g_max=61, n_min=3, n_max=5))
    # n=3: g in {3..7}, n=4: {3..15}, n=5: {3..31} restricted to odd
    assert report.cases_checked == 3 + 7 + 15
    assert report.tallies["holds"] == report.cases_checked


def test_run_sweep_finds_known_exception_family():
    report = run_sweep(spec(claim="lemma4_theorem5", g_min=1, g_max=255, n_min=3, n_max=8))
    assert report.tallies["counterexample"] == 0
    assert report.tallies["paper_exception"] == 6
    assert [(e.g, e.n) for e in report.exceptions] == [
        ((1 << (n - 1)) - 1, n) for n in range(3, 9)
    ]
    assert all(e.w is None for e in report.exceptions)


def test_lemma1_at_the_exponent_limit_is_tallied_not_raised():
    top = core_arith.MAX_EXPONENT
    report = run_sweep(spec(g_min=3, g_max=3, n_min=top - 1, n_max=top))
    assert report.tallies == {
        "holds": 1,
        "hypothesis_not_met": 1,
        "paper_exception": 0,
        "counterexample": 0,
    }
    with pytest.raises(DomainError):
        check_order_doubling(3, top)


def test_lemma1_reads_the_exponent_limit_at_call_time(monkeypatch):
    monkeypatch.setattr(core_arith, "MAX_EXPONENT", 6)
    report = run_sweep(spec(n_min=5, n_max=6))
    # n = 5: 16 odd residues, 2 of them +-1; n = 6: all 32 at the limit
    assert report.tallies["holds"] == 14
    assert report.tallies["hypothesis_not_met"] == 2 + 32
    with pytest.raises(DomainError):
        run_sweep(spec(n_min=7, n_max=7))


def test_run_sweep_theorem6_domain():
    report = run_sweep(
        spec(claim="theorem6", g_min=-7, g_max=7, n_min=1, n_max=8, w_min=-4, w_max=4)
    )
    # odd g in [-7, 7] including +-1 (tallied as hypothesis_not_met), w skips 0
    assert report.cases_checked == 8 * 8 * 8
    assert report.tallies["counterexample"] == 0
    assert report.tallies["holds"] > 0


def test_run_sweep_is_deterministic_across_worker_counts():
    serial = run_sweep(spec(claim="lemma2", g_min=1, g_max=255, n_min=3, n_max=8, jobs=1))
    parallel = run_sweep(spec(claim="lemma2", g_min=1, g_max=255, n_min=3, n_max=8, jobs=4))
    a = replace(serial, wall_time_ms=0)
    b = replace(parallel, wall_time_ms=0)
    assert format_report(a, "json") == format_report(b, "json")


@pytest.mark.parametrize(
    "bad",
    [
        dict(claim="nope"),
        dict(g_min=5, g_max=3),
        dict(n_min=4, n_max=2),
        dict(n_min=0),
        dict(jobs=0),
        dict(w_min=-2, w_max=2),  # lemma1 takes no w range
        dict(claim="theorem6"),  # theorem6 requires one
        dict(claim="theorem6", w_min=3, w_max=1),
    ],
)
def test_run_sweep_usage_errors(bad):
    with pytest.raises(UsageError):
        run_sweep(spec(**bad))


def test_format_json_is_canonical_and_round_trips():
    report = run_sweep(spec(claim="lemma3", g_min=1, g_max=127, n_min=3, n_max=7))
    text = format_report(report, "json")
    parsed = json.loads(text)
    assert canonical_json(parsed) == text
    assert parsed["claim"] == "lemma3"
    assert parsed["tallies"]["counterexample"] == 0
    assert set(parsed["tallies"]) == {
        "holds",
        "hypothesis_not_met",
        "paper_exception",
        "counterexample",
    }
    assert parsed["domain"] == {
        "g_min": 1,
        "g_max": 127,
        "n_min": 3,
        "n_max": 7,
        "w_min": None,
        "w_max": None,
    }


def test_format_csv_flattens_exceptions():
    report = run_sweep(spec(claim="lemma4_theorem5", g_min=1, g_max=31, n_min=3, n_max=5))
    rows = list(csv.reader(io.StringIO(format_report(report, "csv"))))
    assert rows[0] == ["g", "n", "w", "observed", "expected"]
    assert len(rows) == 1 + len(report.exceptions) == 4
    assert rows[1][:3] == ["3", "3", ""]


def test_format_table_is_human_readable():
    report = run_sweep(spec(claim="lemma1", g_min=3, g_max=9, n_min=3, n_max=4))
    text = format_report(report, "table")
    assert "claim:" in text and "counterexamples:" in text


def test_format_rejects_unknown_format():
    report = run_sweep(spec(claim="lemma1", g_min=3, g_max=9, n_min=3, n_max=4))
    with pytest.raises(UsageError):
        format_report(report, "xml")


def test_injected_claim_reaches_the_report():
    always_fails = Claim(
        name="always_fails",
        needs_w=False,
        evaluate=lambda g, n, w: (Verdict.COUNTEREXAMPLE, ("it failed", "it should hold")),
    )
    CLAIMS[always_fails.name] = always_fails
    try:
        report = run_sweep(spec(claim="always_fails", g_min=1, g_max=5, n_min=3, n_max=3))
        assert report.tallies["counterexample"] == report.cases_checked == 3
        assert report.exceptions[0].observed == "it failed"
    finally:
        del CLAIMS["always_fails"]

from __future__ import annotations

import csv
import io
import json
import os
import tracemalloc
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
from pow2sums import core_arith, sweep


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


@pytest.mark.parametrize("claim", ["order_oracle", "lemma1", "lemma2", "lemma3", "lemma4_theorem5"])
def test_per_modulus_sweep_beyond_the_exponent_limit_raises(claim):
    # g = 1 is 1 modulo every 2^n, so no checker would ever see the exponent;
    # the column itself must refuse it before walking
    with pytest.raises(DomainError):
        run_sweep(SweepSpec(claim, 1, 1, 3, core_arith.MAX_EXPONENT + 1))


def test_run_sweep_theorem6_domain():
    report = run_sweep(
        spec(claim="theorem6", g_min=-7, g_max=7, n_min=1, n_max=8, w_min=-4, w_max=4)
    )
    # odd g in [-7, 7] including +-1 (tallied as hypothesis_not_met), w skips 0
    assert report.cases_checked == 8 * 8 * 8
    assert report.tallies["counterexample"] == 0
    assert report.tallies["holds"] > 0


def json_body(report) -> str:
    return format_report(replace(report, wall_time_ms=0), "json")


@pytest.mark.parametrize(
    "domain",
    [
        dict(claim="lemma2", g_min=1, g_max=255, n_min=3, n_max=8),
        # even negative g_min, and a w range across 0 (which the sweep skips)
        dict(claim="theorem6", g_min=-8, g_max=7, n_min=1, n_max=6, w_min=-5, w_max=6),
        # one g: only the w range can be cut
        dict(claim="theorem6", g_min=3, g_max=3, n_min=1, n_max=8, w_min=-40, w_max=40),
        # g range reaching below 1 and above 2^n_max, n from 2
        dict(claim="lemma4_theorem5", g_min=-4, g_max=300, n_min=2, n_max=7),
        dict(claim="order_oracle", g_min=2, g_max=100, n_min=1, n_max=8),
        # fewer tuples per g than a chunk: runs of g, each with the whole w range
        dict(claim="theorem6", g_min=-15, g_max=15, n_min=3, n_max=3, w_min=1, w_max=2),
    ],
    ids=[
        "lemma2",
        "theorem6-even-negative-g",
        "theorem6-one-g",
        "lemma4-clipped",
        "order-even-g",
        "theorem6-packed-g",
    ],
)
def test_run_sweep_is_deterministic_across_worker_counts(monkeypatch, domain):
    # tiny chunks so that every domain is cut into many pool jobs
    monkeypatch.setattr(sweep, "_CHUNK_TUPLES", 5)
    serial = json_body(run_sweep(spec(jobs=1, **domain)))
    for jobs in (2, 4):
        assert json_body(run_sweep(spec(jobs=jobs, **domain))) == serial


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its worker count and the
    jobs handed to map, and runs them inline, so no process is started."""

    made: list["RecordingPool"] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.jobs: list = []
        RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, jobs):
        self.jobs = list(jobs)
        return map(fn, self.jobs)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "made", [])
    return RecordingPool.made


def test_pool_size_is_bounded_by_the_cpu_count(recording_pool):
    # 8191 tuples: more than one chunk
    run_sweep(spec(claim="lemma1", g_min=1, g_max=8191, n_min=1, n_max=13, jobs=10**6))
    assert len(recording_pool) == 1
    assert 1 <= recording_pool[0].max_workers <= (os.cpu_count() or 1)
    # a domain of one chunk runs inline, whatever jobs says
    run_sweep(spec(claim="lemma1", g_min=1, g_max=63, n_min=1, n_max=6, jobs=10**6))
    assert len(recording_pool) == 1


def test_orbit_domain_of_one_chunk_runs_inline_whatever_its_g_count(recording_pool):
    # 32 odd g, one w, three exponents: 96 tuples, far below one chunk
    domain = dict(claim="theorem6", g_min=-31, g_max=31, n_min=1, n_max=3, w_min=1, w_max=1)
    run_sweep(spec(jobs=2, **domain))
    assert recording_pool == []


@pytest.mark.parametrize(
    "domain",
    [
        dict(claim="lemma1", g_min=1, g_max=8191, n_min=1, n_max=13),
        dict(claim="theorem6", g_min=3, g_max=5, n_min=1, n_max=3, w_min=-2000, w_max=2000),
    ],
    ids=["lemma1", "theorem6"],
)
def test_pool_jobs_are_sub_specs(recording_pool, domain):
    parallel = run_sweep(spec(jobs=2, **domain))
    (pool,) = recording_pool
    assert len(pool.jobs) > 1
    assert all(isinstance(job, SweepSpec) for job in pool.jobs)
    assert json_body(parallel) == json_body(run_sweep(spec(jobs=1, **domain)))


def test_serial_sweep_memory_does_not_grow_with_the_domain():
    # 8192 odd g over 14 exponents; a list of the (g, n, w) tuples would
    # take well over a megabyte
    tracemalloc.start()
    try:
        run_sweep(spec(g_min=1, g_max=(1 << 14) - 1, n_min=1, n_max=14))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 250_000


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
        evaluate=lambda g, w, ns: [(Verdict.COUNTEREXAMPLE, ("it failed", "it should hold"))] * len(ns),
    )
    CLAIMS[always_fails.name] = always_fails
    try:
        report = run_sweep(spec(claim="always_fails", g_min=1, g_max=5, n_min=3, n_max=3))
        assert report.tallies["counterexample"] == report.cases_checked == 3
        assert report.exceptions[0].observed == "it failed"
    finally:
        del CLAIMS["always_fails"]

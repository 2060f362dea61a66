from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pow2sums import (
    CLAIMS,
    Claim,
    DomainError,
    SweepException,
    SweepSpec,
    UsageError,
    Verdict,
    canonical_json,
    check_half_order_classification,
    check_involution_membership,
    check_minus_one_case,
    check_order_doubling,
    check_orbit_vanishing,
    format_report,
    order_fast,
    order_naive,
    run_sweep,
)
from pow2sums import core_arith, exp_sum, sweep


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


def test_sweep_validates_the_top_exponent_before_sizing_the_domain(monkeypatch):
    top = core_arith.MAX_EXPONENT + 1
    # g = +-1 is tallied without any chain, so only the validation sees n_max
    with pytest.raises(DomainError, match="MAX_EXPONENT"):
        run_sweep(SweepSpec("theorem6", -1, 1, top, top, 1, 1))

    def unsized(spec, claim):
        raise AssertionError("a g range below 2^n_max was sized before validation")

    monkeypatch.setattr(sweep, "_g_range", unsized)
    for jobs in (1, 2):
        with pytest.raises(DomainError, match="MAX_EXPONENT"):
            run_sweep(SweepSpec("lemma2", 1, 3, 1, top, jobs=jobs))


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
    "domain, cases",
    [
        (dict(claim="lemma2", g_min=1, g_max=255, n_min=3, n_max=8), 252),
        # even negative g_min, and a w range across 0 (which the sweep skips)
        (dict(claim="theorem6", g_min=-8, g_max=7, n_min=1, n_max=6, w_min=-5, w_max=6), 528),
        # one g: only the w range can be cut
        (dict(claim="theorem6", g_min=3, g_max=3, n_min=1, n_max=8, w_min=-40, w_max=40), 640),
        # g range reaching below 1 and above 2^n_max, n from 2
        (dict(claim="lemma4_theorem5", g_min=-4, g_max=300, n_min=2, n_max=7), 126),
        (dict(claim="order_oracle", g_min=2, g_max=100, n_min=1, n_max=8), 155),
        # more g than slices: runs of two or three g, each with both w
        (dict(claim="theorem6", g_min=-15, g_max=15, n_min=3, n_max=3, w_min=1, w_max=2), 32),
        # above the literal cap, with fewer g than slices: each g alone with
        # runs of its w
        (dict(claim="theorem6", g_min=-5, g_max=5, n_min=23, n_max=30, w_min=-2, w_max=2), 192),
        # empty runs: w = 0 only, which the sweep skips, and no odd g in range
        (dict(claim="theorem6", g_min=-7, g_max=7, n_min=1, n_max=8, w_min=0, w_max=0), 0),
        (dict(claim="lemma2", g_min=-9, g_max=0, n_min=1, n_max=8), 0),
        (dict(claim="lemma1", g_min=2, g_max=2, n_min=1, n_max=8), 0),
    ],
    ids=[
        "lemma2",
        "theorem6-even-negative-g",
        "theorem6-one-g",
        "lemma4-clipped",
        "order-even-g",
        "theorem6-packed-g",
        "theorem6-above-the-cap",
        "theorem6-w-zero-only",
        "lemma2-g-below-1",
        "lemma1-one-even-g",
    ],
)
def test_run_sweep_is_deterministic_across_worker_counts(monkeypatch, domain, cases):
    # tiny chunks so that every domain of more than one chunk is cut into
    # up to four slices per worker
    monkeypatch.setattr(sweep, "_CHUNK_TUPLES", 5)
    serial = json_body(run_sweep(spec(jobs=1, **domain)))
    assert json.loads(serial)["cases_checked"] == cases
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
    # run_sweep imports the pool class when it starts a pool, so it is
    # replaced where that import reads it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "made", [])
    return RecordingPool.made


def test_pool_size_is_bounded_by_the_cpu_count(monkeypatch, recording_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # 53,248 grid points: 13 chunks, more than one
    run_sweep(spec(claim="lemma1", g_min=1, g_max=8191, n_min=1, n_max=13, jobs=10**6))
    assert len(recording_pool) == 1
    assert recording_pool[0].max_workers == 2
    # a domain of one chunk runs inline, whatever jobs says
    run_sweep(spec(claim="lemma1", g_min=1, g_max=63, n_min=1, n_max=6, jobs=10**6))
    assert len(recording_pool) == 1


def test_a_single_cpu_runs_the_sweep_inline(monkeypatch, recording_pool):
    # a pool of one worker would do the inline run's work and add its start-up
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    domain = dict(claim="lemma1", g_min=1, g_max=8191, n_min=1, n_max=13)
    report = run_sweep(spec(jobs=2, **domain))
    assert recording_pool == []
    assert json_body(report) == json_body(run_sweep(spec(jobs=1, **domain)))


def test_orbit_domain_of_one_chunk_runs_inline_whatever_its_g_count(recording_pool):
    # 32 odd g, one w, three exponents: 96 tuples, far below one chunk
    domain = dict(claim="theorem6", g_min=-31, g_max=31, n_min=1, n_max=3, w_min=1, w_max=1)
    run_sweep(spec(jobs=2, **domain))
    assert recording_pool == []


def test_a_one_g_sweep_runs_inline_whatever_its_chunk_count(monkeypatch, recording_pool):
    # one g, 2,000 w and 12 exponents: 24,000 grid points, but one run of g
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    domain = dict(claim="theorem6", g_min=3, g_max=3, n_min=1, n_max=12,
                  w_min=-1000, w_max=1000)
    report = run_sweep(spec(jobs=2, **domain))
    assert recording_pool == []
    assert report.tallies["holds"] == 16012


def test_per_modulus_slices_never_outnumber_the_g(monkeypatch, recording_pool):
    # with chunks of 8 grid points, 4 odd g over 16 exponents make 8 chunks,
    # more than the g: each slice is a run of one g, and none is empty
    monkeypatch.setattr(sweep, "_CHUNK_TUPLES", 8)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    domain = dict(claim="lemma1", g_min=1, g_max=7, n_min=1, n_max=16)
    report = run_sweep(spec(jobs=2, **domain))
    (pool,) = recording_pool
    assert [list(gs) for _, gs, _, _ in pool.jobs] == [[1], [3], [5], [7]]
    assert json_body(report) == json_body(run_sweep(spec(jobs=1, **domain)))


def _domain(domain) -> set:
    """The (g, w, n) tuples of a sweep domain, from the rule the README
    states: odd g, with w != 0 for theorem6 and g < 2^n otherwise."""
    odd_g = [g for g in range(domain["g_min"], domain["g_max"] + 1) if g % 2]
    ns = range(domain["n_min"], domain["n_max"] + 1)
    if domain["claim"] == "theorem6":
        ws = [w for w in range(domain["w_min"], domain["w_max"] + 1) if w]
        return {(g, w, n) for g in odd_g for w in ws for n in ns}
    return {(g, None, n) for g in odd_g for n in ns if 0 < g < 1 << n}


@pytest.mark.parametrize(
    "domain, jobs",
    [
        # 4,096 g x 13 n = 13 chunks: 8 runs of 512 g on 2 workers, 13 on 4
        (dict(claim="lemma1", g_min=1, g_max=8191, n_min=1, n_max=13), {2: 8, 4: 13}),
        # theorem6, once cut, takes one stripe per class of g mod 8.  Two g:
        # a stripe of one g each, with every w, however many chunks
        (dict(claim="theorem6", g_min=3, g_max=5, n_min=1, n_max=3, w_min=-2000, w_max=2000),
         {2: 2, 4: 2}),
        # many g with few w: 4 stripes of 256 g, each with every w
        (dict(claim="theorem6", g_min=-1023, g_max=1023, n_min=1, n_max=5, w_min=-2, w_max=2),
         {2: 4, 4: 4}),
        # the orbit_vanishing domain: 24,576 grid points in 4 stripes of 8 g
        (dict(claim="theorem6", g_min=-31, g_max=31, n_min=1, n_max=12, w_min=-32, w_max=32),
         {2: 4, 4: 4}),
        # above the literal cap the same rule: 16,000 grid points in 4 stripes
        (dict(claim="theorem6", g_min=-9, g_max=9, n_min=23, n_max=26, w_min=-200, w_max=200),
         {2: 4, 4: 4}),
        # the acceptance domains: 128 chunks and 24 chunks
        (dict(claim="lemma1", g_min=1, g_max=(1 << 16) - 1, n_min=1, n_max=16), {2: 8, 4: 16}),
        (dict(claim="lemma2", g_min=1, g_max=(1 << 14) - 1, n_min=3, n_max=14), {2: 8, 4: 16}),
        # 4,095 tuples, less than one chunk, but each is a naive scan: the
        # 2,048 g x 12 n grid that the columns walk is 6 chunks, so it starts
        # a pool, which repays its start-up
        (dict(claim="order_oracle", g_min=1, g_max=(1 << 12) - 1, n_min=1, n_max=12),
         {2: 6, 4: 6}),
    ],
    ids=["lemma1", "theorem6-wide-w", "theorem6-many-g", "orbit-vanishing", "above-the-cap",
         "lemma1-acceptance", "lemma2-acceptance", "order-oracle-acceptance"],
)
def test_pool_jobs_partition_the_domain(monkeypatch, recording_pool, domain, jobs):
    serial = json_body(run_sweep(spec(jobs=1, **domain)))
    tuples = _domain(domain)
    every_w = sorted({w for _, w, _ in tuples}, key=lambda w: w or 0)
    for workers, count in jobs.items():
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        recording_pool.clear()
        parallel = run_sweep(spec(jobs=workers, **domain))
        (pool,) = recording_pool
        # a pool has no more processes than slices
        assert (pool.max_workers, len(pool.jobs)) == (min(workers, count), count)
        held = []
        for name, gs, ws, ns in pool.jobs:
            assert name == domain["claim"]
            held += [(g, w, n) for g in gs for w in ws for n in ns
                     if name == "theorem6" or g < 1 << n]
        # every tuple of the domain is in exactly one job
        assert len(held) == len(set(held))
        assert set(held) == tuples
        # near-equal slices of g, each with every w, so each g's order column
        # is walked once: runs of g for a per-modulus claim, and for theorem6
        # stripes whose g share one class mod 8, so that a subgroup <g> mod
        # 2^m, whose generators do, is counted into a table in one slice
        g_runs = [len(gs) for _, gs, _, _ in pool.jobs]
        assert max(g_runs) - min(g_runs) <= 1
        assert all(list(ws) == every_w for _, _, ws, _ in pool.jobs)
        if domain["claim"] == "theorem6":
            assert all(len({g % 8 for g in gs}) == 1 for _, gs, _, _ in pool.jobs)
        else:
            assert all(gs.step == 2 for _, gs, _, _ in pool.jobs)
        assert json_body(parallel) == serial


_COLD_START = """
import json, os, sys
before = set(sys.modules)
# two usable CPUs whatever the host has, so that the pooled sweep below
# starts its pool
os.cpu_count = lambda: 2
import pow2sums
from pow2sums import SweepSpec, cli, run_sweep, sweep

def pool_modules():
    return sorted(m for m in set(sys.modules) - before
                  if m.startswith(("concurrent", "multiprocessing", "_multiprocessing")))

def body(spec):
    report = run_sweep(spec).as_dict()
    del report["wall_time_ms"]
    return sweep.canonical_json(report)

run_sweep(SweepSpec("lemma1", 1, 63, 1, 6, jobs=1))
run_sweep(SweepSpec("lemma1", 1, 63, 1, 6, jobs=2))
cli.main(["order", "--g", "3", "--n", "64"])
inline = pool_modules()
# 20,480 grid points in 5 slices: this sweep starts a pool
pooled = SweepSpec("lemma4_theorem5", 1, 4095, 3, 12, jobs=2)
same = body(pooled) == body(SweepSpec("lemma4_theorem5", 1, 4095, 3, 12, jobs=1))
print(json.dumps({"inline": inline, "pooled": pool_modules(), "same": same}))
"""


def test_only_a_sweep_that_starts_a_pool_imports_the_pool_stack():
    # a fresh interpreter, so that no other test has loaded the pool stack
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # import pow2sums, a jobs-1 sweep, a jobs-2 sweep of one slice and
    # a single query load none of it
    assert seen["inline"] == []
    assert "concurrent.futures.process" in seen["pooled"]
    assert "multiprocessing" in seen["pooled"]
    assert seen["same"] is True


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


def test_theorem6_sweep_keeps_one_orbit_table_alive():
    # at n = 18, w = 1 is decided at m = 18 and w = 2 at m = 17: each
    # subgroup of the odd |g| <= 63 takes a table of 2^18 one-byte counters,
    # 256 KiB, and the two strided slices that compare its odd residues
    # 128 KiB more; the table is then folded in place, a 4 KiB block at a
    # time, to its 2^17 counters.  A folded table kept alive while the next
    # group's is built would reach 512 KiB
    tracemalloc.start()
    try:
        run_sweep(spec(claim="theorem6", g_min=-63, g_max=63, n_min=18, n_max=18,
                       w_min=1, w_max=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 475 * 1024


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
    assert text == json.dumps(parsed, sort_keys=True, indent=2)
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


def _reference_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


_huge_ints = st.integers(min_value=-(1 << 1000), max_value=1 << 1000)
_leaves = (
    st.none() | st.booleans() | st.integers() | _huge_ints | st.floats() | st.text()
)
# equal-length rows of ints that are a record's values take the row template
_int_rows = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(
        st.lists(st.integers() | _huge_ints, min_size=k, max_size=k)
        | st.tuples(*[st.integers()] * k),
        min_size=1,
        max_size=8,
    )
)
# ragged rows, and rows holding a bool or a float, must take json.dumps
_other_rows = st.lists(
    st.lists(st.integers() | st.booleans() | st.floats(), max_size=4)
    | st.tuples(st.integers(), st.booleans() | st.floats()),
    max_size=6,
)
_trees = st.recursive(
    _leaves | _int_rows | _other_rows,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=200)
@given(value=_trees)
@example(value={"pairing": [[1, 1], [3, 1]], "float_sum": [0.0, -0.0], "is_zero": True})
@example(value=[[1, True], [2, 3]])
@example(value=[[1, 2.5], [3, 4]])
@example(value=[[1, 2], (3, 4), [5, 6]])
@example(value=[[1, 2], [3]])
@example(value=[[], []])
@example(value={"k\u00e9\n\"\\\ud83d\ude00": [[-(1 << 200), 0]], "": {}, "a": [(), []]})
@example(value=[float("nan"), float("inf"), -float("inf"), 1e-310, -0.0])
# the row template's edge cases as record values, next to a nested dict, a
# float list and a % in a key and a value, with the keys given out of order
@example(value={"z": {"b": 1, "a": [[1, 2]]}, "bool": [[1, True], [2, 3]],
                "float": [[1, 2.5], [3, 4]], "ragged": [[1, 2], [3]],
                "mixed": [[1, 2], (3, 4), [5, 6]], "empty_rows": [[], []], "empty": (),
                "rows": [(-(1 << 200), 0), (3, 1)], "f": [0.5, float("nan"), -0.0],
                "%d": "%s"})
@example(value={"pairing": [[1, 1], [3, 1]], "w": 1, "n": 4, "is_zero": False, "g": 3})
@example(value={"a": {"p": [[1, 2]]}})
def test_canonical_json_is_the_bytes_of_json_dumps(value):
    assert canonical_json(value) == _reference_json(value)


@pytest.mark.parametrize(
    "value",
    [set(), object(), [1, {2}], [[1, object()]], {"k": object()},
     {"p": [[1, 2]], "k": {3}}],
    ids=["set", "object", "set-in-list", "object-in-row", "object-in-dict",
         "set-beside-rows"],
)
def test_canonical_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        _reference_json(value)
    with pytest.raises(TypeError):
        canonical_json(value)


def test_canonical_json_keys_are_those_of_json_dumps():
    # json.dumps writes a dict of int keys with string keys, and cannot sort
    # a dict that mixes str and int keys; no report has either
    for value in ({1: 2}, {1: [[1, 2]]}):
        assert canonical_json(value) == _reference_json(value)
    for value in ({"a": 1, 2: 3}, {"a": [[1, 2]], 2: 3}):
        with pytest.raises(TypeError):
            _reference_json(value)
        with pytest.raises(TypeError):
            canonical_json(value)


def test_format_csv_flattens_exceptions():
    report = run_sweep(spec(claim="lemma4_theorem5", g_min=1, g_max=31, n_min=3, n_max=5))
    rows = list(csv.reader(io.StringIO(format_report(report, "csv"))))
    assert rows[0] == ["g", "n", "w", "observed", "expected"]
    assert len(rows) == 1 + len(report.exceptions) == 4
    assert rows[1][:3] == ["3", "3", ""]


def test_format_table_is_human_readable(monkeypatch):
    report = run_sweep(spec(claim="lemma1", g_min=3, g_max=9, n_min=3, n_max=4))
    text = format_report(report, "table")
    assert "claim:" in text and "counterexamples:" in text
    assert "\nexceptions:" not in text
    # a per-modulus claim's exceptions name no w
    report = run_sweep(spec(claim="lemma4_theorem5", g_min=1, g_max=31, n_min=3, n_max=5))
    assert format_report(report, "table").split("\n")[-4:] == [
        "exceptions:",
        "  g=3, n=3: observed half-order residue 3 (HALF_MINUS_ONE);"
        " expected half-order residue 5 (HALF_PLUS_ONE)",
        "  g=7, n=4: observed half-order residue 7 (HALF_MINUS_ONE);"
        " expected half-order residue 9 (HALF_PLUS_ONE)",
        "  g=15, n=5: observed half-order residue 15 (HALF_MINUS_ONE);"
        " expected half-order residue 17 (HALF_PLUS_ONE)",
    ]
    # theorem6's name theirs; with the bound lowered to d(w) + 1, 3 fails its
    # collapse guard at n = 2 and 5's sum does not vanish
    monkeypatch.setattr(exp_sum, "vanishing_bound",
                        lambda g, w: core_arith.two_adic_valuation(w) + 1)
    report = run_sweep(spec(claim="theorem6", g_min=3, g_max=5, n_min=2, n_max=2,
                            w_min=1, w_max=1))
    assert format_report(report, "table").split("\n")[-3:] == [
        "exceptions:",
        "  g=3, n=2, w=1: observed exact zero (collapse guard failed);"
        " expected base not +-1 modulo the collapsed modulus",
        "  g=5, n=2, w=1: observed count(1)=1 != count(3)=0;"
        " expected equal multiplicities on every antipodal residue pair",
    ]


def test_format_rejects_unknown_format():
    report = run_sweep(spec(claim="lemma1", g_min=3, g_max=9, n_min=3, n_max=4))
    with pytest.raises(UsageError):
        format_report(report, "xml")


def test_injected_claim_reaches_the_report():
    always_fails = Claim(
        name="always_fails",
        needs_w=False,
        evaluate=lambda gs, ws, ns: (0, 0, [
            (g, n, None, (Verdict.COUNTEREXAMPLE, ("it failed", "it should hold")))
            for g in gs for n in ns if g < 1 << n
        ]),
    )
    CLAIMS[always_fails.name] = always_fails
    try:
        report = run_sweep(spec(claim="always_fails", g_min=1, g_max=5, n_min=3, n_max=3))
        assert report.tallies["counterexample"] == report.cases_checked == 3
        assert report.exceptions[0].observed == "it failed"
    finally:
        del CLAIMS["always_fails"]


def test_a_run_one_tally_short_raises(monkeypatch):
    # a run's counts must add up to its tuples: one short is a tuple that no
    # verdict took
    def short(gs, ws, ns):
        return sum(g < 1 << n for g in gs for n in ns) - 1, 0, []

    monkeypatch.setitem(CLAIMS, "short", Claim("short", False, short))
    with pytest.raises(ValueError):
        run_sweep(spec(claim="short"))


def test_fresh_detail_free_outcomes_are_tallied_once_each(monkeypatch):
    # each g holds at its odd n and is outside the hypotheses at its even n,
    # and its top tuple is a counterexample: the run's counts and its details
    # each reach the tallies once
    def evaluate(gs, ws, ns):
        held = unmet = 0
        details = []
        for g in gs:
            run = range(max(ns.start, g.bit_length()), ns.stop)
            held += sum(n % 2 for n in run[:-1])
            unmet += sum(1 - n % 2 for n in run[:-1])
            details.append((g, run[-1], None, (Verdict.COUNTEREXAMPLE, (f"g={g}", "none"))))
        return held, unmet, details

    monkeypatch.setitem(CLAIMS, "fresh", Claim("fresh", False, evaluate))
    report = run_sweep(spec(claim="fresh"))
    gs = range(1, 64, 2)
    below_top = [n for g in gs for n in range(g.bit_length(), 6)]
    assert report.tallies == dict(
        holds=sum(n % 2 for n in below_top),
        hypothesis_not_met=sum(1 - n % 2 for n in below_top),
        paper_exception=0,
        counterexample=len(gs),
    )
    assert report.exceptions == [SweepException(g, 6, None, f"g={g}", "none") for g in gs]


def _public_verdict(claim, g, n):
    """The verdict of the claim's public checker at one tuple of its sweep
    domain; a half-order claim is not met where no half-order residue is."""
    if claim == "order_oracle":
        same = order_fast(g, n).omega == order_naive(g, n).omega
        return Verdict.HOLDS if same else Verdict.COUNTEREXAMPLE
    if claim == "lemma1":
        return check_order_doubling(g, n)
    if n < 3 or g == 1:
        return Verdict.HYPOTHESIS_NOT_MET
    return {
        "lemma2": check_involution_membership,
        "lemma3": check_minus_one_case,
        "lemma4_theorem5": check_half_order_classification,
    }[claim](g, n)


def _verdicts(run) -> list:
    held, unmet, details = run
    return [Verdict.HOLDS] * held + [Verdict.HYPOTHESIS_NOT_MET] * unmet + [
        outcome[0] for *_, outcome in details
    ]


@pytest.mark.parametrize(
    "claim, gs, ns",
    [
        *(pytest.param(claim, range(1, 1 << 8, 2), range(1, 10), id=claim)
          for claim in ("order_oracle", "lemma1", "lemma2", "lemma3", "lemma4_theorem5")),
        # the whole run walks to exponent 513, above _SHIFTED_WALK_ABOVE = 512,
        # and so on the shifted walk, but the run of one g at one n below 512
        # and its public check walk no higher than 512, on the plain walk
        pytest.param("lemma1", range(1, 64, 2), range(505, 513), id="lemma1-across-the-walk-switch"),
    ],
)
def test_per_modulus_runs_agree_with_the_public_checks(claim, gs, ns):
    evaluate = CLAIMS[claim].evaluate
    expected = {}
    for g in gs:
        for n in ns:
            if g < 1 << n:
                expected[g, n] = _public_verdict(claim, g, n)
                # the run of one g at one n
                assert _verdicts(evaluate(range(g, g + 1), (None,), range(n, n + 1))) == [
                    expected[g, n]
                ], (g, n)
    run = evaluate(gs, (None,), ns)
    assert Counter(_verdicts(run)) == Counter(expected.values())
    assert {(g, n): outcome[0] for g, n, _, outcome in run[2]} == {
        tuple_: verdict for tuple_, verdict in expected.items()
        if verdict not in (Verdict.HOLDS, Verdict.HYPOTHESIS_NOT_MET)
    }
    if claim == "lemma4_theorem5":
        assert len(run[2]) == 7  # g = 2^(n-1) - 1 at each n from 3 to 9


@pytest.mark.parametrize("forced", [False, True], ids=["paper-bound", "forced-counterexamples"])
def test_theorem6_run_agrees_with_the_public_check(monkeypatch, forced):
    if forced:
        # with the bound lowered to d(w) + 1, some met sums do not vanish and
        # some vanish but fail their collapse guard, so the run reports both
        monkeypatch.setattr(exp_sum, "vanishing_bound",
                            lambda g, w: core_arith.two_adic_valuation(w) + 1)
    evaluate = CLAIMS["theorem6"].evaluate
    gs, ws, ns = range(-15, 16, 2), [w for w in range(-8, 9) if w], range(1, 11)
    expected, alone = {}, {}
    for g in gs:
        for w in ws:
            for n in ns:
                # the public check refuses g = +-1, which the run counts as not met
                expected[g, n, w] = (Verdict.HYPOTHESIS_NOT_MET if g in (-1, 1)
                                     else check_orbit_vanishing(g, w, n))
                # the run of one tuple
                one = evaluate(range(g, g + 1), (w,), range(n, n + 1))
                assert _verdicts(one) == [expected[g, n, w]], (g, n, w)
                alone.update((detail[:3], detail[3]) for detail in one[2])
    run = evaluate(gs, ws, ns)
    assert Counter(_verdicts(run)) == Counter(expected.values())
    reported = {(g, n, w): outcome for g, n, w, outcome in run[2]}
    assert len(reported) == len(run[2])
    assert reported == alone
    assert reported.keys() == {
        tuple_ for tuple_, verdict in expected.items() if verdict is Verdict.COUNTEREXAMPLE
    }
    observed = {detail[0].split("(")[0] for _, detail in reported.values()}
    assert observed == ({"count", "exact zero "} if forced else set())

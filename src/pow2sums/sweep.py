"""Exhaustive claim sweeps over (g, n[, w]) domains, with reports.

Each sweepable claim is one evaluate callable in the CLAIMS registry,
under a stable id.  It applies the claim's hypothesis filter and runs the
library's checker once per tuple, returning the verdict together with the
report's (observed, expected) strings, built from the values that
decided the verdict.  The ids, verdict tallies and the JSON report
schema are the machine interface; the registry is mutable so a harness
(or the test suite) can inject extra claims.

Per-modulus claims iterate canonical odd residues g in [1, 2^n) clipped
to the requested range, one pass per exponent; the orbit-sum claim
iterates literal signed integers for g and w, since its hypotheses are
about g as an integer.  Work is cut into chunks of input tuples and
evaluated inline or on a process pool; tallies merge associatively and
exceptions are sorted, so a report is byte-deterministic for a given
spec at any worker count.
"""
from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Optional

from . import core_arith, exp_sum, half_order, order_engine
from .core_arith import canonical_residue
from .verdict import Outcome, Verdict

_CHUNK_TUPLES = 4096


class UsageError(ValueError):
    """The sweep specification is malformed."""


@dataclass(frozen=True)
class Claim:
    """One sweepable claim.

    evaluate(g, n, w) must accept every tuple the domain generator produces
    (hypothesis filtering happens inside) and returns (verdict, detail) from
    one evaluation: detail is the (observed, expected) pair of strings for
    the report when the verdict is COUNTEREXAMPLE or PAPER_EXCEPTION, and
    None otherwise.
    """

    name: str
    needs_w: bool
    evaluate: Callable[[int, int, Optional[int]], Outcome]


@dataclass(frozen=True)
class SweepSpec:
    """Domain and execution parameters for one sweep."""

    claim: str
    g_min: int
    g_max: int
    n_min: int
    n_max: int
    w_min: Optional[int] = None
    w_max: Optional[int] = None
    jobs: int = 1


@dataclass(frozen=True)
class SweepException:
    """One exception-grade case: where it happened and what was seen."""

    g: int
    n: int
    w: Optional[int]
    observed: str
    expected: str


@dataclass
class SweepReport:
    """Outcome of a sweep; everything except wall_time_ms is deterministic."""

    claim: str
    domain: dict
    cases_checked: int
    tallies: dict[str, int]
    exceptions: list[SweepException] = field(default_factory=list)
    wall_time_ms: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Claim catalog
# ---------------------------------------------------------------------------

def _eval_order_oracle(g: int, n: int, w: Optional[int]) -> Outcome:
    naive = order_engine.order_naive(g, n).omega
    fast = order_engine.order_fast(g, n).omega
    if naive == fast:
        return Verdict.HOLDS, None
    return Verdict.COUNTEREXAMPLE, (f"fast path omega={fast}", f"naive scan omega={naive}")


def _eval_order_doubling(g: int, n: int, w: Optional[int]) -> Outcome:
    # the doubling step needs exponent n + 1, which the guard refuses at the
    # limit; read the limit here so a reassigned core_arith.MAX_EXPONENT holds
    if n == core_arith.MAX_EXPONENT:
        return Verdict.HYPOTHESIS_NOT_MET, None
    return order_engine._order_doubling(g, n)


def _half_order_claim(
    check: Callable[[int, int], Outcome],
) -> Callable[[int, int, Optional[int]], Outcome]:
    """Evaluate a half-order checker on the tuples that meet its hypotheses,
    n >= 3 and g != 1 (mod 2^n), where a half-order residue exists."""

    def evaluate(g: int, n: int, w: Optional[int]) -> Outcome:
        if n < 3 or canonical_residue(g, n) == 1:
            return Verdict.HYPOTHESIS_NOT_MET, None
        return check(g, n)

    return evaluate


def _eval_orbit_vanishing(g: int, n: int, w: Optional[int]) -> Outcome:
    assert w is not None
    if g in (-1, 1):
        return Verdict.HYPOTHESIS_NOT_MET, None
    return exp_sum._orbit_vanishing(g, w, n)


CLAIMS: dict[str, Claim] = {
    c.name: c
    for c in (
        Claim("order_oracle", False, _eval_order_oracle),
        Claim("lemma1", False, _eval_order_doubling),
        Claim("lemma2", False, _half_order_claim(half_order._involution_membership)),
        Claim("lemma3", False, _half_order_claim(half_order._minus_one_case)),
        Claim("lemma4_theorem5", False, _half_order_claim(half_order._classification)),
        Claim("theorem6", True, _eval_orbit_vanishing),
    )
}


# ---------------------------------------------------------------------------
# Domain generation and execution
# ---------------------------------------------------------------------------

def _validate(spec: SweepSpec) -> Claim:
    claim = CLAIMS.get(spec.claim)
    if claim is None:
        raise UsageError(f"unknown claim {spec.claim!r}; known: {', '.join(sorted(CLAIMS))}")
    if spec.g_min > spec.g_max:
        raise UsageError(f"empty g range [{spec.g_min}, {spec.g_max}]")
    if spec.n_min > spec.n_max:
        raise UsageError(f"empty n range [{spec.n_min}, {spec.n_max}]")
    if spec.n_min < 1:
        raise UsageError(f"n range must start at 1 or above, got {spec.n_min}")
    has_w = spec.w_min is not None or spec.w_max is not None
    if claim.needs_w:
        if spec.w_min is None or spec.w_max is None:
            raise UsageError(f"claim {claim.name!r} requires a w range")
        if spec.w_min > spec.w_max:
            raise UsageError(f"empty w range [{spec.w_min}, {spec.w_max}]")
    elif has_w:
        raise UsageError(f"claim {claim.name!r} does not take a w range")
    if spec.jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {spec.jobs}")
    return claim


def _tuples(spec: SweepSpec, claim: Claim) -> Iterator[tuple[int, int, Optional[int]]]:
    if claim.needs_w:
        assert spec.w_min is not None and spec.w_max is not None
        g_lo = spec.g_min if spec.g_min % 2 else spec.g_min + 1
        for g in range(g_lo, spec.g_max + 1, 2):
            for w in range(spec.w_min, spec.w_max + 1):
                if w == 0:
                    continue
                for n in range(spec.n_min, spec.n_max + 1):
                    yield g, n, w
    else:
        for n in range(spec.n_min, spec.n_max + 1):
            lo = max(spec.g_min, 1)
            if lo % 2 == 0:
                lo += 1
            hi = min(spec.g_max, (1 << n) - 1)
            for g in range(lo, hi + 1, 2):
                yield g, n, None


def _chunks(spec: SweepSpec, claim: Claim) -> Iterator[list[tuple[int, int, Optional[int]]]]:
    block: list[tuple[int, int, Optional[int]]] = []
    for item in _tuples(spec, claim):
        block.append(item)
        if len(block) >= _CHUNK_TUPLES:
            yield block
            block = []
    if block:
        yield block


def _run_chunk(
    job: tuple[str, list[tuple[int, int, Optional[int]]]],
) -> tuple[dict[str, int], list[SweepException]]:
    claim_name, items = job
    claim = CLAIMS[claim_name]
    tallies = {v.value: 0 for v in Verdict}
    exceptions: list[SweepException] = []
    for g, n, w in items:
        verdict, detail = claim.evaluate(g, n, w)
        tallies[verdict.value] += 1
        if verdict in (Verdict.COUNTEREXAMPLE, Verdict.PAPER_EXCEPTION):
            observed, expected = detail
            exceptions.append(SweepException(g=g, n=n, w=w, observed=observed, expected=expected))
    return tallies, exceptions


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Evaluate the claim on every tuple in the domain and tally verdicts.

    Deterministic up to wall_time_ms: the report content is independent of
    the worker count.
    """
    claim = _validate(spec)
    start = time.perf_counter()
    jobs = [(spec.claim, block) for block in _chunks(spec, claim)]
    if spec.jobs == 1 or len(jobs) <= 1:
        results = [_run_chunk(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(pool.map(_run_chunk, jobs))
    tallies = {v.value: 0 for v in Verdict}
    exceptions: list[SweepException] = []
    for chunk_tallies, chunk_exceptions in results:
        for key, count in chunk_tallies.items():
            tallies[key] += count
        exceptions.extend(chunk_exceptions)
    exceptions.sort(key=lambda e: (e.n, e.g, e.w if e.w is not None else 0))
    domain = {
        "g_min": spec.g_min,
        "g_max": spec.g_max,
        "n_min": spec.n_min,
        "n_max": spec.n_max,
        "w_min": spec.w_min,
        "w_max": spec.w_max,
    }
    return SweepReport(
        claim=spec.claim,
        domain=domain,
        cases_checked=sum(tallies.values()),
        tallies=tallies,
        exceptions=exceptions,
        wall_time_ms=int((time.perf_counter() - start) * 1000),
    )


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    """The canonical JSON form: sorted keys, two-space indent, no trailing
    whitespace.  Parsing and re-serializing is byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2)


def format_report(report: SweepReport, fmt: str = "json") -> str:
    """Render a report as canonical json, exception csv, or a human table."""
    if fmt == "json":
        return canonical_json(report.as_dict())
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["g", "n", "w", "observed", "expected"])
        for e in report.exceptions:
            writer.writerow([e.g, e.n, "" if e.w is None else e.w, e.observed, e.expected])
        return out.getvalue()
    if fmt == "table":
        lines = [
            f"claim:               {report.claim}",
            f"domain:              g in [{report.domain['g_min']}, {report.domain['g_max']}],"
            f" n in [{report.domain['n_min']}, {report.domain['n_max']}]"
            + (
                f", w in [{report.domain['w_min']}, {report.domain['w_max']}]"
                if report.domain["w_min"] is not None
                else ""
            ),
            f"cases checked:       {report.cases_checked}",
            f"holds:               {report.tallies['holds']}",
            f"hypothesis not met:  {report.tallies['hypothesis_not_met']}",
            f"paper exceptions:    {report.tallies['paper_exception']}",
            f"counterexamples:     {report.tallies['counterexample']}",
            f"wall time:           {report.wall_time_ms} ms",
        ]
        if report.exceptions:
            lines.append("exceptions:")
            for e in report.exceptions:
                where = f"g={e.g}, n={e.n}" + ("" if e.w is None else f", w={e.w}")
                lines.append(f"  {where}: observed {e.observed}; expected {e.expected}")
        return "\n".join(lines)
    raise UsageError(f"unknown format {fmt!r}; known: json, csv, table")

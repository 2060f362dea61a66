"""Exhaustive claim sweeps over (g, n[, w]) domains, with reports.

Each sweepable claim is one evaluate callable in the CLAIMS registry,
under a stable id.  It takes a run of the domain, the odd g of a range,
applies the claim's hypothesis filter, and returns the run's counts of
tuples that held and that were not met, with the report's (observed,
expected) strings for each other tuple, built from the values that
decided it; the sweep only adds runs up.  One loop serves all five
per-modulus claims: it reads every n's order and half-order residue from
one squaring chain per g, with the order one exponent up for lemma1, and
calls the claim's checker once per tuple.  The orbit-sum claim, exp_sum's
own run, walks one chain per g, and below the literal cap counts one
orbit table per subgroup <g> mod 2^M at the largest collapsed exponent
m = n - d(w), folded to each lower m.  The ids, verdict tallies and the
JSON report schema are the machine interface; the registry is mutable so
a harness (or the test suite) can inject extra claims.

Per-modulus claims take each odd g in the range at every n with g < 2^n,
i.e. the canonical residues of each modulus; the orbit-sum claim takes
literal signed integers for g and w, since its hypotheses are about g as
an integer, and skips w = 0.  A sweep is one run; with min(jobs, CPU
count) > 1 workers, two or more g and a g x w x n grid of more than one
_CHUNK_TUPLES chunk, it is cut into about four near-equal runs of g per
worker, the orbit-sum claim into at most four stripes of g, one per
class mod 8.  Tallies add up and exceptions are sorted, so a report is
byte-deterministic for a given spec at any worker count.  Only a sweep
that starts a pool imports the pool machinery (multiprocessing).
"""
from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

from . import core_arith, exp_sum, half_order, order_engine
from .verdict import HOLDS, NOT_MET, Outcome, Run, Verdict

_CHUNK_TUPLES = 4096

# a per-modulus checker: (g, n, omega, residue, the order at n + its
# claim's reach or None past the guard) -> the tuple's outcome
_Check = Callable[[int, int, int, int, Optional[int]], Outcome]


class UsageError(ValueError):
    """The sweep specification is malformed."""


@dataclass(frozen=True)
class Claim:
    """One sweepable claim.

    evaluate(gs, ws, ns) takes a run: each g of the range gs with each
    weight of ws ((None,) for a per-modulus claim) at every n of the range
    ns, for a per-modulus claim only the n with g < 2^n.  It evaluates each
    tuple once and returns the Run (held, unmet, details), details holding
    (g, n, w, (verdict, (observed, expected))) for each COUNTEREXAMPLE and
    PAPER_EXCEPTION; unless the three count each tuple once, the sweep
    raises ValueError.
    """

    name: str
    needs_w: bool
    evaluate: Callable[[range, Sequence[Optional[int]], range], Run]


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

def _column_claim(check: _Check, reach: int = 0) -> Callable[..., Run]:
    """A per-modulus claim on a run of g: every n of a g reads its order and
    half-order residue, and the order at n + reach, from one column, and
    check(g, n, omega, residue, above) decides the tuple.  The column stops
    at MAX_EXPONENT, read at call time; an order past it is handed as None."""

    def evaluate(gs: range, ws: Sequence[Optional[int]], ns: range) -> Run:
        column = order_engine._order_column
        top = min(ns[-1] + reach, core_arith.MAX_EXPONENT)
        beyond = [(None, None)] * (ns[-1] + reach - top)
        held = unmet = 0
        details = []
        for g in gs:
            # the claim takes g at every n of ns with g < 2^n
            lo = max(ns.start, g.bit_length())
            rows = column(g, lo, top)
            ups = rows[reach:] + beyond if reach else rows
            for n, (omega, residue), (above, _) in zip(range(lo, ns.stop), rows, ups):
                outcome = check(g, n, omega, residue, above)
                if outcome is HOLDS:
                    held += 1
                elif outcome is NOT_MET:
                    unmet += 1
                else:
                    details.append((g, n, None, outcome))
        return held, unmet, details

    return evaluate


def _order_oracle(g: int, n: int, omega: int, residue: int, above: int) -> Outcome:
    slow = order_engine.order_naive(g, n).omega
    if slow == omega:
        return HOLDS
    return Verdict.COUNTEREXAMPLE, (f"fast path omega={omega}", f"naive scan omega={slow}")


def _half_order(check: Callable[[int, int, int, int], Outcome]) -> _Check:
    """A half-order checker on the tuples that meet its hypotheses, n >= 3
    and g != 1 (mod 2^n), i.e. omega > 1, where a half-order residue exists."""
    return lambda g, n, omega, residue, above: (
        check(g, n, omega >> 1, residue) if n >= 3 and omega > 1 else NOT_MET)


CLAIMS: dict[str, Claim] = {
    c.name: c
    for c in (
        Claim("order_oracle", False, _column_claim(_order_oracle)),
        Claim("lemma1", False, _column_claim(order_engine._doubling, reach=1)),
        Claim("lemma2", False, _column_claim(_half_order(half_order._involution_membership))),
        Claim("lemma3", False, _column_claim(_half_order(half_order._minus_one_case))),
        Claim("lemma4_theorem5", False, _column_claim(_half_order(half_order._classification))),
        Claim("theorem6", True, exp_sum._orbit_vanishing),
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
    core_arith._require_exponent(spec.n_max)
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


def _g_range(spec: SweepSpec, claim: Claim) -> range:
    """The odd g a claim takes: literal signed integers for the orbit-sum
    claim, canonical residues below 2^n_max for the per-modulus claims."""
    if claim.needs_w:
        lo, hi = spec.g_min, spec.g_max
    else:
        lo, hi = max(spec.g_min, 1), min(spec.g_max, (1 << spec.n_max) - 1)
    return range(lo | 1, hi + 1, 2)


def _slices(claim: Claim, gs: range, ws: Sequence[Optional[int]], ns: range,
            workers: int) -> list[tuple]:
    """Cut a sweep's run into k = min(4 * workers, len(gs), chunks)
    near-equal runs of g, each with every w, chunks counting _CHUNK_TUPLES
    in the g x w x n grid that its columns walk.  The orbit-sum claim, when
    cut, takes instead one stripe gs[i::4] per class of g mod 8: the h that
    generate <g> mod 2^m are its odd powers, all = g (mod 8), so each
    subgroup's table is walked in one slice.  Classes mod 16 would split
    a subgroup: 3^3 = 11 (mod 16)."""
    k = min(4 * workers, len(gs), -(-len(gs) * len(ws) * len(ns) // _CHUNK_TUPLES))
    if claim.needs_w and k > 1:
        return [(claim.name, gs[i::4], ws, ns) for i in range(min(4, len(gs)))]
    return [(claim.name, gs[i * len(gs) // k:(i + 1) * len(gs) // k], ws, ns) for i in range(k)]


def _run_chunk(run: tuple[str, range, Sequence[Optional[int]], range]) -> Run:
    """Evaluate a (claim id, gs, ws, ns) run, its g in one call, and check
    that its counts take each of its tuples once."""
    name, gs, ws, ns = run
    claim = CLAIMS[name]
    held, unmet, details = claim.evaluate(gs, ws, ns)
    # the run's size: each n of a per-modulus claim takes the g below 2^n
    size = len(gs) * len(ws) * len(ns) if claim.needs_w else sum(
        len(range(gs.start, min(gs.stop, 1 << n), 2)) for n in ns)
    if held + unmet + len(details) != size:
        raise ValueError(f"claim {claim.name!r} does not count each of its {size} tuples once")
    return held, unmet, details


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Evaluate the claim on every tuple in the domain and tally verdicts.

    Deterministic up to wall_time_ms: the report content is independent of
    the worker count.
    """
    claim = _validate(spec)
    start = time.perf_counter()
    gs, ns = _g_range(spec, claim), range(spec.n_min, spec.n_max + 1)
    ws = [w for w in range(spec.w_min, spec.w_max + 1) if w] if claim.needs_w else (None,)
    workers = min(spec.jobs, os.cpu_count() or 1)
    slices = _slices(claim, gs, ws, ns, workers) if workers > 1 else []
    if len(slices) <= 1:
        runs = [_run_chunk((claim.name, gs, ws, ns))]
    else:
        # imported here, so an inline sweep never loads the pool stack
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(slices))) as pool:
            runs = list(pool.map(_run_chunk, slices))
    tallies = {v.value: 0 for v in Verdict}
    for held, unmet, details in runs:
        tallies["holds"] += held
        tallies["hypothesis_not_met"] += unmet
        for *_, (verdict, _) in details:
            tallies[verdict.value] += 1
    exceptions = sorted((SweepException(g, n, w, *detail)
                         for *_, details in runs for g, n, w, (_, detail) in details),
                        key=lambda e: (e.n, e.g, e.w if e.w is not None else 0))
    domain = {k: v for k, v in asdict(spec).items() if k not in ("claim", "jobs")}
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
    """The canonical JSON form of a report or record: the bytes of
    json.dumps(obj, sort_keys=True, indent=2), with its errors.

    json.dumps does not use its C encoder when indent is set, so it builds
    a chunk per value.  In a dict, the value of a str key that is a list
    of equal-length rows of ints, such as the expsum pairing, is written
    instead with one row template, and the dict in a single formatting
    pass; each other value is json.dumps's text, indented one level.
    """
    rows = isinstance(obj, dict) and {
        k for k, v in obj.items() if isinstance(k, str) and _int_rows(v)}
    if not rows:
        return json.dumps(obj, sort_keys=True, indent=2)
    # one template and one % for the whole dict; keys and the other values
    # are %s arguments, so a % in their text is not read as a format
    template, args = [], []
    for key in sorted(obj):
        value = obj[key]
        template.append(",\n  %s: " if template else "{\n  %s: ")
        args.append((encode_basestring_ascii(key),))
        if key in rows:
            row = "[" + ",".join(["\n      %d"] * len(value[0])) + "\n    ]"
            template += ["[\n    " + row] + [",\n    " + row] * (len(value) - 1) + ["\n  ]"]
            args.append(chain.from_iterable(value))
        else:
            template.append("%s")
            args.append((json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "),))
    template.append("\n}")
    return "".join(template) % tuple(chain.from_iterable(args))


def _int_rows(value) -> bool:
    """value is a non-empty list or tuple of equal-length rows of exact ints
    (%d would print a bool as 1 and truncate a float)."""
    return (isinstance(value, (list, tuple)) and set(map(type, value)) <= {list, tuple}
            and len(set(map(len, value))) == 1
            and set(map(type, chain.from_iterable(value))) == {int})


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

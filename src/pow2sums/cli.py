"""Command-line front end.

One subcommand per library operation plus the sweep harness.  Each
query subcommand is declared once, in _QUERIES: its help, its required
int options and the function that builds its record.  Single queries
print one canonical-JSON record (or a key/value table, or a one-row
csv); sweeps print a report in the selected format.

Exit codes: 0 success / no counterexamples; 1 counterexamples found (or,
under --strict-paper, documented exceptions found); 2 usage or domain
error, a sweep claim whose counts do not cover its tuples, or an output
pipe closed by its reader.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields
from typing import Optional, Sequence

from . import __version__
from .core_arith import odd_part, threshold_exponent
from .exp_sum import min_vanishing_n, orbit_certificate, vanishing_bound
from .half_order import half_order_residue
from .order_engine import ScanBudgetExceeded, order_fast, order_naive, order_table
from .sweep import CLAIMS, SweepSpec, canonical_json, format_report, run_sweep

_FORMATS = ("json", "csv", "table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pow2sums",
        description=(
            "Multiplicative orders modulo 2^n, half-order involutions, and "
            "exact vanishing certificates for root-of-unity orbit sums."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, options, record) in _QUERIES.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", type=int, required=True)
        if record is _order:
            p.add_argument("--naive", action="store_true", help="use the definitional scan")
        p.add_argument("--format", choices=_FORMATS, default="json")
        # the default binds this entry's builder; a closure would see the last
        p.set_defaults(run=lambda args, record=record: _emit(record(args), args.format))

    p = sub.add_parser("sweep", help="check one claim over a (g, n[, w]) domain")
    p.add_argument("--claim", required=True, choices=sorted(CLAIMS))
    p.add_argument("--g-min", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--w-min", type=int)
    p.add_argument("--w-max", type=int)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count")
    p.add_argument(
        "--strict-paper",
        action="store_true",
        help="treat documented exceptions as failures (exit 1)",
    )
    p.add_argument("--format", choices=_FORMATS, default="json")
    p.set_defaults(run=_sweep)

    return parser


def _emit(record: dict, fmt: str) -> int:
    """Print a query's record in fmt; a printed record exits 0."""
    if fmt == "json":
        print(canonical_json(record))
        return 0
    keys = sorted(record)
    # one cell rule for csv and table: a tuple or list is a JSON list
    cells = [json.dumps(v) if isinstance(v, (list, tuple)) else str(v)
             for v in map(record.get, keys)]
    if fmt == "csv":
        # a list cell is quoted, so a csv reader gets one cell per key
        csv.writer(sys.stdout, lineterminator="\n").writerows([keys, cells])
    else:
        width = max(map(len, keys))
        print("\n".join(f"{k:<{width}}  {cell}" for k, cell in zip(keys, cells)))
    return 0


def _order(args: argparse.Namespace) -> dict:
    rec = order_naive(args.g, args.n) if args.naive else order_fast(args.g, args.n)
    return asdict(rec)


def _order_table(args: argparse.Namespace) -> dict:
    records = order_table(args.g, args.n_max)
    return {"g": args.g, "n_max": args.n_max, "omegas": [r.omega for r in records]}


def _valuation(args: argparse.Namespace) -> dict:
    d, w0 = odd_part(args.w)
    return {"w": args.w, "valuation": d, "odd_part": w0}


def _c(args: argparse.Namespace) -> dict:
    return {"g": args.g, "c": threshold_exponent(args.g)}


def _half_order(args: argparse.Namespace) -> dict:
    result = half_order_residue(args.g, args.n)
    return {**asdict(result), "involution": result.involution.value}


def _expsum(args: argparse.Namespace) -> dict:
    terms, cert, value = orbit_certificate(args.g, args.w, args.n)
    return {
        "g": args.g,
        "w": args.w,
        "n": args.n,
        "terms": terms,
        "is_zero": cert.is_zero,
        "pairing": cert.pairing,
        "violating_residue": cert.violating_residue,
        "float_sum": None if value is None else [value.real, value.imag],
    }


def _min_vanishing(args: argparse.Namespace) -> dict:
    found = min_vanishing_n(args.g, args.w, args.n_max)
    return {
        "g": args.g,
        "w": args.w,
        "n_max": args.n_max,
        "bound": vanishing_bound(args.g, args.w),
        "found": found is not None,
        "n": None if found is None else found.n,
        "slack": None if found is None else found.slack,
    }


# every query subcommand, in --help order: its help, its required int
# options, and the function that builds its record from the parsed args
_QUERIES = {
    "order": ("multiplicative order of g modulo 2^n", ("g", "n"), _order),
    "order-table": ("orders of g modulo 2^1 .. 2^n_max", ("g", "n-max"), _order_table),
    "valuation": ("2-adic valuation and odd part of w", ("w",), _valuation),
    "c": ("threshold exponent of the base g", ("g",), _c),
    "half-order": ("classify g^(omega/2) modulo 2^n", ("g", "n"), _half_order),
    "expsum": ("exact vanishing certificate for the orbit sum", ("g", "w", "n"), _expsum),
    "min-vanishing-n": ("least exponent at which the orbit sum vanishes", ("g", "w", "n-max"),
                        _min_vanishing),
}


def _sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(**{f.name: getattr(args, f.name) for f in fields(SweepSpec)})
    report = run_sweep(spec)
    # csv text already ends its last row
    print(format_report(report, args.format), end="" if args.format == "csv" else "\n")
    if report.tallies["counterexample"] > 0:
        return 1
    if args.strict_paper and report.tallies["paper_exception"] > 0:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ScanBudgetExceeded) as exc:
        # DomainError, UsageError and a sweep run's failed count check
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`); exit 1 would claim counterexamples.
        # stdout now points at devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    raise SystemExit(code)

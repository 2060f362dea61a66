"""Command-line front end.

One subcommand per library operation plus the sweep harness.  Single
queries print one canonical-JSON record (or a key/value table, or a
one-row csv); sweeps print a report in the selected format.

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

    def fmt_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=_FORMATS, default="json")

    p = sub.add_parser("order", help="multiplicative order of g modulo 2^n")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--naive", action="store_true", help="use the definitional scan")
    fmt_arg(p)

    p = sub.add_parser("order-table", help="orders of g modulo 2^1 .. 2^n_max")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    fmt_arg(p)

    p = sub.add_parser("valuation", help="2-adic valuation and odd part of w")
    p.add_argument("--w", type=int, required=True)
    fmt_arg(p)

    p = sub.add_parser("c", help="threshold exponent of the base g")
    p.add_argument("--g", type=int, required=True)
    fmt_arg(p)

    p = sub.add_parser("half-order", help="classify g^(omega/2) modulo 2^n")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    fmt_arg(p)

    p = sub.add_parser("expsum", help="exact vanishing certificate for the orbit sum")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    fmt_arg(p)

    p = sub.add_parser("min-vanishing-n", help="least exponent at which the orbit sum vanishes")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    fmt_arg(p)

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
    fmt_arg(p)

    return parser


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(canonical_json(record))
        return
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


def _cmd_order(args: argparse.Namespace) -> int:
    rec = order_naive(args.g, args.n) if args.naive else order_fast(args.g, args.n)
    _emit(asdict(rec), args.format)
    return 0


def _cmd_order_table(args: argparse.Namespace) -> int:
    records = order_table(args.g, args.n_max)
    _emit(
        {"g": args.g, "n_max": args.n_max, "omegas": [r.omega for r in records]},
        args.format,
    )
    return 0


def _cmd_valuation(args: argparse.Namespace) -> int:
    d, w0 = odd_part(args.w)
    _emit({"w": args.w, "valuation": d, "odd_part": w0}, args.format)
    return 0


def _cmd_c(args: argparse.Namespace) -> int:
    _emit({"g": args.g, "c": threshold_exponent(args.g)}, args.format)
    return 0


def _cmd_half_order(args: argparse.Namespace) -> int:
    result = half_order_residue(args.g, args.n)
    _emit({**asdict(result), "involution": result.involution.value}, args.format)
    return 0


def _cmd_expsum(args: argparse.Namespace) -> int:
    terms, cert, value = orbit_certificate(args.g, args.w, args.n)
    _emit(
        {
            "g": args.g,
            "w": args.w,
            "n": args.n,
            "terms": terms,
            "is_zero": cert.is_zero,
            "pairing": cert.pairing,
            "violating_residue": cert.violating_residue,
            "float_sum": None if value is None else [value.real, value.imag],
        },
        args.format,
    )
    return 0


def _cmd_min_vanishing(args: argparse.Namespace) -> int:
    found = min_vanishing_n(args.g, args.w, args.n_max)
    _emit(
        {
            "g": args.g,
            "w": args.w,
            "n_max": args.n_max,
            "bound": vanishing_bound(args.g, args.w),
            "found": found is not None,
            "n": None if found is None else found.n,
            "slack": None if found is None else found.slack,
        },
        args.format,
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(**{f.name: getattr(args, f.name) for f in fields(SweepSpec)})
    report = run_sweep(spec)
    # csv text already ends its last row
    print(format_report(report, args.format), end="" if args.format == "csv" else "\n")
    if report.tallies["counterexample"] > 0:
        return 1
    if args.strict_paper and report.tallies["paper_exception"] > 0:
        return 1
    return 0


_COMMANDS = {
    "order": _cmd_order,
    "order-table": _cmd_order_table,
    "valuation": _cmd_valuation,
    "c": _cmd_c,
    "half-order": _cmd_half_order,
    "expsum": _cmd_expsum,
    "min-vanishing-n": _cmd_min_vanishing,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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

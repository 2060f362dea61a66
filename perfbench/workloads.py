"""Workload inputs, timed passes and the correctness gate.

A workload is a list of operations; running each once is one *pass*.  The
sweep workloads call ``pow2sums.sweep.run_sweep`` once per claim;
``deep_query`` calls ``pow2sums.cli.main`` once per query with stdout
captured.  The harness times each operation and passes back to ``check``
its result, or the exception it raised.  Calls go through
module attributes (``sweep.run_sweep``, ``cli.main``) so that the tracer in
``tracing.py`` sees them when it is installed.

Every output is checked outside the timed window:

* a sweep report, with ``wall_time_ms`` removed, must hash to the digest
  pinned below and carry the pinned tallies (taken at commit 79a2b55);
* a CLI record is re-derived with Python's own ``pow``, independently of the
  library's routes.

A check that fails, or an operation that raised, counts as one failed
operation; nothing aborts the run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field, replace

from pow2sums import cli, sweep
from pow2sums.sweep import SweepSpec


@dataclass
class Gate:
    """Counts operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def report_digest(report: sweep.SweepReport) -> str:
    """sha256 of the canonical JSON report without its wall time."""
    body = report.as_dict()
    body.pop("wall_time_ms")
    return hashlib.sha256(sweep.canonical_json(body).encode()).hexdigest()


def _tallies(holds: int, not_met: int, paper: int = 0, counter: int = 0) -> dict[str, int]:
    return {
        "holds": holds,
        "hypothesis_not_met": not_met,
        "paper_exception": paper,
        "counterexample": counter,
    }


@dataclass(frozen=True)
class PinnedSweep:
    """One sweep domain with the report it must reproduce."""

    spec: SweepSpec
    digest: str
    tallies: dict[str, int]


# The five per-modulus claims at their acceptance domains (118,770 cases).
CATALOG = (
    PinnedSweep(
        SweepSpec("order_oracle", 1, (1 << 12) - 1, 1, 12),
        "0d7629330a88d04e5ca4a4159d3f471a1883b7377e329e89c1f13fb69e578973",
        _tallies(4095, 0),
    ),
    PinnedSweep(
        SweepSpec("lemma1", 1, (1 << 16) - 1, 1, 16),
        "f431da53395ea5f47a600a1d48b2607ab651249e0c6403f9ce43682e4b9e478b",
        _tallies(65504, 31),
    ),
    PinnedSweep(
        SweepSpec("lemma2", 1, (1 << 14) - 1, 3, 14),
        "90c27efc33c1502bafc9b97e8d53d8c7d264ad369f76cfcf6ccc588388f2f146",
        _tallies(16368, 12),
    ),
    PinnedSweep(
        SweepSpec("lemma3", 1, (1 << 14) - 1, 3, 14),
        "65302610ba34911cc5c57b7e81bb7400818352000441b6bf6442112dc952fb39",
        _tallies(12, 16368),
    ),
    PinnedSweep(
        SweepSpec("lemma4_theorem5", 1, (1 << 14) - 1, 3, 14),
        "791641d128381399f33560cb6483ec0b1f278ac9e407479455161f452f3fca11",
        _tallies(16356, 12, paper=12),
    ),
)

# theorem6 over odd g in [-31, 31], w in [-32, 32] \ {0}, n in 1..12 (24,576 cases).
ORBIT = (
    PinnedSweep(
        SweepSpec("theorem6", -31, 31, 1, 12, -32, 32),
        "87bd5f9b70f28029a3f79425e46751adc870f6ab9498d91a664111a41e5780b3",
        _tallies(12732, 11844),
    ),
)

# Tiny domains for the self-test: the same claims, in milliseconds.
CATALOG_SMOKE = (
    PinnedSweep(
        SweepSpec("order_oracle", 1, 63, 1, 6),
        "5d965e8a59599f0afd25b43c94de1c38ede312125b409f7e691c6efc59c686d5",
        _tallies(63, 0),
    ),
    PinnedSweep(
        SweepSpec("lemma1", 1, 255, 1, 8),
        "b4dc4305837376d186ae8bd28d1cd2eb0df2e48df66b2fd524c535e474b8d8ff",
        _tallies(240, 15),
    ),
    PinnedSweep(
        SweepSpec("lemma2", 1, 127, 3, 8),
        "c3943726670ccd6928723c5d0ad3d1c3007134c9b83192c9610594083681a3e1",
        _tallies(182, 6),
    ),
    PinnedSweep(
        SweepSpec("lemma3", 1, 127, 3, 8),
        "a71158a5fb70a4f629e990b11d18aeab60b993dae9a21f76cf8a7fe80f2df51d",
        _tallies(5, 183),
    ),
    PinnedSweep(
        SweepSpec("lemma4_theorem5", 1, 127, 3, 8),
        "d88a4efd670de24aab1ca89e3d36482240c3e769795c90e6c332db3733e99a21",
        _tallies(176, 6, paper=6),
    ),
)
ORBIT_SMOKE = (
    PinnedSweep(
        SweepSpec("theorem6", -7, 7, 1, 8, -8, 8),
        "b682416ccee0f607e078dd202722292f2536f1da8ee937b6c8125f1c49d6827a",
        _tallies(396, 628),
    ),
)


class SweepWorkload:
    """Run a fixed list of pinned sweeps; exhaustive, so the seed is unused."""

    def __init__(self, sweeps: tuple[PinnedSweep, ...], jobs: int) -> None:
        self.sweeps = tuple(replace(p, spec=replace(p.spec, jobs=jobs)) for p in sweeps)
        self.jobs = jobs

    def __len__(self) -> int:
        return len(self.sweeps)

    def run_op(self, i: int) -> sweep.SweepReport:
        return sweep.run_sweep(self.sweeps[i].spec)

    @staticmethod
    def cases(results: list) -> int:
        return sum(r.cases_checked for r in results if isinstance(r, sweep.SweepReport))

    @staticmethod
    def fingerprint(results: list) -> list[str]:
        return [
            report_digest(r) if isinstance(r, sweep.SweepReport) else repr(r) for r in results
        ]

    @staticmethod
    def output_bytes(results: list) -> int:
        return 0  # a sweep returns its report and prints nothing

    def check(self, results: list, gate: Gate) -> None:
        for pinned, result in zip(self.sweeps, results):
            name = pinned.spec.claim
            if not isinstance(result, sweep.SweepReport):
                gate.record(False, f"{name}: raised {result!r}")
                continue
            ok = (
                report_digest(result) == pinned.digest
                and result.tallies == pinned.tallies
                and result.cases_checked == sum(pinned.tallies.values())
            )
            gate.record(ok, f"{name}: report differs from the pinned digest or tallies")


# ---------------------------------------------------------------------------
# deep_query: single CLI queries at large exponents
# ---------------------------------------------------------------------------

QUERY_SIZES = {
    "full": {"order": (1024, 4096), "half-order": 4096, "order-table": 512, "expsum": (16, 18)},
    "smoke": {"order": (64, 128), "half-order": 128, "order-table": 32, "expsum": (8, 10)},
}


def _draw_odd(rng: random.Random, residues: tuple[int, ...]) -> int:
    """Odd integer with 1 < |x| < 2^16 whose residue mod 8 is in residues."""
    while True:
        x = rng.randrange(3, 1 << 16, 2) * rng.choice((1, -1))
        if x % 8 in residues:
            return x


def draw_queries(seed: int, size: str = "full") -> list[list[str]]:
    """CLI argument lists for one pass, drawn from the seed.

    Bases are odd with |g| < 2^16 and g = +-3 (mod 8), so every base has the
    largest order 2^(n-2) and a query's cost does not depend on the draw.
    Weights are odd, so every orbit sum vanishes and every pairing is full.
    """
    rng = random.Random(seed)
    sizes = QUERY_SIZES[size]

    def base() -> str:
        return str(_draw_odd(rng, (3, 5)))

    queries = [["order", "--g", base(), "--n", str(n)] for n in sizes["order"]]
    queries.append(["half-order", "--g", base(), "--n", str(sizes["half-order"])])
    queries.append(["order-table", "--g", base(), "--n-max", str(sizes["order-table"])])
    for n in sizes["expsum"]:
        w = str(_draw_odd(rng, (1, 3, 5, 7)))
        queries.append(["expsum", "--g", base(), "--w", w, "--n", str(n)])
    return queries


def _is_order(g: int, n: int, omega: int) -> bool:
    """omega is the order of g mod 2^n: g^omega = 1 and g^(omega/2) != 1."""
    m = 1 << n
    if omega < 1 or omega & (omega - 1):
        return False
    if omega == 1:
        return g % m == 1
    r = pow(g, omega // 2, m)
    return r != 1 and r * r % m == 1


def _check_order(args: dict, rec: dict) -> bool:
    g, n = args["g"], args["n"]
    return rec["g"] == g % (1 << n) and rec["n"] == n and _is_order(g, n, rec["omega"])


def _check_order_table(args: dict, rec: dict) -> bool:
    g, n_max, omegas = args["g"], args["n_max"], rec["omegas"]
    return len(omegas) == n_max and all(
        _is_order(g, n, omega) for n, omega in enumerate(omegas, start=1)
    )


def _check_half_order(args: dict, rec: dict) -> bool:
    g, n = args["g"], args["n"]
    m, half = 1 << n, rec["half_exponent"]
    r = rec["residue"]
    if half < 1 or half & (half - 1) or r != pow(g, half, m) or r == 1 or r * r % m != 1:
        return False
    label = {m - 1: "MINUS_ONE", m // 2 - 1: "HALF_MINUS_ONE", m // 2 + 1: "HALF_PLUS_ONE"}
    involution = label.get(r, "OTHER")
    expected = "MINUS_ONE" if g % m == m - 1 else "HALF_PLUS_ONE"
    return rec["involution"] == involution and rec["matches_expected"] == (involution == expected)


def _check_expsum(args: dict, rec: dict) -> bool:
    g, n = args["g"], args["n"]
    m, terms = 1 << n, rec["terms"]
    if not _is_order(g, n, terms):
        return False
    # w is odd, so the orbit is the coset w<g> and its sum vanishes exactly
    # when the involution of <g> is 2^(n-1) + 1.
    vanishes = pow(g, terms // 2, m) == m // 2 + 1
    if rec["is_zero"] != vanishes:
        return False
    if not vanishes:
        return rec["pairing"] is None and rec["violating_residue"] is not None
    residues = [r for r, _ in rec["pairing"]]
    return (
        rec["violating_residue"] is None
        and 2 * sum(c for _, c in rec["pairing"]) == terms
        and residues == sorted(set(residues))
        and all(0 <= r < m // 2 for r in residues)
        and abs(complex(*rec["float_sum"])) <= 1e-6 * terms
    )


_CHECKERS = {
    "order": _check_order,
    "order-table": _check_order_table,
    "half-order": _check_half_order,
    "expsum": _check_expsum,
}


def _parse_args(argv: list[str]) -> dict:
    """{"g": 3, "n": 4096, ...} from a query's argument list."""
    return {
        flag[2:].replace("-", "_"): int(value) for flag, value in zip(argv[1::2], argv[2::2])
    }


class QueryWorkload:
    """Run drawn CLI queries in-process, capturing what each prints."""

    jobs = 1

    def __init__(self, queries: list[list[str]]) -> None:
        self.queries = queries

    def __len__(self) -> int:
        return len(self.queries)

    def run_op(self, i: int) -> tuple[int, str]:
        """Exit code and captured stdout of one query."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.queries[i])
        return code, out.getvalue()

    @staticmethod
    def cases(results: list) -> int:
        return sum(1 for r in results if isinstance(r, tuple) and r[0] == 0)

    @staticmethod
    def fingerprint(results: list) -> list[str]:
        return [r[1] if isinstance(r, tuple) else repr(r) for r in results]

    @staticmethod
    def output_bytes(results: list) -> int:
        return sum(len(r[1].encode()) for r in results if isinstance(r, tuple))

    def check(self, results: list, gate: Gate) -> None:
        for argv, result in zip(self.queries, results):
            what = " ".join(argv)
            if not isinstance(result, tuple):
                gate.record(False, f"{what}: raised {result!r}")
                continue
            code, text = result
            try:
                ok = code == 0 and _CHECKERS[argv[0]](_parse_args(argv), json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                ok, what = False, f"{what}: unreadable record ({exc!r})"
            gate.record(ok, f"{what}: record fails its independent check")


def build(name: str, seed: int, jobs: int, smoke: bool):
    """The workload object for a name; jobs is used by catalog_pool only."""
    if name == "catalog_serial":
        return SweepWorkload(CATALOG_SMOKE if smoke else CATALOG, 1)
    if name == "catalog_pool":
        return SweepWorkload(CATALOG_SMOKE if smoke else CATALOG, jobs)
    if name == "orbit_vanishing":
        return SweepWorkload(ORBIT_SMOKE if smoke else ORBIT, 1)
    if name == "deep_query":
        return QueryWorkload(draw_queries(seed, "smoke" if smoke else "full"))
    raise ValueError(f"unknown workload {name!r}")

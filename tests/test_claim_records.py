"""Exception records of the sweep catalog, and one evaluation per tuple.

Most exception-grade branches never fire on real inputs, so each is forced
by replacing one computational route (an order, the squaring chain, the
shared orbit decider or the vanishing bound) and the report must carry the
exact observed/expected strings built from the values that route returned.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from pow2sums import DomainError, SweepSpec, Verdict, check_antipodal_shift, run_sweep
from pow2sums import core_arith, exp_sum, half_order, order_engine


def records(claim, g, n, w=None):
    """(g, n, w, observed, expected) of every exception in a jobs=1 sweep."""
    g_lo, g_hi = g if isinstance(g, tuple) else (g, g)
    n_lo, n_hi = n if isinstance(n, tuple) else (n, n)
    w_lo, w_hi = (w, w) if w is not None else (None, None)
    report = run_sweep(SweepSpec(claim, g_lo, g_hi, n_lo, n_hi, w_lo, w_hi, jobs=1))
    # each exception the report lists is tallied once
    tallied = report.tallies["paper_exception"] + report.tallies["counterexample"]
    assert tallied == len(report.exceptions)
    return [(e.g, e.n, e.w, e.observed, e.expected) for e in report.exceptions]


def test_order_oracle_records_both_orders(monkeypatch):
    real = order_engine.order_naive
    monkeypatch.setattr(
        order_engine, "order_naive", lambda g, n: replace(real(g, n), omega=3)
    )
    assert records("order_oracle", 5, 4) == [
        (5, 4, None, "fast path omega=4", "naive scan omega=3")
    ]


def forced_column(monkeypatch, force):
    """Make the column walker return force(g, n, omega, residue) at each n."""
    real = order_engine._order_column

    def column(g, n_lo, n_hi):
        return [
            force(g, n, omega, residue)
            for n, (omega, residue) in zip(range(n_lo, n_hi + 1), real(g, n_lo, n_hi))
        ]

    monkeypatch.setattr(order_engine, "_order_column", column)


def test_order_doubling_records_both_exponents(monkeypatch):
    forced_column(monkeypatch, lambda g, n, omega, residue: (6 if n == 5 else omega, residue))
    assert records("lemma1", 3, 4) == [
        (3, 4, None, "omega at exponent 5 = 6", "2 * omega at exponent 4 = 8")
    ]


def forced_chain(monkeypatch, residues):
    """Make the squaring chain end on residues[g] for the listed bases."""
    forced_column(
        monkeypatch, lambda g, n, omega, residue: (omega, residues.get(g, residue))
    )


def test_involution_membership_records_the_stray_residue(monkeypatch):
    forced_chain(monkeypatch, {3: 5})
    assert records("lemma2", 3, 4) == [
        (3, 4, None, "half-order residue 5 outside the candidate set", "residue in {15, 7, 9}")
    ]


def test_minus_one_case_records_order_and_base(monkeypatch):
    forced_chain(monkeypatch, {3: 15})
    assert records("lemma3", 3, 4) == [
        (3, 4, None, "omega=4, g=3 (mod 2^4)", "omega=2 and g=15 (mod 2^4)")
    ]


def test_classification_records_paper_exception_and_both_counterexamples(monkeypatch):
    forced_chain(monkeypatch, {3: 5, 15: 9})
    assert records("lemma4_theorem5", (1, 15), 4) == [
        (3, 4, None, "half-order residue 5 (OTHER)", "half-order residue 9 (HALF_PLUS_ONE)"),
        (7, 4, None, "half-order residue 7 (HALF_MINUS_ONE)", "half-order residue 9 (HALF_PLUS_ONE)"),
        (15, 4, None, "half-order residue 9 (HALF_PLUS_ONE)", "half-order residue 15 (MINUS_ONE)"),
    ]


@pytest.mark.parametrize(
    "claim, force, observed, expected",
    [
        ("lemma1",
         lambda g, n, omega, residue: (6 if n == 5 and g in (3, 13) else omega, residue),
         "omega at exponent 5 = 6", "2 * omega at exponent 4 = 8"),
        ("lemma2", lambda g, n, omega, residue: (omega, 5 if g in (3, 13) else residue),
         "half-order residue 5 outside the candidate set", "residue in {15, 7, 9}"),
    ],
)
def test_a_run_reports_its_first_and_its_last_g(monkeypatch, claim, force, observed, expected):
    # g = 3 .. 13 at n = 4 is one run of a jobs=1 sweep
    forced_column(monkeypatch, force)
    assert records(claim, (3, 13), 4) == [
        (3, 4, None, observed, expected),
        (13, 4, None, observed, expected),
    ]


def test_orbit_vanishing_records_the_unpaired_residue(monkeypatch):
    # the table of <3> mod 2^4 is taken as unpaired, with forced counts
    monkeypatch.setattr(exp_sum, "_paired", lambda table: False)
    monkeypatch.setattr(exp_sum, "_offender", lambda g, w, n, k, table: (1, 2, 1))
    assert records("theorem6", 3, 4, w=1) == [
        (3, 4, 1, "count(1)=2 != count(9)=1", "equal multiplicities on every antipodal residue pair")
    ]


@pytest.mark.parametrize(
    "g, observed, expected",
    [
        # 3 = -1 (mod 4): the orbit {1, 3} still cancels, so only the guard failed
        (3, "exact zero (collapse guard failed)", "base not +-1 modulo the collapsed modulus"),
        # 5 = 1 (mod 4): the orbit is {1} and the sum does not vanish either
        (5, "count(1)=1 != count(3)=0", "equal multiplicities on every antipodal residue pair"),
    ],
)
def test_orbit_vanishing_records_a_failed_collapse_guard(monkeypatch, g, observed, expected):
    monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: core_arith.two_adic_valuation(w) + 1)
    assert records("theorem6", g, 2, w=1) == [(g, 2, 1, observed, expected)]


@pytest.mark.parametrize("claim", ["order_oracle", "lemma1", "lemma2", "lemma3", "lemma4_theorem5"])
def test_per_modulus_sweep_walks_one_column_per_g(monkeypatch, claim):
    real = order_engine._order_column
    calls: Counter = Counter()

    def counted(g, n_lo, n_hi):
        calls[g, n_lo, n_hi] += 1
        return real(g, n_lo, n_hi)

    monkeypatch.setattr(order_engine, "_order_column", counted)
    report = run_sweep(SweepSpec(claim, 1, 255, 3, 8, jobs=1))
    if claim == "lemma4_theorem5":
        assert report.tallies["paper_exception"] == 6
    # each odd g < 2^8 at most once, over its own n-range: max(3, bits of g) to 8
    expected: Counter = Counter()
    for g in range(1, 256, 2):
        ns = range(max(3, g.bit_length()), 9)
        if claim == "lemma1":
            # the doubling law reads one exponent above the run, for every g,
            # +-1 (mod 2^8) included
            ns = range(ns[0], 10)
        expected[g, ns[0], ns[-1]] = 1
    assert calls == expected


def test_theorem6_sweep_walks_one_column_per_g(monkeypatch):
    real = exp_sum._order_column
    calls: Counter = Counter()

    def counted(g, n_lo, n_hi):
        calls[g, n_lo, n_hi] += 1
        return real(g, n_lo, n_hi)

    monkeypatch.setattr(exp_sum, "_order_column", counted)
    run_sweep(SweepSpec("theorem6", -9, 9, 3, 6, -4, 4, jobs=1))
    # one chain per g whose run reaches a bound, from exponent 1, so that
    # the congruence can read every collapsed exponent n - d(w)
    ws = (-4, -3, -2, -1, 1, 2, 3, 4)
    expected: Counter = Counter()
    straddling, below = [], []
    for g in (-9, -7, -5, -3, 3, 5, 7, 9):
        bounds = [exp_sum.vanishing_bound(g, w) for w in ws]
        if min(bounds) <= 6:
            expected[g, 1, 6] += 1
        straddling += [g for bound in bounds if 3 < bound <= 6]
        below += [g for bound in bounds if bound > 6]
    assert calls == expected
    assert straddling and below
    monkeypatch.undo()
    # a run of one g counts and reports each weight at each n as it alone does
    ns = range(3, 7)
    for g in set(straddling + below):
        alone = [exp_sum._orbit_vanishing(range(g, g + 1), (w,), range(n, n + 1))
                 for w in ws for n in ns]
        assert all(held + unmet + len(details) == 1 for held, unmet, details in alone), g
        held, unmet, details = exp_sum._orbit_vanishing(range(g, g + 1), ws, ns)
        assert held == sum(run[0] for run in alone), g
        assert unmet == sum(run[1] for run in alone), g
        assert sorted(details) == sorted(d for run in alone for d in run[2]), g


def test_theorem6_guards_its_top_exponent_before_any_table(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the exponent guard runs before any orbit is counted")

    monkeypatch.setattr(exp_sum, "_orbit_table", unbuilt)
    monkeypatch.setattr(exp_sum, "residue_orbit", unbuilt)
    top = core_arith.MAX_EXPONENT + 1
    with pytest.raises(DomainError, match="MAX_EXPONENT"):
        run_sweep(SweepSpec("theorem6", 3, 3, 1, top, 1, 1))


@pytest.mark.parametrize("g, w, n", [(3, 1, 4), (3, 2, 6), (-5, 12, 9), (9, -1, 7)])
def test_antipodal_shift_is_decided_by_its_congruence(monkeypatch, g, w, n):
    assert check_antipodal_shift(g, w, n) is Verdict.HOLDS
    real = exp_sum._order_column
    # a wrong half-order residue at the collapsed exponent m
    monkeypatch.setattr(
        exp_sum,
        "_order_column",
        lambda g, n_lo, n_hi: [(omega, residue ^ 2) for omega, residue in real(g, n_lo, n_hi)],
    )
    assert check_antipodal_shift(g, w, n) is Verdict.COUNTEREXAMPLE


def subgroup(g, n):
    """<g> modulo 2^n, from pow alone: the order of g divides 2^n."""
    m = 1 << n
    return frozenset(pow(g, k, m) for k in range(1, m + 1))


def test_orbit_sweep_builds_at_most_one_orbit_per_tuple(monkeypatch):
    real_table = exp_sum._orbit_table
    tables: Counter = Counter()

    def counted(g, w, m, omega):
        tables[g, w, m] += 1
        table = real_table(g, w, m, omega)
        if m == 4 and table[3]:
            # one extra copy of 3 breaks the pairing of <3> mod 2^4
            table[3] += 1
        return table

    def unbuilt(g, w, n):
        raise AssertionError("the table decides below the cap; no multiset is built")

    monkeypatch.setattr(exp_sum, "_orbit_table", counted)
    monkeypatch.setattr(exp_sum, "residue_orbit", unbuilt)
    bases, ws = (-7, -5, -3, 3, 5, 7), [w for w in range(-8, 9) if w]
    report = run_sweep(SweepSpec("theorem6", -7, 7, 1, 8, -8, 8, jobs=1))
    # the one table of <3> mod 2^4 decides every met (h, w, n) with
    # n - d(w) = 4, for each h of <3> with its order there: 3 and -5 = 11
    group = [h for h in bases if subgroup(h, 4) == subgroup(3, 4)]
    assert group == [-5, 3] and all(exp_sum.vanishing_bound(h, 1) <= 4 for h in group)
    assert {(e.g, e.n, e.w) for e in report.exceptions} == {
        (h, 4 + core_arith.two_adic_valuation(w), w) for h in group for w in ws}
    assert report.tallies["counterexample"] == len(group) * len(ws)
    # one table per subgroup <h> mod 2^m of the h met at m (h = +-1 meets no
    # bound), each of the orbit of 1, against one per (h, m)
    assert tables and max(tables.values()) == 1 and {w for _, w, _ in tables} == {1}
    per_m = Counter(m for _, _, m in tables)
    met = {m: [h for h in bases if exp_sum.vanishing_bound(h, 1) <= m] for m in range(1, 9)}
    assert per_m == Counter({m: len({subgroup(h, m) for h in hs}) for m, hs in met.items() if hs})
    assert sum(per_m.values()) < sum(map(len, met.values()))

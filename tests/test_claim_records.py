"""Exception records of the sweep catalog, and one evaluation per tuple.

Most exception-grade branches never fire on real inputs, so each is forced
by replacing one computational route (an order, the squaring chain, the
orbit decider or the vanishing bound) and the report must carry the exact
observed/expected strings built from the values that route returned.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from pow2sums import SweepSpec, run_sweep
from pow2sums import exp_sum, half_order, order_engine


def records(claim, g, n, w=None):
    """(g, n, w, observed, expected) of every exception in a jobs=1 sweep."""
    g_lo, g_hi = g if isinstance(g, tuple) else (g, g)
    n_lo, n_hi = n if isinstance(n, tuple) else (n, n)
    w_lo, w_hi = (w, w) if w is not None else (None, None)
    report = run_sweep(SweepSpec(claim, g_lo, g_hi, n_lo, n_hi, w_lo, w_hi, jobs=1))
    return [(e.g, e.n, e.w, e.observed, e.expected) for e in report.exceptions]


def test_order_oracle_records_both_orders(monkeypatch):
    real = order_engine.order_naive
    monkeypatch.setattr(
        order_engine, "order_naive", lambda g, n, cap=0: replace(real(g, n), omega=3)
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


def test_orbit_vanishing_records_the_unpaired_residue(monkeypatch):
    monkeypatch.setattr(exp_sum, "_unpaired", lambda g, w, n: (1, 2, 1))
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
    monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: 0)
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
            # the doubling law reads one exponent above the run; a base that is
            # +-1 (mod 2^8), and so modulo every lower power, reads no column
            if g in (1, 255):
                continue
            ns = range(ns[0], 10)
        expected[g, ns[0], ns[-1]] = 1
    assert calls == expected


def test_orbit_sweep_builds_at_most_one_orbit_per_tuple(monkeypatch):
    real = exp_sum._unpaired
    calls: Counter = Counter()

    def counted(g, w, n):
        calls[g, w, n] += 1
        unpaired = real(g, w, n)
        if (g, w, n) == (3, 1, 4):
            # one extra copy of the first residue breaks its pairing
            assert unpaired is None
            return 3, 2, 1
        return unpaired

    def unbuilt(g, w, n):
        raise AssertionError("the table decides below the cap; no multiset is built")

    monkeypatch.setattr(exp_sum, "_unpaired", counted)
    monkeypatch.setattr(exp_sum, "residue_orbit", unbuilt)
    report = run_sweep(SweepSpec("theorem6", -7, 7, 1, 6, -4, 4, jobs=1))
    assert report.tallies["counterexample"] == 1
    assert report.exceptions[0].g == 3 and report.exceptions[0].n == 4
    assert calls and max(calls.values()) == 1

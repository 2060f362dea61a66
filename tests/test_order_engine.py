from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pow2sums import (
    DomainError,
    ScanBudgetExceeded,
    Verdict,
    check_order_doubling,
    check_order_scaling,
    mod_pow,
    order_fast,
    order_naive,
    order_table,
)
from pow2sums import order_engine
from pow2sums.order_engine import _order_column


def _one_exponent(g, n):
    """(omega, g^(omega/2) mod 2^n) by definition, for one exponent: square
    modulo 2^n until 1, the element before 1 being g^(omega/2)."""
    m = 1 << n
    s, half, omega = g % m, 1, 1
    while s != 1:
        half, s, omega = s, s * s % m, 2 * omega
    return omega, half


@pytest.mark.parametrize(
    "g, n, omega",
    [
        (3, 3, 2),
        (7, 4, 2),
        (3, 1, 1),
        (999, 1, 1),
        (3, 5, 8),
        (15, 4, 2),
        (1, 10, 1),
        (-3, 4, 4),
    ],
)
def test_order_examples(g, n, omega):
    assert order_naive(g, n).omega == omega
    assert order_fast(g, n).omega == omega


def test_order_records_carry_canonical_base_and_path():
    naive = order_naive(-3, 4)
    fast = order_fast(-3, 4)
    assert naive.g == fast.g == 13
    assert naive.path == "naive"
    assert fast.path == "fast"
    assert order_fast(19, 4).g == 3


@pytest.mark.parametrize(
    "g, n_max, omegas",
    [
        (3, 5, [1, 2, 2, 4, 8]),
        (7, 5, [1, 2, 2, 2, 4]),
        (1, 3, [1, 1, 1]),
    ],
)
def test_order_table_examples(g, n_max, omegas):
    assert [r.omega for r in order_table(g, n_max)] == omegas


def test_order_rejects_even_base_and_bad_exponent():
    with pytest.raises(DomainError):
        order_fast(4, 3)
    with pytest.raises(DomainError):
        order_naive(3, 0)


def test_naive_scan_cap(monkeypatch):
    monkeypatch.setattr(order_engine, "NAIVE_SCAN_CAP", 16)
    with pytest.raises(ScanBudgetExceeded, match="g=3 mod 2\\^8"):
        order_naive(3, 8)
    # the order of 3 modulo 2^8 is 64: a cap of 64 multiplications reaches it
    monkeypatch.setattr(order_engine, "NAIVE_SCAN_CAP", 64)
    assert order_naive(3, 8).omega == 64
    monkeypatch.setattr(order_engine, "NAIVE_SCAN_CAP", 63)
    with pytest.raises(ScanBudgetExceeded) as raised:
        order_naive(3, 8)
    assert str(raised.value) == "order scan for g=3 mod 2^8 exceeded 63 iterations"
    # up to 64 bits g is printed in full, above that only its width
    for g, name in [((1 << 63) + 3, f"g={(1 << 63) + 3}"), (-(1 << 63) + 3, f"g={-(1 << 63) + 3}"),
                    ((1 << 64) + 3, "a 65-bit g"), (-(1 << 65) + 3, "a 65-bit g")]:
        with pytest.raises(ScanBudgetExceeded) as raised:
            order_naive(g, 8)
        assert str(raised.value) == f"order scan for {name} mod 2^8 exceeded 63 iterations"


def test_naive_scan_budget_counts_the_words_of_each_product(monkeypatch):
    # a b-bit multiplier times an n-bit x gets NAIVE_SCAN_CAP * 64 * 64 //
    # (max(64, b) * max(64, n)) products: 3 gets the whole cap at n = 64, a
    # quarter of it at n = 256, and the 128-bit 2^127 + 3 half of that
    monkeypatch.setattr(order_engine, "NAIVE_SCAN_CAP", 4096)
    for g, n, cap in [(3, 64, 4096), (3, 256, 1024), ((1 << 127) + 3, 256, 512)]:
        with pytest.raises(ScanBudgetExceeded, match=f"exceeded {cap} iterations$"):
            order_naive(g, n)
    # 1 + 2^250 has order 64 mod 2^256, within its 261 products
    assert order_naive((1 << 250) + 1, 256).omega == 64
    monkeypatch.undo()
    # narrow bases at n <= 64 answer as before
    assert order_naive(-3, 16).omega == 1 << 14
    # at the real cap a 4095-bit multiplier at n = 4096 gets 1,024 products,
    # a 68-bit one at n = 4095 61,696 and -5 at n = 4096 65,536; without the
    # scaling these scans took about 90 s, 4.5 s and 2.5 s
    start = time.process_time()
    for g, n, cap in [((1 << 4094) + 3, 4096, 1024), (-175980113058154982311, 4095, 61696),
                      (-5, 4096, 65536)]:
        with pytest.raises(ScanBudgetExceeded, match=f"exceeded {cap} iterations$"):
            order_naive(g, n)
    assert time.process_time() - start < 2


def test_naive_scan_multiplies_by_the_signed_representative(monkeypatch):
    # -5 and 5 are one-word multipliers in (-2^(n-1), 2^(n-1)], so their
    # capped scans at n = 4096 cost about the same; multiplying by the
    # residue of -5, a 4096-bit number, costs tens of times more; a cap of
    # 2^21 is 2^15 products of a one-word multiplier at n = 4096
    monkeypatch.setattr(order_engine, "NAIVE_SCAN_CAP", 1 << 21)

    def scan_time(g):
        best = math.inf
        for _ in range(3):
            start = time.process_time()
            with pytest.raises(ScanBudgetExceeded):
                order_naive(g, 4096)
            best = min(best, time.process_time() - start)
        return best

    assert scan_time(-5) < 8 * scan_time(5)
    # the record still names the canonical residue
    assert order_naive(-5, 8) == order_naive(251, 8)
    assert order_naive(-5, 8).g == 251


def test_fast_equals_naive_exhaustively_to_n10():
    for n in range(1, 11):
        for g in range(1, 1 << n, 2):
            assert order_fast(g, n).omega == order_naive(g, n).omega, (g, n)


def test_order_minimality_and_group_bound_exhaustively_to_n10():
    for n in range(1, 11):
        for g in range(1, 1 << n, 2):
            omega = order_fast(g, n).omega
            assert mod_pow(g, omega, n) == 1
            if omega > 1:
                assert mod_pow(g, omega // 2, n) != 1
            assert omega & (omega - 1) == 0  # power of two
            if n >= 3:
                assert (1 << (n - 2)) % omega == 0
            elif n == 2:
                assert omega in (1, 2)
            else:
                assert omega == 1


@settings(max_examples=300)
@given(
    g=st.integers(min_value=-(10**12), max_value=10**12).map(lambda x: 2 * x + 1),
    n=st.integers(min_value=1, max_value=64),
)
def test_fast_order_properties_on_large_moduli(g, n):
    omega = order_fast(g, n).omega
    assert mod_pow(g, omega, n) == 1
    if omega > 1:
        assert mod_pow(g, omega // 2, n) != 1
    assert omega & (omega - 1) == 0


def test_order_table_equals_per_exponent_orders():
    # the one-chain table against a fresh chain per exponent, record by record
    rng = random.Random(0x5EED)
    bases = list(range(-301, 302, 2))
    bases += [rng.randrange((1 << 99) + 1, 1 << 100, 2) * rng.choice((1, -1)) for _ in range(200)]
    for g in bases:
        assert order_table(g, 70) == [order_fast(g, n) for n in range(1, 71)], g


@settings(max_examples=300)
@given(
    g=st.integers(min_value=-(1 << 80), max_value=1 << 80).map(lambda x: 2 * x + 1),
    lo=st.integers(min_value=1, max_value=70),
    span=st.integers(min_value=0, max_value=70),
)
@example(g=3, lo=9, span=0)  # lo == hi
@example(g=-3, lo=1, span=40)  # lo == 1, negative g
@example(g=(1 << 64) + 1, lo=1, span=63)  # g = 1 (mod 2^hi): omega 1, residue 1
@example(g=-(1 << 90) + 7, lo=2, span=60)  # g >= 2^hi in absolute value
def test_order_column_equals_one_chain_per_exponent(g, lo, span):
    hi = lo + span
    assert _order_column(g, lo, hi) == [_one_exponent(g, n) for n in range(lo, hi + 1)]


def test_order_column_equals_the_scan_exhaustively_to_n10():
    for g in range(1, 1 << 10, 2):
        for n, (omega, residue) in enumerate(_order_column(g, 1, 10), start=1):
            assert omega == order_naive(g, n).omega, (g, n)
            assert residue == pow(g, omega // 2, 1 << n), (g, n)
            assert _order_column(g, n, n) == [(omega, residue)], (g, n)


def test_order_column_t_walk_equals_the_chain(monkeypatch):
    # every column on the t-walk, at every top exponent to 10: a square that
    # keeps one bit too few errs only at a top of 3 (t_0^2 for g = 3 mod 4)
    monkeypatch.setattr(order_engine, "_SHIFTED_WALK_ABOVE", 0)
    test_order_column_equals_one_chain_per_exponent()
    test_order_column_equals_the_scan_exhaustively_to_n10()


@pytest.mark.parametrize("step", [-1, 0, 1])
def test_order_column_straddles_the_walk_switch(step):
    hi = order_engine._SHIFTED_WALK_ABOVE + step
    for g in [3, -5, 28363, -1859, (1 << (hi - 1)) - 1, (1 << 100) + 1, (1 << hi) + 1]:
        assert _order_column(g, hi, hi) == [_one_exponent(g, hi)], g
        assert _order_column(g, 1, hi) == [_one_exponent(g, n) for n in range(1, hi + 1)], g


@pytest.mark.parametrize("g", [3, -5, 28363, (1 << 300) + 1])
def test_order_column_t_walk_shifts_once_its_square_vanishes(monkeypatch, g):
    # the t-walk's square vanishes from 2k >= 1024 on: for g = 3 (mod 4)
    # at n = 513, for 2^300 + 1 near n = 811, the middle of the column
    shifted = _order_column(g, 1, 1024)
    monkeypatch.setattr(order_engine, "_SHIFTED_WALK_ABOVE", 1024)
    assert shifted == _order_column(g, 1, 1024)


@pytest.mark.parametrize("g", [3, -5, (1 << 4095) - 1, (1 << 4094) + 1])
def test_order_column_at_the_exponent_limit(g):
    assert _order_column(g, 4096, 4096) == [_one_exponent(g, 4096)]
    assert _order_column(g, 4094, 4096) == [_one_exponent(g, n) for n in (4094, 4095, 4096)]


def test_fast_order_agrees_with_sympy():
    n_order = pytest.importorskip("sympy.ntheory").n_order
    rng = random.Random(40)
    for n in range(1, 41):
        m = 1 << n
        for g in [3, 5, 7, -3, m - 1, (m >> 1) | 1] + [rng.randrange(1, m, 2) for _ in range(30)]:
            assert order_fast(g, n).omega == n_order(g % m, m), (g, n)


def test_order_table_is_monotone_with_ratio_one_or_two():
    for g in (3, 5, 7, 9, 257, -5, -31):
        omegas = [r.omega for r in order_table(g, 20)]
        for prev, cur in zip(omegas, omegas[1:]):
            assert cur in (prev, 2 * prev)


@pytest.mark.parametrize(
    "g, n, verdict",
    [
        (3, 4, Verdict.HOLDS),
        (7, 3, Verdict.HYPOTHESIS_NOT_MET),  # 7 is -1 mod 8
        (7, 4, Verdict.HOLDS),
        (1, 5, Verdict.HYPOTHESIS_NOT_MET),
        (31, 5, Verdict.HYPOTHESIS_NOT_MET),
    ],
)
def test_order_doubling_examples(g, n, verdict):
    assert check_order_doubling(g, n) is verdict


def test_order_doubling_never_fails_exhaustively():
    for n in range(1, 13):
        for g in range(1, 1 << n, 2):
            assert check_order_doubling(g, n) is not Verdict.COUNTEREXAMPLE


@pytest.mark.parametrize(
    "g, n, d, verdict",
    [
        (3, 8, 3, Verdict.HOLDS),
        (5, 10, 0, Verdict.HOLDS),
        (7, 6, 3, Verdict.HYPOTHESIS_NOT_MET),  # 7 is -1 mod 8
        (17, 8, 4, Verdict.HYPOTHESIS_NOT_MET),  # 17 is 1 mod 16
    ],
)
def test_order_scaling_examples(g, n, d, verdict):
    assert check_order_scaling(g, n, d) is verdict


def test_order_scaling_reports_orders_that_disagree(monkeypatch):
    # both orders are read from one column; a column whose top order is
    # doubled once too often breaks omega_n = 2^d * omega_(n-d)
    real = order_engine._order_column
    monkeypatch.setattr(
        order_engine, "_order_column",
        lambda g, n_lo, n_hi: real(g, n_lo, n_hi)[:-1] + [(2 * real(g, n_hi, n_hi)[0][0], 1)],
    )
    assert check_order_scaling(3, 8, 3) is Verdict.COUNTEREXAMPLE
    assert check_order_scaling(5, 10, 4) is Verdict.COUNTEREXAMPLE


def test_order_scaling_rejects_bad_shift():
    with pytest.raises(DomainError):
        check_order_scaling(3, 4, 4)
    with pytest.raises(DomainError):
        check_order_scaling(3, 4, -1)


def test_order_scaling_never_fails_on_small_grid():
    for n in range(3, 14):
        for d in range(0, n - 2):
            for g in range(3, min(1 << (n - d), 256), 2):
                assert check_order_scaling(g, n, d) is not Verdict.COUNTEREXAMPLE, (g, n, d)

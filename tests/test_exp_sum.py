from __future__ import annotations

import cmath
import functools
import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pow2sums import (
    LITERAL_EXPONENT_CAP,
    DomainError,
    FloatPrecisionError,
    InvolutionClass,
    MinVanishing,
    ResidueMultiset,
    SweepSpec,
    Verdict,
    check_antipodal_shift,
    check_orbit_vanishing,
    float_sum,
    half_order_residue,
    is_exact_zero,
    min_vanishing_n,
    odd_part,
    orbit_certificate,
    order_fast,
    residue_orbit,
    run_sweep,
    vanishing_bound,
)
from pow2sums import core_arith, exp_sum, order_engine, sweep


def reduced_coefficients(multiset: ResidueMultiset) -> list[int]:
    """Independent zero oracle: reduce sum c_r * x^r modulo x^(2^(n-1)) + 1.

    The minimal polynomial of a primitive 2^n-th root of unity is
    x^(2^(n-1)) + 1, so the sum vanishes exactly when every reduced
    coefficient is zero.
    """
    half = 1 << (multiset.n - 1)
    coeff = [0] * half
    for r, c in multiset.counts.items():
        if r < half:
            coeff[r] += c
        else:
            coeff[r - half] -= c
    return coeff


def oracle_is_zero(multiset: ResidueMultiset) -> bool:
    if multiset.n == 0:
        return multiset.total == 0
    return all(v == 0 for v in reduced_coefficients(multiset))


@pytest.mark.parametrize(
    "g, w, n, counts",
    [
        (3, 1, 4, {3: 1, 9: 1, 11: 1, 1: 1}),
        (3, 1, 3, {3: 1, 1: 1}),
        (5, 1, 4, {5: 1, 9: 1, 13: 1, 1: 1}),
        (3, 16, 3, {0: 2}),  # w = 0 mod 8, both terms collapse to residue 0
    ],
)
def test_residue_orbit_examples(g, w, n, counts):
    orbit = residue_orbit(g, w, n)
    assert orbit.counts == counts
    assert orbit.total == order_fast(g, n).omega


def test_residue_orbit_domain_errors():
    with pytest.raises(DomainError):
        residue_orbit(3, 0, 4)
    for g in (1, -1):
        with pytest.raises(DomainError):
            residue_orbit(g, 1, 4)
    with pytest.raises(DomainError):
        residue_orbit(4, 1, 4)


def test_multiset_validation():
    with pytest.raises(DomainError):
        ResidueMultiset(n=3, counts={8: 1})
    with pytest.raises(DomainError):
        ResidueMultiset(n=3, counts={1: 0})


def test_multiset_exponent_is_guarded(monkeypatch):
    # n = 0 and the limit itself are valid, one above it is refused
    top = core_arith.MAX_EXPONENT
    with pytest.raises(DomainError, match="MAX_EXPONENT"):
        ResidueMultiset(n=top + 1)
    with pytest.raises(DomainError):
        ResidueMultiset(n=-1)
    assert is_exact_zero(ResidueMultiset(n=0)).is_zero
    assert is_exact_zero(ResidueMultiset(n=top, counts={1: 1, 1 + (1 << (top - 1)): 1})).is_zero
    # the limit is read at call time
    monkeypatch.setattr(core_arith, "MAX_EXPONENT", 8)
    ResidueMultiset(n=8)
    with pytest.raises(DomainError):
        ResidueMultiset(n=9)


def test_is_exact_zero_examples():
    cert = is_exact_zero(ResidueMultiset(n=4, counts={3: 1, 9: 1, 11: 1, 1: 1}))
    assert cert.is_zero
    assert cert.pairing == ((1, 1), (3, 1))
    assert cert.violating_residue is None

    cert = is_exact_zero(ResidueMultiset(n=3, counts={3: 1, 1: 1}))
    assert not cert.is_zero
    assert cert.violating_residue == 3  # first offender in construction order
    assert cert.pairing is None

    assert is_exact_zero(ResidueMultiset(n=5, counts={})).is_zero
    assert is_exact_zero(ResidueMultiset(n=0, counts={})).is_zero
    assert not is_exact_zero(ResidueMultiset(n=0, counts={0: 4})).is_zero


def test_is_exact_zero_at_n1():
    assert is_exact_zero(ResidueMultiset(n=1, counts={0: 2, 1: 2})).is_zero
    assert not is_exact_zero(ResidueMultiset(n=1, counts={0: 2, 1: 1})).is_zero


@settings(max_examples=400)
@given(
    n=st.integers(min_value=1, max_value=10),
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=1023),
        st.integers(min_value=1, max_value=5),
        max_size=24,
    ),
)
def test_is_exact_zero_agrees_with_cyclotomic_reduction(n, entries):
    merged: dict[int, int] = {}
    for r, c in entries.items():
        key = r & ((1 << n) - 1)
        merged[key] = merged.get(key, 0) + c
    multiset = ResidueMultiset(n=n, counts=merged)
    assert is_exact_zero(multiset).is_zero == oracle_is_zero(multiset)


def pairwise_walk(multiset: ResidueMultiset) -> tuple:
    """Reference certificate: visit every residue in construction order and
    stop at the first whose antipode carries a different count."""
    half = 1 << (multiset.n - 1)
    counts = multiset.counts
    for r, c in counts.items():
        if c != counts.get(r ^ half, 0):
            return False, None, r
    return True, tuple(sorted((r, c) for r, c in counts.items() if r < half)), None


@settings(max_examples=300)
@given(
    n=st.integers(min_value=1, max_value=8),
    lower=st.dictionaries(
        st.integers(min_value=0, max_value=127), st.integers(min_value=1, max_value=4), max_size=12
    ),
    changes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.integers(min_value=-2, max_value=2)),
        max_size=2,
    ),
    rng=st.randoms(use_true_random=False),
)
def test_is_exact_zero_matches_the_pairwise_walk(n, lower, changes, rng):
    # antipodally symmetric counts with at most two entries changed, in a
    # shuffled construction order: sums that vanish and sums that nearly do
    half = 1 << (n - 1)
    counts: dict[int, int] = {}
    for r, c in lower.items():
        counts[r % half] = counts[r % half | half] = c
    for r, delta in changes:
        r %= 2 * half
        c = counts.pop(r, 0) + delta
        if c > 0:
            counts[r] = c
    items = list(counts.items())
    rng.shuffle(items)
    multiset = ResidueMultiset(n=n, counts=dict(items))
    cert = is_exact_zero(multiset)
    assert (cert.is_zero, cert.pairing, cert.violating_residue) == pairwise_walk(multiset)
    assert cert.is_zero == oracle_is_zero(multiset)


def test_zero_certificate_pairing_is_complete():
    orbit = residue_orbit(5, 3, 6)
    cert = is_exact_zero(orbit)
    assert cert.is_zero
    half = 1 << 5
    paired = sum(2 * c for _, c in cert.pairing)
    assert paired == orbit.total
    for r, c in cert.pairing:
        assert orbit.counts[r] == c == orbit.counts[r + half]


def test_float_sum_examples():
    z = float_sum(ResidueMultiset(n=4, counts={3: 1, 9: 1, 11: 1, 1: 1}))
    assert abs(z) < 1e-12
    z = float_sum(ResidueMultiset(n=2, counts={1: 1}))
    assert abs(z - 1j) < 1e-12
    z = float_sum(ResidueMultiset(n=3, counts={0: 4}))
    assert abs(z - 4) < 1e-12


def test_float_sum_magnitude_bounded_by_total():
    orbit = residue_orbit(3, 5, 7)
    assert abs(float_sum(orbit)) <= orbit.total + 1e-9


def test_float_sum_exponent_cap():
    with pytest.raises(FloatPrecisionError, match="is_exact_zero"):
        float_sum(ResidueMultiset(n=53, counts={1: 1}))
    # at the cap itself the evaluation still works
    z = float_sum(ResidueMultiset(n=52, counts={0: 1}))
    assert abs(z - 1) < 1e-12


@pytest.mark.parametrize(
    "g, w, expected",
    [
        (3, 1, 4),
        (3, 12, 6),
        (-3, 8, 6),
        (7, 1, 5),
        (-3, 1, 3),
    ],
)
def test_vanishing_bound_examples(g, w, expected):
    assert vanishing_bound(g, w) == expected


def test_vanishing_bound_domain_errors():
    with pytest.raises(DomainError):
        vanishing_bound(3, 0)
    with pytest.raises(DomainError):
        vanishing_bound(1, 5)


@pytest.mark.parametrize(
    "g, w, n, verdict",
    [
        (3, 1, 4, Verdict.HOLDS),
        (3, 1, 3, Verdict.HYPOTHESIS_NOT_MET),
        (5, 1, 4, Verdict.HOLDS),
        (-3, 8, 6, Verdict.HOLDS),
    ],
)
def test_orbit_vanishing_examples(g, w, n, verdict):
    assert check_orbit_vanishing(g, w, n) is verdict


@pytest.mark.parametrize("n", [5, 0, core_arith.MAX_EXPONENT + 1])
@pytest.mark.parametrize("w", [2, 0])
@pytest.mark.parametrize("g", [3, 4, 1, -1])
def test_orbit_vanishing_names_the_first_bad_argument(g, w, n):
    # the exponent is named first, then w = 0, then an even g, then g = +-1
    if n < 1:
        message = f"modulus exponent must be >= 1, got {n}"
    elif n > core_arith.MAX_EXPONENT:
        message = f"modulus exponent {n} exceeds MAX_EXPONENT"
    elif w == 0:
        message = "orbit weight w must be nonzero"
    elif g % 2 == 0:
        message = f"base must be odd, got {g}"
    elif g in (-1, 1):
        message = "threshold exponent is defined only for odd g outside {-1, 1}"
    else:
        assert check_orbit_vanishing(g, w, n) is Verdict.HOLDS
        return
    with pytest.raises(DomainError) as info:
        check_orbit_vanishing(g, w, n)
    assert str(info.value).startswith(message)


def test_orbit_vanishing_small_grid_never_fails():
    for g in [x for x in range(-15, 16, 2) if x not in (-1, 1)]:
        for w in [x for x in range(-8, 9) if x != 0]:
            bound = vanishing_bound(g, w)
            for n in range(bound, bound + 3):
                assert check_orbit_vanishing(g, w, n) is Verdict.HOLDS, (g, w, n)


def by_multiset(g: int, w: int, n: int):
    """The multiset route's answers for S(g, w, n): the orbit, its
    certificate, and (r, count(r), count(r ^ 2^(n-1))) at the offender r
    that a theorem6 run must name, None when the sum vanishes."""
    orbit = residue_orbit(g, w, n)
    cert = is_exact_zero(orbit)
    r = cert.violating_residue
    if r is None:
        return orbit, cert, None
    return orbit, cert, (r, orbit.counts.get(r, 0), orbit.counts.get(r ^ (1 << (n - 1)), 0))


def assert_certificate_matches(g: int, w: int, n: int, orbit, cert, floats: bool = True) -> None:
    """orbit_certificate gives the multiset route's terms and certificate,
    and (if floats) its float within 1e-9 per term of float_sum, which sums
    in another order; above the cap it gives no pairing and no float."""
    got = orbit_certificate(g, w, n)
    assert got.terms == orbit.total, (g, w, n)
    if n > exp_sum.LITERAL_EXPONENT_CAP:
        assert got.certificate == replace(cert, pairing=None), (g, w, n)
        assert got.value is None, (g, w, n)
        return
    assert got.certificate == cert, (g, w, n)
    if floats:
        assert abs(got.value - float_sum(orbit)) <= 1e-9 * orbit.total, (g, w, n)


def test_dense_decider_agrees_with_the_multiset_route(monkeypatch):
    # odd |g| < 64 plus bases that are +-1 modulo 2^9 or 2^10, so a short
    # orbit at small n grows at the top of the grid; even weights give
    # multiplicities above 1, and 2^12 and 5 * 2^20 are 0 modulo every 2^n.
    # The decider gives the verdict; a theorem6 run of each g reads the
    # offender's counts from the table of <g> mod 2^m
    bases = [g for g in range(-63, 64, 2) if g not in (-1, 1)]
    bases += [s * (k + e) for k in (1 << 9, 1 << 10) for e in (-1, 1) for s in (-1, 1)]
    weights = [w for w in range(-40, 41) if w != 0] + [1 << 12, -(3 << 9), 5 << 20]
    ns = range(1, 13)
    failures = 0
    for g in bases:
        column = order_engine._order_column(g, 1, 12)
        offenders = {}
        for w in weights:
            for n in ns:
                orbit, cert, expected = by_multiset(g, w, n)
                assert exp_sum._vanishes(g, w, n, column) is (expected is None), (g, w, n)
                offenders[w, n] = expected
                if expected is not None:
                    # the orbit is a scaled coset of <g>: a sum that does not
                    # vanish pairs none of its residues, so the first term,
                    # w * g mod 2^n, is the first offender
                    half = 1 << (n - 1)
                    assert all(c != orbit.counts.get(r ^ half, 0)
                               for r, c in orbit.counts.items()), (g, w, n)
                    assert expected[0] == w * g % (1 << n), (g, w, n)
                # a complex exp per term: floats are compared up to 2^10
                assert_certificate_matches(g, w, n, orbit, cert, floats=n <= 10)
                failures += expected is not None
        assert_lowered_run_reports(monkeypatch, g, weights, ns, offenders)
    assert failures > 0


def literal_table(g: int, w: int, n: int) -> list[int]:
    """w's own orbit w * g^k mod 2^n, k = 1..omega_g(2^n), counted into a
    list of 2^n counters: the reference for any weight.  _orbit_table
    counts an odd coset into bytes, and an even w repeats each residue."""
    table = [0] * (1 << n)
    cur = w
    for _ in range(order_fast(g, n).omega):
        cur = cur * g % (1 << n)
        table[cur] += 1
    return table


def test_float_value_is_the_bits_of_the_complex_exponential_sum():
    # one c * exp(2 pi i r / 2^n) per occupied residue, in ascending order:
    # the products and the order that orbit_certificate's rect terms keep
    for g in range(-31, 32, 2):
        if g in (-1, 1):
            continue
        for w in [w for w in range(-16, 17) if w != 0]:
            for n in range(1, 13):
                m = 1 << n
                table = literal_table(g, w, n)
                old = sum(c * cmath.exp(2j * math.pi * r / m) for r, c in enumerate(table) if c)
                assert repr(orbit_certificate(g, w, n).value) == repr(old), (g, w, n)


@pytest.mark.parametrize(
    "g, w, n",
    [(3, 1, 5), (-5, 2, 9), (7, -6, 12), (3, 12, 16), (-13, 1, 16), (3, 1, 18), (5, -10, 18),
     (3, 6, 18), (3, 1 << 7, 8), (-5, 1 << 8, 8), (7, 1 << 11, 8), (-13, -3 << 6, 8),
     (-3, 5 << 10, 14), (9, -(1 << 14), 14)],
)
def test_float_value_is_the_literal_angle_sum(monkeypatch, g, w, n):
    # the angles 2 * math.pi * r / m written as one expression per residue,
    # over every counter of w's own table at n; orbit_certificate builds one
    # table, of the coset w0 <g> mod 2^(n - d(w)), and none when 2^n | w,
    # where every term sits on 0
    m = 1 << n
    table = literal_table(g, w, n)
    residues = [r for r, c in enumerate(table) if c]
    counts = [c for c in table if c]
    literal = sum(map(cmath.rect, counts, (2 * math.pi * r / m for r in residues)))
    real, built = exp_sum._orbit_table, []
    monkeypatch.setattr(exp_sum, "_orbit_table", lambda *args: built.append(args[2]) or real(*args))
    assert orbit_certificate(g, w, n).value == literal
    d = odd_part(w).d
    assert built == ([n - d] if d < n else []), (g, w, n)


def by_own_table(g: int, w: int, n: int):
    """S(g, w, n), n > d(w), decided from its own table alone, half to half,
    with the counts read at its first term w * g; _paired must give the same
    answer on the table of the coset w0 <g> mod 2^m, m = n - d(w)."""
    table = literal_table(g, w, n)
    half, r = 1 << (n - 1), w * g % (1 << n)
    paired = table[:half] == table[half:]
    d, w0 = odd_part(w)
    coset = exp_sum._orbit_table(g, w0, n - d, order_fast(g, n - d).omega)
    assert exp_sum._paired(coset) == paired, (g, w, n)
    return None if paired else (r, table[r], table[r ^ half])


def theorem6_observed(g: int, w: int, n: int, unpaired) -> str | None:
    """What a theorem6 run reports for a met (g, w, n) whose offender is
    unpaired, None when the sum vanishes: None when the tuple holds, else
    the counterexample's observed string.  The collapse guard is
    g != +-1 modulo 2^(n - d(w))."""
    if unpaired is not None:
        r, count, antipode = unpaired
        return f"count({r})={count} != count({r ^ (1 << (n - 1))})={antipode}"
    low = (1 << (n - odd_part(w).d)) - 1
    return None if g & low not in (1, low) else "exact zero (collapse guard failed)"


def assert_lowered_run_reports(monkeypatch, g: int, weights: list, ns: range, offenders) -> None:
    """With every bound lowered to d(w) + 1, each (w, n) with n > d(w) is
    met, and a theorem6 run of g alone reports each as theorem6_observed
    does from offenders[w, n], the reference's (r, count(r),
    count(r ^ 2^(n-1))) or None, and nothing else; _run_chunk holds it to
    count each tuple once."""
    monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: odd_part(w).d + 1)
    _, _, details = sweep._run_chunk(("theorem6", range(g, g + 1), weights, ns))
    reported = {(w, n): observed for _, n, w, (_, (observed, _)) in details}
    want = {(w, n): theorem6_observed(g, w, n, offenders[w, n])
            for w in weights for n in ns if n > odd_part(w).d}
    assert reported == {key: o for key, o in want.items() if o is not None}, g


def test_subgroup_run_agrees_with_each_tuples_own_table(monkeypatch):
    # with every bound at d(w) + 1 each (g, w, n) with n > d(w) is met,
    # below theorem6's bound too, where sums vanish and fail to; 3 * 2^9
    # gives m <= 3.  Each run's first g leads: in the second, 35 = 3 (mod 32)
    # leads a subgroup that pairs, and 33 = 1 (mod 32) lies in it with
    # another order, so it must decide alone
    monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: odd_part(w).d + 1)
    weights, ns = [w for w in range(-16, 17) if w] + [3 << 9], range(1, 13)
    for gs in (range(-31, 32, 2), range(35, 2, -2)):
        held, unmet, details = exp_sum._orbit_vanishing(gs, weights, ns)
        reported = {(g, n, w): detail[0] for g, n, w, (_, detail) in details}
        assert len(reported) == len(details)
        kinds, holds, not_met = set(), 0, 0
        for g in gs:
            for w in weights:
                for n in ns:
                    if g in (-1, 1) or n <= odd_part(w).d:
                        not_met += 1
                        continue
                    want = theorem6_observed(g, w, n, by_own_table(g, w, n))
                    assert reported.pop((g, n, w), None) == want, (g, w, n)
                    holds += want is None
                    kinds.add(want and want.split("(")[0])
        assert reported == {} and (held, unmet) == (holds, not_met), gs
        assert kinds == {None, "count", "exact zero "}, gs


def test_a_group_decides_each_weight_for_the_h_whose_met_holds_it(monkeypatch):
    # 3 and -29 are both 3 mod 8, so they generate one subgroup modulo each
    # 2^m, but their bounds at w = 1 are 4 and 6: at m = 4, 5 only 3 is met,
    # and from m = 6 on one table of the group decides both, whichever leads
    real, built = exp_sum._orbit_table, []
    monkeypatch.setattr(exp_sum, "_orbit_table", lambda *args: built.append(args[:3]) or real(*args))
    ws, ns = [1, 4, -12], range(6, 13)
    assert (vanishing_bound(3, 1), vanishing_bound(-29, 1)) == (4, 6)
    for gs in (range(-29, 4, 32), range(3, -30, -32)):
        built.clear()
        held, unmet, details = exp_sum._orbit_vanishing(gs, ws, ns)
        # one table per m = n - d(w), of <g> for the first g of gs met there
        assert built == [(3 if m < 6 else gs[0], 1, m) for m in range(4, 13)], gs
        met = [(g, w, n) for g in gs for w in ws for n in ns if vanishing_bound(g, w) <= n]
        assert (held, unmet, details) == (len(met), 2 * len(ws) * len(ns) - len(met), []), gs
        assert all(by_own_table(g, w, n) is None for g, w, n in met)


@pytest.mark.parametrize("lowered", [False, True], ids=["bound", "bound-at-d-plus-1"])
@pytest.mark.parametrize("cap", [LITERAL_EXPONENT_CAP, 5], ids=["tables", "congruence-above-5"])
def test_a_run_of_valuation_classes_is_the_sum_of_its_one_weight_runs(monkeypatch, cap, lowered):
    # classes of several weights each, first met out of valuation order:
    # d = 9, 0, 1, 2, 3 and 5, with 2^k and -3 * 2^k at d = 5 and 9; with
    # every bound at d(w) + 1 both routes report counterexamples and failed
    # collapse guards
    weights = [1 << 9, 1, -1, 3, 2, -6, 10, 4, -12, 8, 1 << 5, -(3 << 5), -(3 << 9)]
    gs, ns = range(-15, 16, 2), range(1, 13)
    monkeypatch.setattr(exp_sum, "LITERAL_EXPONENT_CAP", cap)
    if lowered:
        monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: odd_part(w).d + 1)
    held, unmet, details = exp_sum._orbit_vanishing(gs, weights, ns)
    alone = [exp_sum._orbit_vanishing(gs, (w,), ns) for w in weights]
    assert held == sum(run[0] for run in alone)
    assert unmet == sum(run[1] for run in alone)
    assert sorted(details) == sorted(d for run in alone for d in run[2])
    assert held + unmet + len(details) == len(gs) * len(weights) * len(ns)
    if lowered:
        kinds = {(n > cap, observed.split("(")[0]) for _, n, _, (_, (observed, _)) in details}
        sides = {False, True} if cap == 5 else {False}
        assert kinds == {(side, kind) for side in sides for kind in ("count", "exact zero ")}


def test_a_run_builds_the_tables_of_its_valuation_classes_alone(monkeypatch):
    # w = 1..64 holds the classes d = 0..5 of {1, 2, 4, ..., 32} and d = 6;
    # 64 is met at m = n - 6, where d = 0 is met too, so no table is added
    real, built = exp_sum._orbit_table, []
    monkeypatch.setattr(exp_sum, "_orbit_table", lambda *args: built.append(args) or real(*args))
    gs, ns = range(-31, 32, 2), range(1, 15)
    tables = []
    for ws in (range(1, 65), [1, 2, 4, 8, 16, 32]):
        built.clear()
        exp_sum._orbit_vanishing(gs, ws, ns)
        tables.append(list(built))
    assert tables[0] and tables[0] == tables[1]


def test_paired_compares_the_halves_of_an_odd_coset():
    # every table that _paired reads is an odd coset w0 <g> mod 2^m; the
    # 2-counter table at m = 1 never pairs, the 4-counter table at m = 2
    # pairs for g = 3 (mod 4)
    for g in (3, -29, 513, -1025):
        for m in range(1, 13):
            half, omega = 1 << (m - 1), order_fast(g, m).omega
            for w0 in (1, -3, 5):
                table = exp_sum._orbit_table(g, w0, m, omega)
                paired = table[:half] == table[half:]
                assert exp_sum._paired(table) == paired, (g, w0, m)
                if m <= 2:
                    assert paired is (m == 2 and g % 4 == 3), (g, w0, m)


def test_a_table_at_the_cap_holds_one_byte_per_counter():
    # <-3> mod 2^22 has 2^20 terms: its table is 4 MiB of bytes, and _paired
    # compares two 1 MiB slices of its odd residues.  Counters in a list
    # would take 32 MiB, and their slices 16 MiB more
    column = order_engine._order_column(-3, 1, LITERAL_EXPONENT_CAP)
    tracemalloc.start()
    try:
        assert exp_sum._vanishes(-3, 1, LITERAL_EXPONENT_CAP, column)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * (1 << 20)


def unbuilt(*args):
    raise AssertionError("the multiset route has no production caller")


def test_dense_decider_switches_route_above_the_cap(monkeypatch):
    cap = LITERAL_EXPONENT_CAP
    # short orbits on both sides of the cap (orders 4 and 2 modulo 2^n),
    # with weights for which some sums vanish and others do not
    cases = [(g, w, n) for n in (cap, cap + 1) for g in (1 + (1 << (n - 2)), -1 + (1 << (n - 1)))
             for w in (1, -3, 1 << (n - 2), 3 << (n - 1))]
    reference = {case: by_multiset(*case) for case in cases}
    expected = {case: ref[2] for case, ref in reference.items()}
    assert None in expected.values() and len(set(expected.values())) > 2
    tables = []
    real = exp_sum._orbit_table
    monkeypatch.setattr(
        exp_sum, "_orbit_table", lambda g, w, n, omega: tables.append(n) or real(g, w, n, omega)
    )
    monkeypatch.setattr(exp_sum, "residue_orbit", unbuilt)
    monkeypatch.setattr(exp_sum, "is_exact_zero", unbuilt)
    for g, w, n in cases:
        column = order_engine._order_column(g, 1, n)
        assert exp_sum._vanishes(g, w, n, column) is (expected[g, w, n] is None), (g, w, n)
        assert_certificate_matches(g, w, n, *reference[g, w, n][:2])
    # the table of the coset at m = n - d(w) decides at the cap, in the
    # decider and in the certificate; the congruence only above it
    assert tables == [n - odd_part(w).d for g, w, n in cases if n == cap for _ in range(2)]
    # a theorem6 run of each (g, n) reads the counts on the same route
    for g, n in dict.fromkeys((g, n) for g, _, n in cases):
        weights = [w for h, w, k in cases if (h, k) == (g, n)]
        offenders = {(w, n): expected[g, w, n] for w in weights}
        assert_lowered_run_reports(monkeypatch, g, weights, range(n, n + 1), offenders)


def test_structural_decider_agrees_with_the_multiset_route(monkeypatch):
    # with the cap at 0 every n takes the congruence.  Odd |g| < 64 hold the
    # family g = 2^(m-1) - 1 (mod 2^m) for m <= 6; 2^12 and 5 * 2^20 give
    # m <= 0, and -3 * 2^9 gives m = 1 at n = 10
    bases = [g for g in range(-63, 64, 2) if g not in (-1, 1)]
    weights = [w for w in range(-40, 41) if w != 0] + [1 << 12, -(3 << 9), 5 << 20]
    ns = range(1, 11)
    reference = {(g, n): [by_multiset(g, w, n) for w in weights] for g in bases for n in ns}
    monkeypatch.setattr(exp_sum, "LITERAL_EXPONENT_CAP", 0)
    monkeypatch.setattr(exp_sum, "_orbit_table", unbuilt)
    seen = set()
    for g in bases:
        column = order_engine._order_column(g, 1, ns[-1])
        offenders = {(w, n): ref[2] for n in ns for w, ref in zip(weights, reference[g, n])}
        # the counts above the cap, with no table: the run names omega_n / omega_m and 0
        assert_lowered_run_reports(monkeypatch, g, weights, ns, offenders)
        for n in ns:
            expected = [unpaired for _, _, unpaired in reference[g, n]]
            got = [exp_sum._vanishes(g, w, n, column) for w in weights]
            assert got == [unpaired is None for unpaired in expected], (g, n)
            if None in expected and expected.count(None) < len(expected):
                seen.add("both verdicts at one (g, n)")
            for w, (orbit, cert, unpaired) in zip(weights, reference[g, n]):
                assert_certificate_matches(g, w, n, orbit, cert)
                m = n - odd_part(w).d
                if m <= 1:
                    seen.add("m <= 0" if m <= 0 else "m = 1")
                elif m >= 3 and g % (1 << m) == (1 << (m - 1)) - 1:
                    seen.add("2^(m-1) - 1")
                    # omega_m = 2: each residue of the orbit holds half of it
                    assert unpaired is not None and 2 * unpaired[1] == orbit.total, (g, w, n)
    assert seen == {"both verdicts at one (g, n)", "m <= 0", "m = 1", "2^(m-1) - 1"}


def by_exact_value(g: int, w: int, n: int, omega: int):
    """S(g, w, n) from its exact value, with m = n - d(w), zeta = e^(2 pi i / 2^n)
    and omega the order of g mod 2^n: None when S = 0, else the count on its
    first term, the coefficient of zeta^w.
      g = 1 (mod 2^m), and every g for m <= 0:  S = omega zeta^w
      g = -1 (mod 2^m):                         S = (omega / 2)(zeta^w + zeta^-w)
      g = 2^(m-1) - 1 (mod 2^m):                S = (omega / 2)(zeta^w - zeta^-w)
      any other g:                              S = 0
    zeta^w = +-i exactly when m = 2, and zeta^w is real only for m <= 1."""
    m = n - odd_part(w).d
    low = (1 << max(m, 0)) - 1
    if m <= 0 or g & low == 1:
        return omega
    if g & low == low:
        return None if m == 2 else omega // 2
    if g & low == (1 << (m - 1)) - 1:
        return omega // 2
    return None


@pytest.mark.parametrize("n", [64, 4096])
def test_structural_decider_matches_the_exact_value(monkeypatch, n):
    # bases in each family of the formula at collapsed exponents from 2 to n,
    # and weights with m from n down to -1
    ks = sorted({2, 3, 5, n // 2, n - 3, n - 1, n})
    bases = [3, -3, 5, 7, -9, 15]
    bases += [b for k in ks for b in (1 + (3 << k), -1 + (1 << k), (1 << (k - 1)) - 1,
                                      (1 << (k - 1)) + 1) if b != 1]
    ds = sorted({0, 1, 2, n // 2, n - 5, n - 3, n - 2, n - 1, n, n + 1})
    weights = [s * (1 << d) for d in ds for s in (1, -1, 3, -5)]
    branches = set()
    for g in bases:
        omega = order_fast(g, n).omega
        expected = [by_exact_value(g, w, n, omega) for w in weights]
        column = order_engine._order_column(g, 1, n)
        for w, count in zip(weights, expected):
            assert exp_sum._vanishes(g, w, n, column) is (count is None), (g, w)
            branches.add((count is None, count == omega))
        # the counts of omega and of omega / 2 on the first term, from a theorem6 run
        offenders = {(w, n): None if count is None else (w * g % (1 << n), count, 0)
                     for w, count in zip(weights, expected)}
        assert_lowered_run_reports(monkeypatch, g, weights, range(n, n + 1), offenders)
        cert = orbit_certificate(g, weights[0], n).certificate
        assert cert.is_zero is (expected[0] is None) and cert.pairing is None
    # vanishing sums, and counts of omega and of omega / 2
    assert branches == {(True, False), (False, True), (False, False)}


def test_one_decider_for_a_run_of_weights_on_both_sides_of_the_cap(monkeypatch):
    # with the cap at 10 these short orbits stay within residue_orbit's bound
    # at n = 11 and 12, so the multiset route is the reference above the cap;
    # some of their sums vanish there and some do not
    monkeypatch.setattr(exp_sum, "LITERAL_EXPONENT_CAP", 10)
    weights = [1, -3, 6, 12, -40, 1 << 9, 3 << 10, 5 << 11]
    bases = (15, 17, -15, 33)
    expected = {(g, n): [by_multiset(g, w, n)[2] for w in weights]
                for g in bases for n in range(8, 13)}
    # each base's theorem6 run crosses the cap at n = 10; with the bound
    # lowered to d(w) + 1, a met sum that vanishes holds (or fails only its
    # collapse guard) and one that does not is named by its first term.
    # 3 * 2^10 is met above the cap at m = 1, and the run's count check
    # holds it to take each tuple once
    monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: odd_part(w).d + 1)
    for g in bases:
        for n in (11, 12):
            assert None in expected[g, n][1:] and any(expected[g, n][1:]), (g, n)
        run = ("theorem6", range(g, g + 1), weights, range(8, 13))
        held, unmet, details = sweep._run_chunk(run)
        reported = {(n, w): outcome for _, n, w, outcome in details}
        assert len(reported) == len(details), g
        vanished = below = 0
        for i, w in enumerate(weights):
            for n in range(8, 13):
                unpaired = expected[g, n][i]
                if n <= odd_part(w).d:
                    assert (n, w) not in reported, (g, w, n)
                    below += 1
                elif unpaired is None:
                    if (n, w) in reported:
                        assert reported[n, w][1][0].startswith("exact zero"), (g, w, n)
                    else:
                        vanished += 1
                else:
                    r, count, antipode = unpaired
                    verdict, detail = reported[n, w]
                    assert verdict is Verdict.COUNTEREXAMPLE, (g, w, n)
                    other = r ^ (1 << (n - 1))
                    assert detail[0] == f"count({r})={count} != count({other})={antipode}", (g, w, n)
        assert (held, unmet) == (vanished, below), g


def test_a_run_above_the_cap_walks_each_column_from_its_least_met_m(monkeypatch):
    # with every bound at d(w) + 1, the classes d = 0, 1, 3 and 7 are met at
    # m = n - d from 23 on at n = 30..40, so each column starts at 23, set
    # by the largest d.  1 + 2^25, 2^24 - 1 and 2^27 - 1 are +-1 or
    # 2^(m-1) - 1 modulo 2^m at some of those m, where the sum does not
    # vanish and the run reports counts omega_n / omega_m up to 2^7.  Each
    # run is held to the sum's exact value, and so is the same run from
    # n = 1 with the cap at 0, whose columns start at exponent 1
    real, walks = exp_sum._order_column, []
    monkeypatch.setattr(exp_sum, "_order_column",
                        lambda g, lo, hi: walks.append(lo) or real(g, lo, hi))
    weights, ns = [1, -3, 2, 8, -24, 1 << 7, 5 << 7], range(30, 41)
    counts = set()
    for g in (3, -5, 1 + (1 << 25), (1 << 24) - 1, (1 << 27) - 1):
        walks.clear()
        omegas = {n: order_fast(g, n).omega for n in range(1, ns.stop)}
        exact = {(w, n): by_exact_value(g, w, n, omega) for w in weights
                 for n, omega in omegas.items()}
        offenders = {(w, n): None if count is None else (w * g % (1 << n), count, 0)
                     for (w, n), count in exact.items()}
        assert_lowered_run_reports(monkeypatch, g, weights, ns, offenders)
        with monkeypatch.context() as lowered:
            lowered.setattr(exp_sum, "LITERAL_EXPONENT_CAP", 0)
            assert_lowered_run_reports(lowered, g, weights, range(1, ns.stop), offenders)
        assert walks == [ns.start - 7, 1], g
        counts |= {exact[w, n] for w in weights for n in ns}
    assert None in counts and len(counts) > 3, counts


def test_literal_orbit_is_capped(monkeypatch):
    with pytest.raises(DomainError, match="LITERAL_EXPONENT_CAP"):
        residue_orbit(3, 1, LITERAL_EXPONENT_CAP + 1)
    # the decider builds no literal orbit above the cap: the congruence answers
    assert check_orbit_vanishing(3, 1, 64) is Verdict.HOLDS
    assert check_orbit_vanishing(3, 1 << 60, 64) is Verdict.HOLDS
    assert check_orbit_vanishing(3, 1 << 61, 64) is Verdict.HYPOTHESIS_NOT_MET
    # the longest orbit modulo 2^cap is built, one twice as long is refused
    monkeypatch.setattr(exp_sum, "LITERAL_EXPONENT_CAP", 10)
    assert residue_orbit(3, 1, 10).total == 1 << 8
    with pytest.raises(DomainError, match="LITERAL_EXPONENT_CAP = 10"):
        residue_orbit(3, 1, 11)


def test_min_vanishing_n_examples():
    # vanishing is not monotone in n: (3, 1) vanishes at n=2, fails at n=3,
    # then vanishes from the bound n=4 on
    assert min_vanishing_n(3, 1, 10) == MinVanishing(n=2, slack=2)
    assert not is_exact_zero(residue_orbit(3, 1, 3)).is_zero
    assert is_exact_zero(residue_orbit(3, 1, 4)).is_zero

    found = min_vanishing_n(7, 1, 10)
    assert found is not None
    assert found.n <= vanishing_bound(7, 1) == 5

    assert min_vanishing_n(3, 16, 3) is None


def test_min_vanishing_n_decides_from_the_table_below_the_cap(monkeypatch):
    def first_zero_by_multiset(g, w, n_max):
        for n in range(1, n_max + 1):
            if is_exact_zero(residue_orbit(g, w, n)).is_zero:
                return MinVanishing(n=n, slack=vanishing_bound(g, w) - n)
        return None

    # g = 2^52 + 1 is 1 modulo 2^n up to n = 52, so its sum first vanishes
    # at n = 53, far above the cap, on a two-term orbit
    short = (1 << 52) + 1
    cases = [(g, w, 12) for g in range(-31, 32, 2) if g not in (-1, 1)
             for w in (-8, -3, -1, 1, 2, 5, 6, 8, 1 << 12)]
    cases.append((short, 1, 60))
    expected = {case: first_zero_by_multiset(*case) for case in cases}
    assert expected[(short, 1, 60)] == MinVanishing(n=53, slack=1)
    assert None in expected.values()
    tables = []
    real = exp_sum._orbit_table
    monkeypatch.setattr(
        exp_sum, "_orbit_table", lambda g, w, n, omega: tables.append(n) or real(g, w, n, omega)
    )
    monkeypatch.setattr(exp_sum, "residue_orbit", unbuilt)
    for case in cases:
        assert min_vanishing_n(*case) == expected[case], case
    # the short orbit is decided by the table up to the cap, then by the congruence
    assert max(tables) == LITERAL_EXPONENT_CAP


def test_min_vanishing_n_builds_no_orbit_below_two_above_the_valuation(monkeypatch):
    # for n <= d(w) + 1 every term sits on residue 0 or on 2^(n-1), so no
    # sum there vanishes; the test above checks the answers from n = 1 on
    calls = []
    real = exp_sum._orbit_table
    monkeypatch.setattr(
        exp_sum, "_orbit_table", lambda g, w, n, omega: calls.append((w, n)) or real(g, w, n, omega)
    )
    for g in (-7, -3, 3, 5, 7, 9, 15):
        for w in (1, -2, 12, 40, -(3 << 9)):
            min_vanishing_n(g, w, 12)
    assert calls and all(n >= odd_part(w).d + 2 for w, n in calls)
    calls.clear()
    # 2^40: the sum is nonzero up to n = 41, and nothing is built for it
    assert min_vanishing_n(3, 1 << 40, 22) is None
    assert calls == []


def test_min_vanishing_n_walks_its_column_only_to_the_bound(monkeypatch):
    real = exp_sum._order_column
    walks = []
    monkeypatch.setattr(
        exp_sum, "_order_column", lambda g, lo, hi: walks.append((g, lo, hi)) or real(g, lo, hi)
    )
    # the first zero is at n = 2, and theorem6 puts one at the bound n = 4
    assert min_vanishing_n(3, 1, 4096) == MinVanishing(n=2, slack=2)
    assert walks == [(3, 1, 4)]
    walks.clear()
    # a bound below the first zero (5 vanishes first at n = 3) takes a
    # second walk on to n_max, with the answer of the probe from d(w) + 2
    monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: 2)
    assert not is_exact_zero(residue_orbit(5, 1, 2)).is_zero
    assert is_exact_zero(residue_orbit(5, 1, 3)).is_zero
    assert min_vanishing_n(5, 1, 10) == MinVanishing(n=3, slack=-1)
    assert walks == [(5, 1, 2), (5, 1, 10)]


def test_min_vanishing_n_slack_accounting():
    found = min_vanishing_n(9, 1, 10)
    assert found == MinVanishing(n=4, slack=1)  # bound(9, 1) = 5, first zero at 4


# odd |g| <= 15 without +-1, 0 < |w| <= 16 and n <= 10: every collapsed
# exponent m = n - d(w) from -3 to 10, with sums that vanish and, up to
# m = 5, sums that do not
IDENTITIES = ([g for g in range(-15, 16, 2) if g not in (-1, 1)],
              [w for w in range(-16, 17) if w], range(1, 11))


@functools.lru_cache(maxsize=None)
def by_literal_orbit(g: int, w: int, n: int):
    """The oracle of S(g, w, n), its own literal multiset paired by
    is_exact_zero: None when it vanishes, else (r, count(r),
    count(r ^ 2^(n-1))) at its first term r = w * g mod 2^n."""
    orbit = residue_orbit(g, w, n)
    if is_exact_zero(orbit).is_zero:
        return None
    r = w * g % (1 << n)
    return r, orbit.counts.get(r, 0), orbit.counts.get(r ^ (1 << (n - 1)), 0)


def test_each_sum_is_decided_by_its_subgroup_modulo_2_to_the_m():
    # scaling and unit multiplication: S(g, w, n) is decided from <g> mod
    # 2^m; each tuple against its own multiset.  Its counts, read there at
    # g and at g ^ 2^(m-1), are the sweep's, checked on this grid below
    bases, weights, ns = IDENTITIES
    ms = set()
    for g in bases:
        column = order_engine._order_column(g, 1, ns[-1])
        for n in ns:
            for w in weights:
                want = by_literal_orbit(g, w, n)
                assert exp_sum._vanishes(g, w, n, column) is (want is None), (g, w, n)
                ms.add((n - odd_part(w).d, want is None))
    assert {m for m, _ in ms} == set(range(-3, 11))
    # above m = 5 no base here is +-1 or 2^(m-1) - 1 modulo 2^m, and every sum vanishes
    assert {(m, True) for m in range(2, 11)} <= ms and {(m, False) for m in range(-3, 6)} <= ms


@pytest.mark.parametrize("cap", [LITERAL_EXPONENT_CAP, 5], ids=["tables", "congruence-above-5"])
def test_theorem6_sweep_reports_each_tuple_as_its_literal_orbit(monkeypatch, cap):
    # with every bound at d(w) + 1 each (g, w, n) with m = n - d(w) >= 1 is
    # met: sums at m = 1, sums that vanish but fail the collapse guard, and
    # sums that do not vanish are reported, each with its own multiset's counts
    bases, weights, ns = IDENTITIES
    # the oracle first: residue_orbit refuses orbits longer than the cap allows
    expected = {}
    for g in bases:
        for w in weights:
            for n in ns:
                if n > odd_part(w).d:
                    expected[g, n, w] = theorem6_observed(g, w, n, by_literal_orbit(g, w, n))
    monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: odd_part(w).d + 1)
    monkeypatch.setattr(exp_sum, "LITERAL_EXPONENT_CAP", cap)
    report = run_sweep(SweepSpec("theorem6", bases[0], bases[-1], ns.start, ns[-1],
                                 weights[0], weights[-1]))
    reported = {(e.g, e.n, e.w): e.observed for e in report.exceptions}
    assert reported == {key: want for key, want in expected.items() if want is not None}
    assert report.tallies["holds"] == list(expected.values()).count(None)
    assert report.cases_checked == len(range(bases[0], bases[-1] + 1, 2)) * len(weights) * len(ns)
    kinds = {(n == odd_part(w).d + 1, want.split("(")[0]) for (g, n, w), want in reported.items()}
    assert kinds == {(True, "count"), (False, "count"), (False, "exact zero ")}


def test_the_run_and_the_certificate_decide_alike_from_their_tables(monkeypatch):
    # below the cap the run reads the byte table of <g> mod 2^m and the
    # certificate that of the coset w0 <g> mod 2^m; with every bound at
    # d(w) + 1 the run names each sum that does not vanish by its first term
    bases, weights, ns = IDENTITIES
    monkeypatch.setattr(exp_sum, "vanishing_bound", lambda g, w: odd_part(w).d + 1)
    verdicts = set()
    for g in bases:
        _, _, details = exp_sum._orbit_vanishing(range(g, g + 1), weights, ns)
        unpaired = {(n, w): observed for _, n, w, (_, (observed, _)) in details
                    if observed.startswith("count")}
        for w in weights:
            for n in ns[odd_part(w).d:]:
                cert = orbit_certificate(g, w, n).certificate
                r = cert.violating_residue
                assert cert.is_zero is ((n, w) not in unpaired), (g, w, n)
                assert cert.is_zero or unpaired[n, w].startswith(f"count({r})="), (g, w, n)
                verdicts.add(cert.is_zero)
    assert verdicts == {False, True}


def test_orbit_reduction_identity():
    # orbit(g, w, n) is 2^d copies of orbit(g, w0, n - d) scaled by 2^d
    for g, w, n in [(3, 2, 5), (3, 4, 7), (5, 12, 8), (-3, 8, 6), (7, 6, 7), (11, 40, 9)]:
        d, w0 = odd_part(w)
        assert n >= vanishing_bound(g, w)
        full = residue_orbit(g, w, n)
        collapsed = residue_orbit(g, w0, n - d)
        assert full.counts == {
            (r << d): (c << d) for r, c in collapsed.counts.items()
        }, (g, w, n)


@pytest.mark.parametrize(
    "g, w, n, verdict",
    [
        (3, 1, 4, Verdict.HOLDS),
        (3, 1, 3, Verdict.HYPOTHESIS_NOT_MET),
        (3, 2, 5, Verdict.HOLDS),  # even w: the lag collapses to omega(2^(n-d))/2
        (5, 12, 8, Verdict.HOLDS),
        (-3, 8, 6, Verdict.HOLDS),
    ],
)
def test_antipodal_shift_examples(g, w, n, verdict):
    assert check_antipodal_shift(g, w, n) is verdict


def test_antipodal_shift_literal_for_odd_w():
    # full literal cross-check of the shift identity at lag omega/2
    for g, w, n in [(3, 1, 4), (5, 3, 6), (-7, 5, 7), (11, -9, 8)]:
        m = 1 << n
        omega = order_fast(g, n).omega
        seq = []
        cur = w % m
        s = g % m
        for _ in range(omega):
            cur = cur * s % m
            seq.append(cur)
        lag = omega // 2
        assert all(
            seq[(k + lag) % omega] == (seq[k] + (m >> 1)) % m for k in range(omega)
        )
        assert check_antipodal_shift(g, w, n) is Verdict.HOLDS


def antipodal_shift_by_powers(g: int, w: int, n: int) -> Verdict:
    """Reference route: both lagged powers taken with pow, 256 spot checks."""
    if n < vanishing_bound(g, w):
        return Verdict.HYPOTHESIS_NOT_MET
    d, _ = odd_part(w)
    m = n - d
    lag = order_fast(g, m).omega // 2
    if pow(g, lag, 1 << m) != (1 << (m - 1)) + 1:
        return Verdict.COUNTEREXAMPLE
    big = 1 << n
    cur = w % big
    ahead = w * pow(g, lag, big) % big
    for _ in range(min(lag, 256)):
        cur = cur * g % big
        ahead = ahead * g % big
        if ahead != (cur + (big >> 1)) % big:
            return Verdict.COUNTEREXAMPLE
    return Verdict.HOLDS


def test_antipodal_shift_matches_power_route_on_grid():
    for g in range(-63, 64, 2):
        for w in range(-40, 41):
            for n in range(1, 15):
                try:
                    want = antipodal_shift_by_powers(g, w, n)
                except DomainError:
                    with pytest.raises(DomainError):
                        check_antipodal_shift(g, w, n)
                    continue
                assert check_antipodal_shift(g, w, n) is want, (g, w, n)


@pytest.mark.parametrize(
    "g, w, n",
    [
        (7, 1 << 4000, 4096),
        (-5, 3 << 1000, 1024),
        (-3, 1 << 1019, 1024),  # collapsed exponent m = 5
        (3, 5 << 60, 64),
        ((1 << 61) - 1, 1, 64),  # n one above the vanishing bound
        (5, 3, 1024),
    ],
)
def test_antipodal_shift_matches_power_route_at_large_n_and_d(g, w, n):
    assert check_antipodal_shift(g, w, n) is antipodal_shift_by_powers(g, w, n)


@pytest.mark.parametrize("n", [order_engine._SHIFTED_WALK_ABOVE + 1, 2048, 4096])
@pytest.mark.parametrize("high, low", [(0, 3), (0, -5), (1, -1), (1, 3)])
def test_half_order_and_antipodal_shift_above_the_walk_switch(high, low, n):
    # the callers of the t-walk: g = 3, -5, 2^(n-1) - 1, 2^(n-1) + 3
    g = (high << (n - 1)) + low
    result = half_order_residue(g, n)
    omega = 2 * result.half_exponent
    assert omega & (omega - 1) == 0
    assert result.residue == pow(g, omega // 2, 1 << n)
    # g^omega = 1 and g^(omega/2) != 1 with omega a power of two: the order
    assert result.residue != 1 and pow(result.residue, 2, 1 << n) == 1
    if (high, low) == (1, -1):
        assert result.involution is InvolutionClass.HALF_MINUS_ONE
    else:
        assert result.involution is InvolutionClass.HALF_PLUS_ONE
    assert check_antipodal_shift(g, 1, n) is antipodal_shift_by_powers(g, 1, n)


def test_exact_zero_iff_float_small_on_random_orbits():
    import random

    rng = random.Random(0xC0FFEE)
    for _ in range(300):
        g = rng.randrange(-63, 64) | 1
        if g in (-1, 1):
            continue
        w = rng.choice([x for x in range(-32, 33) if x != 0])
        n = rng.randrange(1, 13)
        orbit = residue_orbit(g, w, n)
        magnitude = abs(float_sum(orbit))
        if is_exact_zero(orbit).is_zero:
            assert magnitude < 1e-6
        else:
            assert magnitude > 1e-3

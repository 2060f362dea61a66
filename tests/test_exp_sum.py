from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pow2sums import (
    LITERAL_EXPONENT_CAP,
    DomainError,
    FloatPrecisionError,
    MinVanishing,
    ResidueMultiset,
    Verdict,
    check_antipodal_shift,
    check_orbit_vanishing,
    float_sum,
    is_exact_zero,
    min_vanishing_n,
    odd_part,
    orbit_certificate,
    order_fast,
    residue_orbit,
    vanishing_bound,
)
from pow2sums import exp_sum


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


def test_orbit_vanishing_small_grid_never_fails():
    for g in [x for x in range(-15, 16, 2) if x not in (-1, 1)]:
        for w in [x for x in range(-8, 9) if x != 0]:
            bound = vanishing_bound(g, w)
            for n in range(bound, bound + 3):
                assert check_orbit_vanishing(g, w, n) is Verdict.HOLDS, (g, w, n)


def by_multiset(g: int, w: int, n: int):
    """The multiset route's answers for S(g, w, n): the orbit, its
    certificate, and the offender exp_sum._unpaired must name."""
    orbit = residue_orbit(g, w, n)
    cert = is_exact_zero(orbit)
    r = cert.violating_residue
    if r is None:
        return orbit, cert, None
    return orbit, cert, (r, orbit.counts.get(r, 0), orbit.counts.get(r ^ (1 << (n - 1)), 0))


def assert_certificate_matches(g: int, w: int, n: int, orbit, cert, floats: bool = True) -> None:
    """orbit_certificate gives the multiset route's terms and certificate,
    and (if floats) its float within 1e-9 per term of float_sum, which sums
    in another order."""
    got = orbit_certificate(g, w, n)
    assert got.terms == orbit.total, (g, w, n)
    assert got.certificate == cert, (g, w, n)
    if floats:
        assert abs(got.value - float_sum(orbit)) <= 1e-9 * orbit.total, (g, w, n)


def test_dense_decider_agrees_with_the_multiset_route():
    # odd |g| < 64 plus bases that are +-1 modulo 2^9 or 2^10, so a short
    # orbit at small n grows at the top of the grid; even weights give
    # multiplicities above 1, and 2^12 and 5 * 2^20 are 0 modulo every 2^n
    bases = [g for g in range(-63, 64, 2) if g not in (-1, 1)]
    bases += [s * (k + e) for k in (1 << 9, 1 << 10) for e in (-1, 1) for s in (-1, 1)]
    weights = [w for w in range(-40, 41) if w != 0] + [1 << 12, -(3 << 9), 5 << 20]
    failures = 0
    for g in bases:
        for w in weights:
            for n in range(1, 13):
                orbit, cert, expected = by_multiset(g, w, n)
                assert exp_sum._unpaired(g, w, n, order_fast(g, n).omega) == expected, (g, w, n)
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
    assert failures > 0


def test_shared_tables_decide_each_weight_as_its_own_table():
    # every n <= 12 of odd |g| < 64 and 0 < |w| <= 40, in both orders, so the
    # first weight of a run differs; below the bound the weights of one
    # (g, n) split between vanishing and not, which a table reused across
    # orbits would merge
    bases = [g for g in range(-63, 64, 2) if g not in (-1, 1)]
    weights = [w for w in range(-40, 41) if w != 0]
    mixed = 0
    for g in bases:
        for n in range(1, 13):
            omega = order_fast(g, n).omega
            own = [exp_sum._unpaired(g, w, n, omega) for w in weights]
            assert exp_sum._unpaired_run(g, weights, n, omega) == own, (g, n)
            assert exp_sum._unpaired_run(g, weights[::-1], n, omega) == own[::-1], (g, n)
            mixed += None in own and own.count(None) < len(own)
    assert mixed > 0


def test_dense_decider_switches_route_above_the_cap(monkeypatch):
    cap = LITERAL_EXPONENT_CAP
    # short orbits on both sides of the cap (orders 4 and 2 modulo 2^n),
    # with weights for which some sums vanish and others do not
    cases = [(g, w, n) for n in (cap, cap + 1) for g in (1 + (1 << (n - 2)), -1 + (1 << (n - 1)))
             for w in (1, -3, 1 << (n - 2), 3 << (n - 1))]
    reference = {case: by_multiset(*case) for case in cases}
    expected = {case: ref[2] for case, ref in reference.items()}
    assert None in expected.values() and len(set(expected.values())) > 2
    calls = []
    real = exp_sum.residue_orbit
    monkeypatch.setattr(
        exp_sum, "residue_orbit", lambda g, w, n: calls.append(n) or real(g, w, n)
    )
    for g, w, n in cases:
        omega = order_fast(g, n).omega
        assert exp_sum._unpaired(g, w, n, omega) == expected[g, w, n], (g, w, n)
        assert_certificate_matches(g, w, n, *reference[g, w, n][:2])
    # the table decides at the cap; the multiset route only above it
    assert calls == [cap + 1] * len(cases)


def test_literal_orbit_is_capped(monkeypatch):
    with pytest.raises(DomainError, match="LITERAL_EXPONENT_CAP"):
        residue_orbit(3, 1, LITERAL_EXPONENT_CAP + 1)
    with pytest.raises(DomainError, match="LITERAL_EXPONENT_CAP"):
        check_orbit_vanishing(3, 1, 64)
    # at the bound the orbit is literal and too long; below it nothing is built
    with pytest.raises(DomainError, match="LITERAL_EXPONENT_CAP"):
        check_orbit_vanishing(3, 1 << 60, 64)
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
    calls = []
    real = exp_sum.residue_orbit

    def orbit_above_the_cap(g, w, n):
        assert n > LITERAL_EXPONENT_CAP, (g, w, n)
        calls.append(n)
        return real(g, w, n)

    monkeypatch.setattr(exp_sum, "residue_orbit", orbit_above_the_cap)
    for case in cases:
        assert min_vanishing_n(*case) == expected[case], case
    assert calls == list(range(LITERAL_EXPONENT_CAP + 1, 54))


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


def test_min_vanishing_n_slack_accounting():
    found = min_vanishing_n(9, 1, 10)
    assert found == MinVanishing(n=4, slack=1)  # bound(9, 1) = 5, first zero at 4


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

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pow2sums import (
    DomainError,
    InvolutionClass,
    Verdict,
    canonical_residue,
    check_half_order_classification,
    check_involution_membership,
    check_minus_one_case,
    classify_involution,
    half_order_exponent,
    half_order_residue,
    mod_pow,
)


def expected_involution(g: int, n: int) -> InvolutionClass:
    """Oracle for the full classification, pinned by exhaustive enumeration.

    MINUS_ONE for g = -1, HALF_MINUS_ONE for g = 2^(n-1) - 1, and
    HALF_PLUS_ONE for every other odd g != 1 (mod 2^n).
    """
    gc = canonical_residue(g, n)
    if gc == (1 << n) - 1:
        return InvolutionClass.MINUS_ONE
    if gc == (1 << (n - 1)) - 1:
        return InvolutionClass.HALF_MINUS_ONE
    return InvolutionClass.HALF_PLUS_ONE


@pytest.mark.parametrize(
    "g, n, expected",
    [
        (3, 4, 2),
        (15, 4, 1),
        (3, 2, 1),
        (3, 5, 4),
    ],
)
def test_half_order_exponent_examples(g, n, expected):
    assert half_order_exponent(g, n) == expected


def test_half_order_exponent_domain_errors():
    with pytest.raises(DomainError):
        half_order_exponent(3, 1)  # every odd g is 1 mod 2
    with pytest.raises(DomainError):
        half_order_exponent(1, 5)
    with pytest.raises(DomainError):
        half_order_exponent(17, 4)  # 17 is 1 mod 16


@pytest.mark.parametrize(
    "g, n, residue, involution, matches",
    [
        (3, 4, 9, InvolutionClass.HALF_PLUS_ONE, True),
        (15, 4, 15, InvolutionClass.MINUS_ONE, True),
        (7, 4, 7, InvolutionClass.HALF_MINUS_ONE, False),
        (11, 4, 9, InvolutionClass.HALF_PLUS_ONE, True),
        (3, 3, 3, InvolutionClass.HALF_MINUS_ONE, False),  # 3 = 2^2 - 1 mod 8
    ],
)
def test_half_order_residue_examples(g, n, residue, involution, matches):
    result = half_order_residue(g, n)
    assert result.residue == residue
    assert result.involution is involution
    assert result.matches_expected is matches


def test_half_order_residue_requires_n_at_least_3():
    with pytest.raises(DomainError):
        half_order_residue(3, 2)


@pytest.mark.parametrize(
    "g, n, message",
    [
        (3, 2, "half-order classification needs n >= 3, got n=2"),
        (4, 2, "half-order classification needs n >= 3, got n=2"),
        (4, 5, "base must be odd, got 4"),
        (17, 4, "g=17 is 1 mod 2^4: order is odd, half-exponent undefined"),
        (-15, 4, "g=-15 is 1 mod 2^4: order is odd, half-exponent undefined"),
    ],
)
def test_half_order_residue_error_messages(g, n, message):
    with pytest.raises(DomainError) as info:
        half_order_residue(g, n)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [64, 1024])
def test_half_order_residue_equals_a_direct_power(n):
    m = 1 << n
    for g in (3, 5, -3, 7, m - 1, (m >> 1) - 1, (m >> 1) + 1, 12345, -(3**70)):
        result = half_order_residue(g, n)
        assert result.residue == pow(g, result.half_exponent, m), (g, n)


def test_classify_involution_tags():
    assert classify_involution(1, 5) is InvolutionClass.ONE
    assert classify_involution(31, 5) is InvolutionClass.MINUS_ONE
    assert classify_involution(15, 5) is InvolutionClass.HALF_MINUS_ONE
    assert classify_involution(17, 5) is InvolutionClass.HALF_PLUS_ONE
    assert classify_involution(7, 5) is InvolutionClass.OTHER
    # below n = 3 the four involution classes are not distinct
    for n in (1, 2):
        with pytest.raises(DomainError, match=f"distinct only for n >= 3, got n={n}"):
            classify_involution(1, n)


def test_half_order_residue_squares_to_one_exhaustively():
    for n in range(3, 11):
        for g in range(3, 1 << n, 2):
            result = half_order_residue(g, n)
            assert canonical_residue(result.residue * result.residue, n) == 1


def test_classification_matches_pinned_oracle_exhaustively():
    # full table for n in [3, 12]: the involution is determined by the
    # residue class of g alone
    for n in range(3, 13):
        for g in range(3, 1 << n, 2):
            result = half_order_residue(g, n)
            assert result.involution is expected_involution(g, n), (g, n)
            assert result.involution is not InvolutionClass.OTHER


def test_stability_under_representative_choice():
    for n in (3, 5, 8):
        for g in (3, 7, 2**n - 1, -5):
            assert half_order_residue(g, n) == half_order_residue(g + (1 << n), n)


@settings(max_examples=200)
@given(
    g=st.integers(min_value=-(10**9), max_value=10**9).map(lambda x: 2 * x + 1),
    n=st.integers(min_value=3, max_value=48),
)
def test_half_order_residue_is_an_involution(g, n):
    if canonical_residue(g, n) == 1:
        return
    result = half_order_residue(g, n)
    assert canonical_residue(result.residue**2, n) == 1
    assert mod_pow(g, result.half_exponent, n) == result.residue


@pytest.mark.parametrize(
    "g, n, verdict",
    [
        (3, 4, Verdict.HOLDS),
        (7, 4, Verdict.HOLDS),  # HALF_MINUS_ONE is in the candidate set
        (15, 3, Verdict.HOLDS),  # 15 is -1 mod 8
    ],
)
def test_involution_membership_examples(g, n, verdict):
    assert check_involution_membership(g, n) is verdict


@pytest.mark.parametrize(
    "g, n, verdict",
    [
        (15, 4, Verdict.HOLDS),
        (3, 4, Verdict.HYPOTHESIS_NOT_MET),
        (31, 5, Verdict.HOLDS),
    ],
)
def test_minus_one_case_examples(g, n, verdict):
    assert check_minus_one_case(g, n) is verdict


@pytest.mark.parametrize(
    "g, n, verdict",
    [
        (3, 4, Verdict.HOLDS),
        (7, 4, Verdict.PAPER_EXCEPTION),
        (11, 4, Verdict.HOLDS),
        (15, 4, Verdict.HOLDS),  # the g = -1 branch
    ],
)
def test_classification_checker_examples(g, n, verdict):
    assert check_half_order_classification(g, n) is verdict


def test_exception_family_is_exactly_one_residue_class_per_n():
    for n in range(3, 13):
        exceptional = [
            g
            for g in range(3, 1 << n, 2)
            if check_half_order_classification(g, n) is Verdict.PAPER_EXCEPTION
        ]
        assert exceptional == [(1 << (n - 1)) - 1]

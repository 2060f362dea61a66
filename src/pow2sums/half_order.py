"""Half-order power residues modulo 2^n and their classification.

For n >= 2 and g != 1 (mod 2^n) the order omega of an odd g is even, so
the half-order residue g^(omega/2) mod 2^n is well defined, and squaring
it gives 1: it is an involution.  For n >= 3 the involutions modulo 2^n
are 1, -1, 2^(n-1) - 1 and 2^(n-1) + 1, and a half-order residue can
never be 1 (that would contradict minimality of omega), leaving three
candidates.

The full classification, confirmed exhaustively by the test suite:

* residue -1          exactly for g = -1 (mod 2^n), where omega = 2;
* residue 2^(n-1) - 1 exactly for g = 2^(n-1) - 1 (mod 2^n), also omega = 2;
* residue 2^(n-1) + 1 for every other odd g != 1 (mod 2^n).

The claimed two-case rule checked by ``check_half_order_classification``
omits the middle family: those bases satisfy its hypotheses
(g != +-1 mod 2^n) yet land on 2^(n-1) - 1.  The checker reports them as
PAPER_EXCEPTION, a documented exception class kept separate from genuine
counterexamples, so exhaustive sweeps can still assert that nothing new
ever violates the rule.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .core_arith import DomainError, _require_exponent, _require_odd, canonical_residue
from .order_engine import _order_column
from .verdict import Outcome, Verdict


class InvolutionClass(enum.Enum):
    """Which involution a residue is, for a given modulus exponent."""

    MINUS_ONE = "MINUS_ONE"            # 2^n - 1
    HALF_MINUS_ONE = "HALF_MINUS_ONE"  # 2^(n-1) - 1
    HALF_PLUS_ONE = "HALF_PLUS_ONE"    # 2^(n-1) + 1
    ONE = "ONE"                        # 1
    OTHER = "OTHER"                    # anything else (never a half-order residue)


def classify_involution(r: int, n: int) -> InvolutionClass:
    """Classify a canonical residue r against the involutions modulo 2^n."""
    _require_exponent(n)
    if n < 3:
        raise DomainError(f"involution classes are distinct only for n >= 3, got n={n}")
    if r == 1:
        return InvolutionClass.ONE
    if r == (1 << n) - 1:
        return InvolutionClass.MINUS_ONE
    if r == (1 << (n - 1)) - 1:
        return InvolutionClass.HALF_MINUS_ONE
    if r == (1 << (n - 1)) + 1:
        return InvolutionClass.HALF_PLUS_ONE
    return InvolutionClass.OTHER


@dataclass(frozen=True)
class HalfOrderResult:
    """g^(omega/2) mod 2^n with its classification.

    g is stored canonically reduced, so results are stable under the choice
    of representative.  matches_expected records whether the involution
    agrees with the two-case rule: MINUS_ONE when g = -1 (mod 2^n),
    HALF_PLUS_ONE for every other admissible g.
    """

    g: int
    n: int
    half_exponent: int
    residue: int
    involution: InvolutionClass
    matches_expected: bool


def _half_order_chain(g: int, n: int) -> tuple[int, int]:
    """(omega_g(2^n) / 2, g^(omega/2) mod 2^n) from one squaring chain.

    Requires n >= 2 and g != 1 (mod 2^n): modulo 2 every odd g is 1, and
    for g = 1 the order is odd (namely 1), so neither admits a half.
    """
    _require_odd(g)
    _require_exponent(n)
    if n < 2:
        raise DomainError("half-order exponent needs n >= 2 (every odd g is 1 mod 2)")
    omega, residue = _order_column(g, n, n)[0]
    if omega == 1:
        raise DomainError(f"g={g} is 1 mod 2^{n}: order is odd, half-exponent undefined")
    # omega is a power of two and > 1 here, hence even
    return omega // 2, residue


def half_order_exponent(g: int, n: int) -> int:
    """omega_g(2^n) / 2, an exact positive integer; needs n >= 2, g != 1."""
    return _half_order_chain(g, n)[0]


def _classifiable(g: int, n: int) -> tuple[int, int, int, int]:
    """(canonical g, n, half exponent, residue), validated for n >= 3: the
    plain ints the checkers below take, which a sweep reads from a column."""
    _require_exponent(n)
    if n < 3:
        raise DomainError(f"half-order classification needs n >= 3, got n={n}")
    half, residue = _half_order_chain(g, n)
    return canonical_residue(g, n), n, half, residue


def half_order_residue(g: int, n: int) -> HalfOrderResult:
    """Compute and classify g^(omega/2) mod 2^n.  Requires n >= 3.

    The residue is the squaring chain's last element before 1, so no
    second power is taken.
    """
    gc, n, half, residue = _classifiable(g, n)
    holds = _classification(gc, n, half, residue)[0] is Verdict.HOLDS
    return HalfOrderResult(gc, n, half, residue, classify_involution(residue, n), holds)


def check_involution_membership(g: int, n: int) -> Verdict:
    """Is the half-order residue one of -1, 2^(n-1) - 1, 2^(n-1) + 1?

    Sweep claim id: lemma2.
    """
    return _involution_membership(*_classifiable(g, n))[0]


def _involution_membership(g: int, n: int, half: int, residue: int) -> Outcome:
    if classify_involution(residue, n) in (
        InvolutionClass.MINUS_ONE,
        InvolutionClass.HALF_MINUS_ONE,
        InvolutionClass.HALF_PLUS_ONE,
    ):
        return Verdict.HOLDS, None
    top = 1 << (n - 1)
    return Verdict.COUNTEREXAMPLE, (
        f"half-order residue {residue} outside the candidate set",
        f"residue in {{{(1 << n) - 1}, {top - 1}, {top + 1}}}",
    )


def check_minus_one_case(g: int, n: int) -> Verdict:
    """When the half-order residue is -1, is omega = 2 and g = -1 (mod 2^n)?

    Sweep claim id: lemma3.
    """
    return _minus_one_case(*_classifiable(g, n))[0]


def _minus_one_case(g: int, n: int, half: int, residue: int) -> Outcome:
    if classify_involution(residue, n) is not InvolutionClass.MINUS_ONE:
        return Verdict.HYPOTHESIS_NOT_MET, None
    if half == 1 and g == (1 << n) - 1:
        return Verdict.HOLDS, None
    return Verdict.COUNTEREXAMPLE, (
        f"omega={2 * half}, g={g} (mod 2^{n})",
        f"omega=2 and g={(1 << n) - 1} (mod 2^{n})",
    )


def check_half_order_classification(g: int, n: int) -> Verdict:
    """Verify the two-case half-order rule, tracking its known exception.

    The rule: g = -1 (mod 2^n) gives residue -1; any other odd g != 1
    (mod 2^n) gives residue 2^(n-1) + 1.  The family g = 2^(n-1) - 1
    (mod 2^n) violates the second case (its residue is itself) and is
    reported as PAPER_EXCEPTION; any other violation is a COUNTEREXAMPLE.
    Sweep claim id: lemma4_theorem5.
    """
    return _classification(*_classifiable(g, n))[0]


def _classification(g: int, n: int, half: int, residue: int) -> Outcome:
    """The two-case rule itself; ``half_order_residue`` reads
    matches_expected from it."""
    involution = classify_involution(residue, n)
    if g == (1 << n) - 1:
        expected, want = InvolutionClass.MINUS_ONE, g
    else:
        expected, want = InvolutionClass.HALF_PLUS_ONE, (1 << (n - 1)) + 1
    if involution is expected:
        return Verdict.HOLDS, None
    detail = (
        f"half-order residue {residue} ({involution.value})",
        f"half-order residue {want} ({expected.value})",
    )
    if g == (1 << (n - 1)) - 1 and involution is InvolutionClass.HALF_MINUS_ONE:
        return Verdict.PAPER_EXCEPTION, detail
    return Verdict.COUNTEREXAMPLE, detail

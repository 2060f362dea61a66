"""Multiplicative orders of odd integers modulo 2^n.

Two independent routes compute the order omega_g(2^n), the least k >= 1
with g^k = 1 (mod 2^n):

* ``order_naive`` -- the definitional scan by incremental multiplication.
  It is the ground-truth oracle and is iteration-capped, since its cost is
  the order itself.
* ``order_fast`` -- repeated squaring.  The group of units modulo 2^n is a
  2-group, so every order is a power of two and the least j with
  g^(2^j) = 1 gives omega = 2^j in at most n squarings.

The squaring chain g, g^2, g^4, ... is walked once, by ``_squaring_chain``,
with every square reduced by the mask 2^n - 1 instead of a division.  The
element just before the chain reaches 1 is g^(omega/2), so the same walk
also yields the half-order residue that ``half_order`` classifies.
``order_table`` walks one chain modulo 2^n_max and reads every smaller
order from it, in n_max squarings in total.

The fast path is validated against the scan exhaustively in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core_arith import (
    DomainError,
    _require_exponent,
    _require_odd,
    canonical_residue,
)
from .verdict import Outcome, Verdict

# The scan is a cross-validation oracle, not a production path; beyond this
# many multiplications it reports a resource error instead of grinding on.
NAIVE_SCAN_CAP = 1 << 22


class ScanBudgetExceeded(RuntimeError):
    """The definitional order scan hit its iteration cap."""


@dataclass(frozen=True)
class OrderRecord:
    """Order of g modulo 2^n; g is stored canonically reduced.

    path records which route produced the value ("naive" or "fast").
    """

    g: int
    n: int
    omega: int
    path: str


def order_naive(g: int, n: int, cap: int = NAIVE_SCAN_CAP) -> OrderRecord:
    """Least k >= 1 with g^k = 1 (mod 2^n), by incremental multiplication."""
    _require_odd(g)
    _require_exponent(n)
    m = 1 << n
    s = g % m
    x = s
    k = 1
    while x != 1:
        k += 1
        if k > cap:
            raise ScanBudgetExceeded(
                f"order scan for g={g} mod 2^{n} exceeded {cap} iterations"
            )
        x = x * s % m
    return OrderRecord(g=s, n=n, omega=k, path="naive")


def _squaring_chain(g: int, n: int) -> tuple[int, int]:
    """(omega, g^(omega // 2) mod 2^n) for odd g, from one squaring chain.

    Unit orders modulo 2^n are powers of two, so omega is 2^j for the least
    j >= 0 with g^(2^j) = 1 (mod 2^n), and g^(omega/2) is the chain's last
    element before 1.  For omega = 1 the residue is g^0 = 1.  Arguments
    are not validated.
    """
    mask = (1 << n) - 1
    s = g & mask
    half = s
    omega = 1
    while s != 1:
        half = s
        s = s * s & mask
        omega <<= 1
    return omega, half


def order_fast(g: int, n: int) -> OrderRecord:
    """Same order as ``order_naive``, via at most n squarings."""
    _require_odd(g)
    _require_exponent(n)
    omega, _ = _squaring_chain(g, n)
    return OrderRecord(g=g & ((1 << n) - 1), n=n, omega=omega, path="fast")


def order_table(g: int, n_max: int) -> list[OrderRecord]:
    """Orders of g modulo 2^1 .. 2^n_max, one fast-path record per exponent.

    One squaring chain s_j = g^(2^j) mod 2^n_max serves every exponent:
    omega_g(2^n) = 2^j for the least j with v2(s_j - 1) >= n, and
    v2(s_j - 1) strictly increases along the chain, so n_max squarings
    suffice in total.  The sequence is non-decreasing and consecutive
    entries differ by a factor of 1 or 2.
    """
    _require_odd(g)
    _require_exponent(n_max)
    mask = (1 << n_max) - 1
    s = g & mask
    omega = 1
    records = []
    for n in range(1, n_max + 1):
        low = (1 << n) - 1
        while (s - 1) & low:  # until s = 1 (mod 2^n)
            s = s * s & mask
            omega <<= 1
        records.append(OrderRecord(g=g & low, n=n, omega=omega, path="fast"))
    return records


def check_order_doubling(g: int, n: int) -> Verdict:
    """Does the order double when the modulus exponent steps from n to n+1?

    Asserted only for g != +-1 (mod 2^n); those bases make the hypothesis
    fail (for g = -1 the order is stuck at 2, for g = 1 at 1).
    Sweep claim id: lemma1.
    """
    return _order_doubling(g, n)[0]


def _order_doubling(g: int, n: int) -> Outcome:
    _require_odd(g)
    _require_exponent(n)
    gc = canonical_residue(g, n)
    if gc == 1 or gc == (1 << n) - 1:
        return Verdict.HYPOTHESIS_NOT_MET, None
    above = order_fast(g, n + 1).omega
    base = order_fast(g, n).omega
    if above == 2 * base:
        return Verdict.HOLDS, None
    return Verdict.COUNTEREXAMPLE, (
        f"omega at exponent {n + 1} = {above}",
        f"2 * omega at exponent {n} = {2 * base}",
    )


def check_order_scaling(g: int, n: int, d: int) -> Verdict:
    """Does omega_g(2^n) equal 2^d * omega_g(2^(n-d))?

    Requires g != +-1 (mod 2^(n-d)); the identity then follows from d
    applications of the doubling law, and this checker verifies it by
    computing both orders independently.
    """
    _require_odd(g)
    _require_exponent(n)
    if d < 0 or d >= n:
        raise DomainError(f"need 0 <= d < n, got d={d}, n={n}")
    m = n - d
    gm = canonical_residue(g, m)
    if gm == 1 or gm == (1 << m) - 1:
        return Verdict.HYPOTHESIS_NOT_MET
    if order_fast(g, n).omega == (1 << d) * order_fast(g, m).omega:
        return Verdict.HOLDS
    return Verdict.COUNTEREXAMPLE

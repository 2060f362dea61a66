"""Multiplicative orders of odd integers modulo 2^n.

Two independent routes compute the order omega_g(2^n), the least k >= 1
with g^k = 1 (mod 2^n):

* ``order_naive`` -- the definitional scan by incremental multiplication.
  It is the ground-truth oracle and is iteration-capped, since its cost is
  the order itself.
* ``order_fast`` -- repeated squaring.  The group of units modulo 2^n is a
  2-group, so every order is a power of two and the least j with
  g^(2^j) = 1 gives omega = 2^j in at most n squarings.

The squaring chain g, g^2, g^4, ... is reduced by a mask instead of a
division; its element just before 1 is g^(omega/2), the half-order
residue that ``half_order`` classifies.  One walker, ``_order_column(g,
n_lo, n_hi)``, reads it for a run of exponents: reduction modulo 2^n
commutes with squaring, so one chain modulo 2^n_hi serves every n <= n_hi
(sweeps, ``order_table``, the order-law checkers), and a single exponent
is the run n_lo = n_hi (``order_fast``, ``half_order``,
``check_antipodal_shift``).  Above a top exponent of _SHIFTED_WALK_ABOVE
the walker carries t = g^(2^j) - 1, which 2^(j+1) divides, so each square
keeps only the bits that survive the mask.

The order-law checkers decide one tuple each and keep no run loop:
``_doubling`` is lemma1 at one (g, n), handed the orders at n and n + 1,
both by their definition; ``check_order_doubling`` reads them from one
column, and a sweep from the column it walks for each g.

Both walks are validated against the scan exhaustively in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core_arith import DomainError, _require_exponent, _require_odd, canonical_residue
from .verdict import HOLDS, NOT_MET, Outcome, Verdict

# The scan is a cross-validation oracle, not a production path; it raises
# past NAIVE_SCAN_CAP one-word products instead of grinding on: a b-bit
# multiplier times an n-bit x costs max(1, b/64) * max(1, n/64) of them.
# order_naive reads this attribute at call time; the re-export is a copy.
NAIVE_SCAN_CAP = 1 << 22

# _order_column walks t = s - 1 above this top exponent and s at or below
# it.  Measured on CPython 3.11, the t-walk is 1.1x as fast on the column
# 1..512, 1.9x at n = 1024, 2.9x at 4096, but 0.5x at n = 64.
_SHIFTED_WALK_ABOVE = 512


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


def order_naive(g: int, n: int) -> OrderRecord:
    """Least k >= 1 with g^k = 1 (mod 2^n), by incremental multiplication,
    within the cost of NAIVE_SCAN_CAP one-word products."""
    _require_odd(g)
    _require_exponent(n)
    mask = (1 << n) - 1
    s = g & mask
    # g's representative in (-2^(n-1), 2^(n-1)]: a small negative g is one word
    t = s - (mask + 1) if s >> (n - 1) else s
    x = s
    # t has at most n bits, so up to n = 64 the budget is the cap itself
    cap = NAIVE_SCAN_CAP if n <= 64 else NAIVE_SCAN_CAP * 4096 // (max(64, t.bit_length()) * n)
    for k in range(1, cap + 1):  # x = g^k mod 2^n
        if x == 1:
            return OrderRecord(g=s, n=n, omega=k, path="naive")
        x = x * t & mask
    # a wide g is named by its width: its digits would fill the error line
    name = f"g={g}" if g.bit_length() <= 64 else f"a {g.bit_length()}-bit g"
    raise ScanBudgetExceeded(f"order scan for {name} mod 2^{n} exceeded {cap} iterations")


def _order_column(g: int, n_lo: int, n_hi: int) -> list[tuple[int, int]]:
    """(omega, g^(omega // 2) mod 2^n) for n = n_lo .. n_hi from one chain.

    On the chain s_j = g^(2^j) mod 2^n_hi, omega_g(2^n) is 2^j for the
    least j with s_j = 1 (mod 2^n), and the residue is s_(j-1) mod 2^n (1
    for omega = 1).  j only grows with n, so the walk takes at most n_hi
    squarings.  Arguments are not validated.

    Above _SHIFTED_WALK_ABOVE the chain is walked as t_j = s_j - 1 by
    (1 + t)^2 = 1 + 2t + t^2 alone, with no order law: t_(j+1) = t_j^2 +
    2 t_j, and t_0 = g - 1 is even, so 2^k divides t_j for k = j + 1 and
    t_j^2 = ((t_j >> k) mod 2^(n_hi - 2k))^2 << 2k (mod 2^n_hi), a square
    of n_hi - 2k bits instead of n_hi.  Once 2k >= n_hi that square is 0 and
    each step doubles t, so the r = n - v_2(t) steps still due at an n are
    one shift, with t << (r - 1) the last t before 1 + t = 1 (mod 2^n).
    """
    mask = (1 << n_hi) - 1
    column = []
    if n_hi > _SHIFTED_WALK_ABOVE:
        t, k, sq, half = (g - 1) & mask, 1, mask >> 2, 0
        for n in range(n_lo, n_hi + 1):
            low = (1 << n) - 1
            while sq and t & low:  # until 1 + t = 1 (mod 2^n)
                half = t
                u = (t >> k) & sq
                t = ((u * u << 2 * k) + (t << 1)) & mask
                k += 1
                sq >>= 2
            if t & low:  # sq = 0: the remaining steps double t
                r = n + 1 - (t & -t).bit_length()
                half, t, k = t << (r - 1), t << r & mask, k + r
            column.append((1 << (k - 1), (half + 1) & low))
        return column
    s = g & mask
    half = 1
    omega = 1
    for n in range(n_lo, n_hi + 1):
        low = (1 << n) - 1
        while (s - 1) & low:  # until s = 1 (mod 2^n)
            half = s
            s = s * s & mask
            omega <<= 1
        column.append((omega, half & low))
    return column


def order_fast(g: int, n: int) -> OrderRecord:
    """Same order as ``order_naive``, via at most n squarings."""
    _require_odd(g)
    _require_exponent(n)
    omega, _ = _order_column(g, n, n)[0]
    return OrderRecord(g=g & ((1 << n) - 1), n=n, omega=omega, path="fast")


def order_table(g: int, n_max: int) -> list[OrderRecord]:
    """Orders of g modulo 2^1 .. 2^n_max, one fast-path record per exponent.

    Read from one column, so n_max squarings suffice in total.  The
    sequence is non-decreasing and consecutive entries differ by a factor
    of 1 or 2.
    """
    _require_odd(g)
    _require_exponent(n_max)
    return [
        OrderRecord(g=g & ((1 << n) - 1), n=n, omega=omega, path="fast")
        for n, (omega, _) in enumerate(_order_column(g, 1, n_max), start=1)
    ]


def check_order_doubling(g: int, n: int) -> Verdict:
    """Does the order double when the modulus exponent steps from n to n+1?

    Asserted only for g != +-1 (mod 2^n); those bases make the hypothesis
    fail (for g = -1 the order is stuck at 2, for g = 1 at 1).  Both orders
    are read from one column and decided by lemma1's checker.  Sweep claim
    id: lemma1.
    """
    _require_odd(g)  # an even base is named before a bad exponent, as by order_fast
    _require_exponent(n)
    low = (1 << n) - 1
    if g & low not in (1, low):
        _require_exponent(n + 1)  # the order at n + 1 is read
    (omega, residue), (above, _) = _order_column(g, n, n + 1)
    return _doubling(g, n, omega, residue, above)[0]


def _doubling(g: int, n: int, omega: int, residue: int, above: Optional[int]) -> Outcome:
    """lemma1 at one (g, n): omega_g(2^n) = omega, and above is the order at
    n + 1, None where that exponent is refused by the guard."""
    low = (1 << n) - 1
    if g & low in (1, low) or above is None:
        return NOT_MET
    if above == 2 * omega:
        return HOLDS
    return Verdict.COUNTEREXAMPLE, (
        f"omega at exponent {n + 1} = {above}",
        f"2 * omega at exponent {n} = {2 * omega}",
    )


def check_order_scaling(g: int, n: int, d: int) -> Verdict:
    """Does omega_g(2^n) equal 2^d * omega_g(2^(n-d))?

    Requires g != +-1 (mod 2^(n-d)); the identity then follows from d
    applications of the doubling law, and this checker verifies it by
    reading both orders, by definition, from one column.
    """
    _require_odd(g)
    _require_exponent(n)
    if d < 0 or d >= n:
        raise DomainError(f"need 0 <= d < n, got d={d}, n={n}")
    m = n - d
    gm = canonical_residue(g, m)
    if gm == 1 or gm == (1 << m) - 1:
        return Verdict.HYPOTHESIS_NOT_MET
    column = _order_column(g, m, n)
    if column[-1][0] == (1 << d) * column[0][0]:
        return Verdict.HOLDS
    return Verdict.COUNTEREXAMPLE

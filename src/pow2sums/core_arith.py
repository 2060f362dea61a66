"""Exact integer primitives for arithmetic modulo powers of two.

Residues are plain ints carried in canonical form, i.e. reduced into
[0, 2^n).  Signed inputs of any magnitude are accepted and reduced on
entry, so downstream comparisons never need sign case-splits.
"""
from __future__ import annotations

from typing import NamedTuple

# Guard on modulus exponents so accidental sweeps over astronomically large
# moduli fail fast.  Every guard reads this attribute at call time, so
# reassign core_arith.MAX_EXPONENT to raise the ceiling; the package-level
# re-export is a copy and has no effect.
MAX_EXPONENT = 4096


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


def _require_exponent(n: int) -> None:
    if n < 1:
        raise DomainError(f"modulus exponent must be >= 1, got {n}")
    if n > MAX_EXPONENT:
        raise DomainError(
            f"modulus exponent {n} exceeds MAX_EXPONENT = {MAX_EXPONENT}"
        )


def _require_odd(g: int) -> None:
    if g % 2 == 0:
        raise DomainError(f"base must be odd, got {g}")


def canonical_residue(x: int, n: int) -> int:
    """Reduce x modulo 2^n into the canonical range [0, 2^n)."""
    _require_exponent(n)
    return x & ((1 << n) - 1)


def mod_pow(g: int, e: int, n: int) -> int:
    """g**e mod 2^n by square-and-multiply; g**e is never materialized.

    Python's three-argument ``pow`` performs the binary powering, so the
    cost is O(e.bit_length()) multiplications of n-bit residues.
    """
    _require_exponent(n)
    if e < 0:
        raise DomainError(f"exponent must be >= 0, got {e}")
    return pow(g, e, 1 << n)


def two_adic_valuation(w: int) -> int:
    """Largest d such that 2^d divides w.  Undefined (and rejected) for 0."""
    if w == 0:
        raise DomainError("2-adic valuation is undefined for zero")
    return (w & -w).bit_length() - 1


class ValuationDecomposition(NamedTuple):
    """w split as 2^d * odd_part, with the sign carried by the odd part."""

    d: int
    odd_part: int


def odd_part(w: int) -> ValuationDecomposition:
    """Split w != 0 into 2^d * odd_part with odd_part odd (sign preserved).

    >>> odd_part(-40)
    ValuationDecomposition(d=3, odd_part=-5)
    """
    d = two_adic_valuation(w)
    return ValuationDecomposition(d, w >> d)


def threshold_exponent(g: int) -> int:
    """Least k such that -2^(k-1) - 1 < g < 2^(k-1) - 1 (both strict).

    Defined for odd g outside {-1, 1}.  Whenever n >= threshold_exponent(g)
    the base satisfies g != +-1 (mod 2^(n-1)), and hence modulo every higher
    power of two as well; this is the base-dependent part of the vanishing
    bound for orbit sums.

    Computed in closed form from the bit length of g; the test suite
    cross-checks it against a literal scan of the defining inequalities.
    """
    _require_odd(g)
    if g in (-1, 1):
        raise DomainError(
            "threshold exponent is defined only for odd g outside {-1, 1}"
        )
    if g > 1:
        # least k with 2^(k-1) >= g + 2, i.e. strict g < 2^(k-1) - 1
        return (g + 1).bit_length() + 1
    # least k with 2^(k-1) >= -g, i.e. strict g > -2^(k-1) - 1
    return (-g - 1).bit_length() + 1

"""Exact vanishing of complete orbit sums of 2^n-th roots of unity.

The object of study is S(g, w, n) = sum over k = 1..omega of
e^(2*pi*i * w * g^k / 2^n), where omega is the order of g modulo 2^n.
S is represented exactly by the multiset of exponent residues
w * g^k mod 2^n, so deciding S = 0 never touches floating point.

The decision rests on antipodal pairing: e^(2*pi*i*(r + 2^(n-1))/2^n) is
the negative of e^(2*pi*i*r/2^n), and the roots with exponents
0 <= r < 2^(n-1) are linearly independent over the rationals (the 2^n-th
cyclotomic field has degree 2^(n-1)).  Hence S = 0 exactly when every
residue r < 2^(n-1) carries the same multiplicity as its antipode
r + 2^(n-1) -- a complete criterion, checkable in one pass, and the
resulting pairing (or the first violating residue) is the certificate.

A floating evaluation is provided as a diagnostic cross-check only; the
exact path is authoritative at every exponent.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .core_arith import (
    DomainError,
    _require_exponent,
    _require_odd,
    canonical_residue,
    threshold_exponent,
    two_adic_valuation,
)
from .order_engine import _order_column, order_fast
from .verdict import Outcome, Verdict

# Beyond this exponent 2*pi*r/2^n loses the argument precision a float can
# carry; callers are directed to the exact certificate instead.
FLOAT_EXPONENT_CAP = 52

# How many orbit indices check_antipodal_shift also verifies literally.
_SPOT_CHECKS = 256


class FloatPrecisionError(ValueError):
    """The floating cross-check was asked for an unrepresentable exponent."""


@dataclass
class ResidueMultiset:
    """Multiplicities of exponent residues in [0, 2^n); the exact sum.

    counts maps residue -> multiplicity >= 1; absent residues have
    multiplicity 0.  n = 0 (modulus 1, every root equal to 1) is allowed
    so the empty-sum edge case has a home.
    """

    n: int
    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"modulus exponent must be >= 0, got {self.n}")
        m = 1 << self.n
        for r, c in self.counts.items():
            if not 0 <= r < m:
                raise DomainError(f"residue {r} outside [0, 2^{self.n})")
            if c < 1:
                raise DomainError(f"multiplicity for residue {r} must be >= 1, got {c}")

    @property
    def total(self) -> int:
        """Number of terms in the sum, multiplicities included."""
        return sum(self.counts.values())


@dataclass(frozen=True)
class ZeroCertificate:
    """Checkable certificate for the vanishing decision.

    When is_zero, pairing lists (r, multiplicity) for every occupied
    residue r < 2^(n-1); each of those terms cancels one copy at
    r + 2^(n-1).  Otherwise violating_residue is a residue whose antipode
    carries a different multiplicity.
    """

    is_zero: bool
    pairing: Optional[tuple[tuple[int, int], ...]] = None
    violating_residue: Optional[int] = None


def residue_orbit(g: int, w: int, n: int) -> ResidueMultiset:
    """The multiset {w * g^k mod 2^n : k = 1..omega_g(2^n)}.

    One modular multiplication per term; the orbit length is the order of
    g, so cost grows with omega.  Requires odd g outside {-1, 1} and
    nonzero w.
    """
    _require_odd(g)
    if g in (-1, 1):
        raise DomainError(f"orbit base must be an odd integer outside {{-1, 1}}, got {g}")
    if w == 0:
        raise DomainError("orbit weight w must be nonzero")
    _require_exponent(n)
    m = 1 << n
    omega = order_fast(g, n).omega
    s = g % m
    cur = w % m
    counts: dict[int, int] = {}
    for _ in range(omega):
        cur = cur * s % m
        counts[cur] = counts.get(cur, 0) + 1
    return ResidueMultiset(n=n, counts=counts)


def is_exact_zero(multiset: ResidueMultiset) -> ZeroCertificate:
    """Decide S = 0 by antipodal multiplicity pairing; exact at every n.

    Follows the multiset's own iteration order when hunting a violation,
    so the reported residue is the first offender in construction order.
    """
    if multiset.n == 0:
        # modulus 1: every term is the root 1, so only the empty sum vanishes
        if multiset.total == 0:
            return ZeroCertificate(is_zero=True, pairing=())
        return ZeroCertificate(is_zero=False, violating_residue=0)
    half = 1 << (multiset.n - 1)
    counts = multiset.counts
    for r, c in counts.items():
        if c != counts.get(r ^ half, 0):
            return ZeroCertificate(is_zero=False, violating_residue=r)
    lower = sorted([r for r in counts if r < half])
    return ZeroCertificate(is_zero=True, pairing=tuple([(r, counts[r]) for r in lower]))


def float_sum(multiset: ResidueMultiset) -> complex:
    """Numeric value of the sum; diagnostic cross-check only.

    Capped at n <= FLOAT_EXPONENT_CAP so the angle 2*pi*r/2^n stays
    representable; beyond that, use the exact certificate.
    """
    if multiset.n > FLOAT_EXPONENT_CAP:
        raise FloatPrecisionError(
            f"floating evaluation supports n <= {FLOAT_EXPONENT_CAP}, got "
            f"n={multiset.n}; use is_exact_zero for the authoritative answer"
        )
    m = 1 << multiset.n
    return sum(
        c * cmath.exp(2j * math.pi * r / m) for r, c in multiset.counts.items()
    )


def vanishing_bound(g: int, w: int) -> int:
    """Exponent from which the orbit sum is guaranteed to vanish.

    Equals two_adic_valuation(w) + max(3, threshold_exponent(g)); for all
    n at or above it, S(g, w, n) = 0.
    """
    if w == 0:
        raise DomainError("orbit weight w must be nonzero")
    return two_adic_valuation(w) + max(3, threshold_exponent(g))


def check_orbit_vanishing(g: int, w: int, n: int) -> Verdict:
    """Assert S(g, w, n) = 0 whenever n >= vanishing_bound(g, w).

    Below the bound nothing is asserted (the sum may or may not vanish
    there).  At or above it, the collapse of the orbit to the odd part of
    w requires g != +-1 modulo 2^(n - d(w)); that guard is implied by the
    bound, and a failure of it would invalidate the whole argument, so it
    is reported as a counterexample too.
    Sweep claim id: theorem6.
    """
    return _orbit_vanishing(g, w, n)[0]


def _collapsed_exponent(g: int, w: int, n: int) -> Optional[int]:
    """m = n - d(w), the exponent the orbit collapses to, when n is at or
    above vanishing_bound(g, w); None below the bound."""
    bound = vanishing_bound(g, w)
    _require_exponent(n)
    if n < bound:
        return None
    return n - two_adic_valuation(w)


def _orbit_vanishing(g: int, w: int, n: int) -> Outcome:
    """A failed collapse guard is reported as such while the sum still
    vanishes, and otherwise by the residue that shows it does not."""
    m = _collapsed_exponent(g, w, n)
    if m is None:
        return Verdict.HYPOTHESIS_NOT_MET, None
    gm = canonical_residue(g, m)
    guard_holds = gm != 1 and gm != (1 << m) - 1
    orbit = residue_orbit(g, w, n)
    cert = is_exact_zero(orbit)
    if cert.is_zero and guard_holds:
        return Verdict.HOLDS, None
    if cert.is_zero:
        return Verdict.COUNTEREXAMPLE, (
            "exact zero (collapse guard failed)",
            "base not +-1 modulo the collapsed modulus",
        )
    r = cert.violating_residue
    half = 1 << (n - 1)
    return Verdict.COUNTEREXAMPLE, (
        f"count({r})={orbit.counts.get(r, 0)} != count({r ^ half})={orbit.counts.get(r ^ half, 0)}",
        "equal multiplicities on every antipodal residue pair",
    )


class MinVanishing(NamedTuple):
    """Least vanishing exponent and its distance below the guaranteed bound."""

    n: int
    slack: int


def min_vanishing_n(g: int, w: int, n_max: int) -> Optional[MinVanishing]:
    """Least n <= n_max with an exact-zero certificate, or None.

    Vanishing is not monotone in n (g=3, w=1 vanishes at n=2, fails at
    n=3, then vanishes from n=4 on), so every exponent is probed with a
    freshly built orbit.  slack = vanishing_bound(g, w) - n measures how
    far below the guaranteed bound the first zero appears; the bound's
    sharpness is an empirical observation only, nothing is asserted
    about minimality.
    """
    _require_exponent(n_max)
    bound = vanishing_bound(g, w)
    for n in range(1, n_max + 1):
        if is_exact_zero(residue_orbit(g, w, n)).is_zero:
            return MinVanishing(n=n, slack=bound - n)
    return None


def check_antipodal_shift(g: int, w: int, n: int) -> Verdict:
    """Shift symmetry of the orbit: half a collapsed period adds 2^(n-1).

    With w = 2^d * w0 (w0 odd) and m = n - d, the claim is
    w * g^(k + lag) = w * g^k + 2^(n-1) (mod 2^n) for every k, where
    lag = omega_g(2^m) / 2.  For odd w this is the plain half-period
    antipodal shift; for even w the lag collapses accordingly (at lag
    omega_g(2^n)/2 the identity is false for even w).

    Since w0 * g^k is an odd unit, the for-all-k statement is equivalent
    to the single congruence g^lag = 2^(m-1) + 1 (mod 2^m), which is what
    decides the verdict; the first min(lag, _SPOT_CHECKS) indices are also
    verified literally.  Hypothesis: n >= vanishing_bound(g, w).

    Both omega_g(2^m) and g^lag mod 2^m come from the squaring chain
    modulo 2^m that the order routes share.  That residue is enough for
    the spot checks too: w * x mod 2^n = 2^d * (w0 * x mod 2^m) depends
    only on x mod 2^m.
    """
    m = _collapsed_exponent(g, w, n)
    if m is None:
        return Verdict.HYPOTHESIS_NOT_MET
    omega, shift = _order_column(g, m, m)[0]
    if shift != (1 << (m - 1)) + 1:
        return Verdict.COUNTEREXAMPLE
    mask = (1 << n) - 1
    half = 1 << (n - 1)
    s = g & mask
    cur = w & mask
    ahead = w * shift & mask
    for _ in range(min(omega // 2, _SPOT_CHECKS)):
        cur = cur * s & mask
        ahead = ahead * s & mask
        if ahead != (cur + half) & mask:
            return Verdict.COUNTEREXAMPLE
    return Verdict.HOLDS

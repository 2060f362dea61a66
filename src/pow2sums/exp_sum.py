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

With w = 2^d * w0 (w0 odd) and m = n - d, the orbit is 2^d times the
coset w0 <g> modulo 2^m, each residue taken omega_g(2^n) / omega_g(2^m)
times, and adding 2^(n-1) adds 2^(m-1) to its cofactor, which commutes
with multiplying by the unit w0.  So S(g, w, n) = 0 exactly when the orbit
of 1 under g pairs modulo 2^m; for m <= 0 every term sits on 0 and no sum
vanishes.  Two exact routes decide that.  Up to LITERAL_EXPONENT_CAP <g>
mod 2^m is counted into a bytearray of 2^m one-byte counters, each 0 or 1
since the terms of an odd coset are distinct, and the odd residues are
compared with their antipodes as two byte slices (_paired).  Above it the
paper's congruence decides: S = 0 exactly when m >= 2 and the order
column's half-order residue g^(omega_g(2^m)/2) mod 2^m is 2^(m-1) + 1.
_vanishes, the decider of min_vanishing_n, picks the route and returns
the verdict alone.  A sum that does not vanish is named by its first
term, w * g mod 2^n; only the sweep reads its counts, from the table at g
and at its antipode (_offender).  orbit_certificate (the expsum command)
takes the same routes, and below the cap lists the coset w0 <g> mod 2^m
scaled by 2^d.  residue_orbit, is_exact_zero and float_sum build the
literal multiset, pair it and sum it in floating point; they are the
tests' reference only.

theorem6 takes a run, each g of a range with a run of weights at a run
of n: every order of a g comes from one squaring chain, the weights are
grouped by 2-adic valuation, and each met (g, m) is decided once on each
side of the cap, for every class met at n with n - d = m: up to the cap
a subgroup at a time, from one table of <g> mod 2^M at the largest met m
folded in place to each lower m (_folded), and above it by the
congruence (_orbit_vanishing).
check_antipodal_shift reads one congruence.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import core_arith
from .core_arith import (
    DomainError,
    _require_exponent,
    _require_odd,
    threshold_exponent,
    two_adic_valuation,
)
from .order_engine import _order_column, order_fast
from .verdict import Run, Verdict

# Beyond this exponent 2*pi*r/2^n loses the argument precision a float can
# carry; callers are directed to the exact certificate instead.
FLOAT_EXPONENT_CAP = 52

# Largest exponent decided from a dense table of 2^n counters, and the bound
# on the literal orbit: at most 2^(LITERAL_EXPONENT_CAP - 2) terms, the
# longest orbit modulo 2^LITERAL_EXPONENT_CAP.
LITERAL_EXPONENT_CAP = 22

class FloatPrecisionError(ValueError):
    """The floating cross-check was asked for an unrepresentable exponent."""


@dataclass
class ResidueMultiset:
    """Multiplicities of exponent residues in [0, 2^n); the exact sum.

    counts maps residue -> multiplicity >= 1; absent residues have
    multiplicity 0.  n = 0 (modulus 1, every root equal to 1) is allowed
    so the empty-sum edge case has a home; n is at most MAX_EXPONENT, like
    every modulus exponent.
    """

    n: int
    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.n <= core_arith.MAX_EXPONENT:  # read at call time
            raise DomainError(
                f"modulus exponent {self.n} outside [0, MAX_EXPONENT = {core_arith.MAX_EXPONENT}]")
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
    carries a different multiplicity.  orbit_certificate gives no pairing
    above LITERAL_EXPONENT_CAP.
    """

    is_zero: bool
    pairing: Optional[tuple[tuple[int, int], ...]] = None
    violating_residue: Optional[int] = None


def _require_orbit(g: int, w: int, n: int) -> None:
    _require_odd(g)
    if g in (-1, 1):
        raise DomainError(f"orbit base must be an odd integer outside {{-1, 1}}, got {g}")
    if w == 0:
        raise DomainError("orbit weight w must be nonzero")
    _require_exponent(n)


def residue_orbit(g: int, w: int, n: int) -> ResidueMultiset:
    """The multiset {w * g^k mod 2^n : k = 1..omega_g(2^n)}.

    One modular multiplication per term; the orbit length is the order of
    g, so cost grows with omega.  Requires odd g outside {-1, 1}, nonzero
    w, and omega <= 2^(LITERAL_EXPONENT_CAP - 2); a longer orbit raises
    DomainError before any term is built.
    """
    _require_orbit(g, w, n)
    m = 1 << n
    omega = order_fast(g, n).omega
    if omega > 1 << (LITERAL_EXPONENT_CAP - 2):
        raise DomainError(
            f"orbit of {g} modulo 2^{n} has {omega} terms; the literal orbit is "
            f"capped at 2^{LITERAL_EXPONENT_CAP - 2} terms "
            f"(LITERAL_EXPONENT_CAP = {LITERAL_EXPONENT_CAP})"
        )
    s = g % m
    cur = w % m
    counts: dict[int, int] = {}
    for _ in range(omega):
        cur = cur * s % m
        counts[cur] = counts.get(cur, 0) + 1
    return ResidueMultiset(n=n, counts=counts)


def is_exact_zero(multiset: ResidueMultiset) -> ZeroCertificate:
    """Decide S = 0 by antipodal multiplicity pairing; exact at every n.

    The sum vanishes exactly when the occupied residues below 2^(n-1)
    whose antipode carries the same count are half of all occupied
    residues: each is matched to a distinct upper residue, so then every
    residue is matched.  That is read from the lower residues alone.  Only
    a sum that does not vanish follows the multiset's own iteration order
    to name a violation, the first offender in construction order.
    """
    if multiset.n == 0:
        # modulus 1: every term is the root 1, so only the empty sum vanishes
        if multiset.total == 0:
            return ZeroCertificate(is_zero=True, pairing=())
        return ZeroCertificate(is_zero=False, violating_residue=0)
    half = 1 << (multiset.n - 1)
    get = multiset.counts.get
    items = multiset.counts.items()
    matched = [r for r, c in items if r < half and c == get(r | half)]
    if 2 * len(matched) == len(items):
        matched.sort()
        return ZeroCertificate(is_zero=True, pairing=tuple(zip(matched, map(get, matched))))
    r = next(r for r, c in items if c != get(r ^ half, 0))
    return ZeroCertificate(is_zero=False, violating_residue=r)


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


class OrbitCertificate(NamedTuple):
    """Everything the expsum command reports about S(g, w, n): the number of
    terms, the exact certificate, and the floating cross-check.  Above
    LITERAL_EXPONENT_CAP the certificate's pairing and the value are None."""

    terms: int
    certificate: ZeroCertificate
    value: Optional[complex]


def orbit_certificate(g: int, w: int, n: int) -> OrbitCertificate:
    """The orbit sum S(g, w, n) with its exact certificate.

    The terms and verdict of is_exact_zero(residue_orbit(g, w, n)), with no
    cap on the orbit.  Above LITERAL_EXPONENT_CAP _vanishes decides.  Up to
    it the pairing and the floating value come from the coset w0 <g> mod
    2^m scaled by 2^d, summed over its residues r in ascending order at the
    angles (2 pi / 2^n) r, an exact rescaling of fl(2 pi r) / 2^n, so only
    its last digits can differ from float_sum's.
    """
    _require_orbit(g, w, n)
    column = _order_column(g, 1, n)
    omega = column[-1][0]
    if n > LITERAL_EXPONENT_CAP:
        r = None if _vanishes(g, w, n, column) else w * g & ((1 << n) - 1)
        return OrbitCertificate(omega, ZeroCertificate(r is None, violating_residue=r), None)
    d = two_adic_valuation(w)
    m = n - d
    if m > 0:
        # r = s * 2^d for each odd s of the coset, in ascending order
        table = _orbit_table(g, w >> d, m, column[m - 1][0])
        residues = list(compress(range(1 << d, 1 << n, 2 << d), table[1::2]))
        paired = _paired(table)
    else:
        residues, paired = [0], False  # every term sits on 0
    # the omega terms share the residues evenly, and a coset's table counts 0 or 1
    k = omega // len(residues)
    if paired:
        # a vanishing sum pairs each occupied residue below half with one
        # above it, so the lower half holds exactly half of them
        cert = ZeroCertificate(True, tuple(islice(zip(residues, repeat(k)), len(residues) >> 1)))
    else:
        # the first term is unpaired in every sum that does not vanish (_offender)
        cert = ZeroCertificate(is_zero=False, violating_residue=w * g & ((1 << n) - 1))
    # rect(k, phi) forms the products of k * cmath.exp(2j * math.pi * r / 2^n)
    value = sum(map(cmath.rect, repeat(k), map(mul, repeat(2 * math.pi / (1 << n)), residues)))
    return OrbitCertificate(omega, cert, value)


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
    is reported as a counterexample too.  This is the run of one g, one
    weight and one n.  Sweep claim id: theorem6.
    """
    _require_exponent(n)
    # names w = 0, then an even g, then g = +-1, which the run counts as not met
    vanishing_bound(g, w)
    held, unmet, details = _orbit_vanishing(range(g, g + 1), (w,), range(n, n + 1))
    return Verdict.HOLDS if held else Verdict.HYPOTHESIS_NOT_MET if unmet else details[0][3][0]


def _orbit_vanishing(gs: range, ws: Sequence[int], ns: range) -> Run:
    """theorem6 on a run: each g of gs with each weight of ws at every n of
    ns.  g = +-1, and each n below a weight's bound, are not met; any other
    g reads one column, from exponent 1, or from the least m met when all of
    ns lies above LITERAL_EXPONENT_CAP.  S(g, w, n) depends on g and
    m = n - d(w) alone (_vanishes), so the weights are taken a valuation
    class at a time: each met (g, m) is decided once on each side of
    LITERAL_EXPONENT_CAP, and one step holds every weight of the classes
    met at m; only a reported weight is visited alone.  Above the cap the
    congruence decides, a g at a time.  Up to it the g are grouped once, at
    the largest met m, M: the first g left leads, the table of <g> mod 2^M
    holds each h of <g>, and each h of g's order there generates <g> mod
    2^M, hence mod every lower 2^m, and joins the group.  Folded in place to
    each lower met m in turn, the one table decides every h of the group
    met there.  One table is alive at a time.  A failed collapse guard,
    h = +-1 (mod 2^m), is reported while the sum vanishes, else the
    unpaired residue."""
    top = ns[-1]
    _require_exponent(top)
    classes: dict[int, list[int]] = {}  # d -> the weights w with d(w) = d
    for w in ws:
        classes.setdefault(two_adic_valuation(w), []).append(w)
    held = unmet = 0
    details = []
    orders = []  # (g, its bound at w = 1, its orders at exponents 1 to the cap)

    def met_at(m: int, lo: int, hi: int) -> tuple[list, int]:
        # the (n, class) with n = m + d in [lo, hi], and their number of weights
        at = [(m + d, c) for d, c in classes.items() if lo <= m + d <= hi]
        return at, sum(len(c) for _, c in at)

    def tally(runs: list, m: int, lo: int, at: list, met: int, paired: bool,
              table: Optional[bytearray]) -> None:
        # one decision at m for each (h, _, orders from lo) of runs and the met weights of at
        nonlocal held
        low = (1 << m) - 1
        for h, _, omegas in runs:
            if paired and h & low not in (1, low):
                held += met
                continue
            for n, c in at:
                k = omegas[n - lo] // omegas[m - lo]
                for w in c:
                    if paired:  # the collapse guard failed
                        detail = ("exact zero (collapse guard failed)",
                                  "base not +-1 modulo the collapsed modulus")
                    else:
                        r, count, antipode = _offender(h, w, n, k, table)
                        detail = (f"count({r})={count} != count({r ^ (1 << (n - 1))})={antipode}",
                                  "equal multiplicities on every antipodal residue pair")
                    details.append((h, n, w, (Verdict.COUNTEREXAMPLE, detail)))

    above = range(max(ns.start, LITERAL_EXPONENT_CAP + 1), ns.stop)
    above_at = {m: met_at(m, above.start, top) for m in {n - d for d in classes for n in above}}
    for g in gs:
        # g = +-1 meets no bound; a weight is not met at each n of ns below its
        # bound, vanishing_bound(g, w) = d(w) + vanishing_bound(g, 1)
        base = vanishing_bound(g, 1) if g not in (-1, 1) else top + 1
        unmet += sum(len(c) * (min(max(d + base, ns.start), ns.stop) - ns.start)
                     for d, c in classes.items())
        if min(classes, default=top) + base > top:
            continue
        # wholly above the cap, the least m met is ns.start less the largest d
        lo = 1 if ns.start <= LITERAL_EXPONENT_CAP else max(base, ns.start - max(classes))
        column = _order_column(g, lo, top)
        omegas = [row[0] for row in column]
        if lo == 1:  # only a run that reaches below the cap reads the orders to it
            orders.append((g, base, omegas[:LITERAL_EXPONENT_CAP]))
        # a met m is m >= base, at least 3 under theorem6's bound
        for m, (at, met) in above_at.items():
            if m >= base:
                tally([(g, base, omegas)], m, lo, at, met,
                      column[m - lo][1] == (1 << (m - 1)) + 1, None)
    cap = min(top, LITERAL_EXPONENT_CAP)
    # the met m in descending order, each with the classes met at m + d; a g
    # is met at m when its bound at w = 1 is <= m, so m >= 3 wherever one is
    below = {n - d for d in classes for n in range(ns.start, cap + 1)} or {0}
    below_at = [(m, *met_at(m, ns.start, cap)) for m in sorted(below, reverse=True)]
    top_m = below_at[0][0]
    runs = [run for run in orders if run[1] <= top_m]
    while runs:
        lead, _, omegas = runs[0]
        table = _orbit_table(lead, 1, top_m, omegas[top_m - 1])
        group, rest, low = [], [], len(table) - 1
        for run in runs:
            joins = run[2][top_m - 1] == omegas[top_m - 1] and table[run[0] & low]
            (group if joins else rest).append(run)
        runs = rest
        # a g met at m is met at every larger m
        for m, at, met in below_at:
            members = [run for run in group if run[1] <= m]
            if not members:
                break
            table = _folded(table, m)
            tally(members, m, 1, at, met, _paired(table), table)
        table = None
    return held, unmet, details


def _vanishes(g: int, w: int, n: int, column: Sequence[tuple]) -> bool:
    """Whether S(g, w, n) = 0; g, w and n are valid and column is
    _order_column(g, 1, n) or longer.  S vanishes exactly when <g> mod 2^m
    pairs, m = n - d(w).  Up to LITERAL_EXPONENT_CAP that is read from the
    table of <g> mod 2^m.  Above it, adding 2^(m-1) multiplies the coset
    w0 <g> by 1 + 2^(m-1): for m >= 2 an involution, which maps the coset
    onto itself exactly when it is the one involution g^(omega_m / 2) of
    the cyclic 2-group <g>, and else onto a disjoint coset, where the
    antipode counts 0; so every occupied residue is paired or none is."""
    m = n - two_adic_valuation(w)
    if n <= LITERAL_EXPONENT_CAP and m > 0:
        return _paired(_orbit_table(g, 1, m, column[m - 1][0]))
    # the congruence; at m <= 0 every term sits on 0
    return m >= 2 and column[m - 1][1] == (1 << (m - 1)) + 1


def _offender(g: int, w: int, n: int, k: int, table: Optional[bytearray]) -> tuple[int, int, int]:
    """(r, count(r), count(r ^ 2^(n-1))) for a sum S(g, w, n) that does not
    vanish, at its first term r = w * g mod 2^n, with k = omega_n / omega_m
    the count of each residue of the coset w0 <g> mod 2^m (_vanishes).  r's
    cofactor r >> d(w) is w0 * g mod 2^m, which w0's inverse maps to g, and
    the antipode's to g ^ 2^(m-1), so both are read from the table of <g>
    mod 2^m at g and at its antipode; with no table, from a sum whose
    antipodes are empty."""
    r = w * g & ((1 << n) - 1)
    if table is None:
        return r, k, 0
    s, half = g & len(table) - 1, len(table) >> 1
    return r, k * table[s], k * table[s ^ half]


def _orbit_table(g: int, w: int, n: int, omega: int) -> bytearray:
    """The orbit w * g^k mod 2^n, k = 1..omega, counted into 2^n one-byte
    counters.  w is odd, so the omega terms of the coset w <g> are distinct
    and each counter is 0 or 1; a count of 256 would raise, not wrap.  The
    caller has validated g, w and n, and omega is the order of g modulo 2^n."""
    mask = (1 << n) - 1
    s = g & mask
    cur = w & mask
    table = bytearray(mask + 1)
    for _ in range(omega):
        cur = cur * s & mask
        table[cur] += 1
    return table


def _folded(table: bytearray, m: int) -> bytearray:
    """The table of an odd coset w <g> mod 2^M folded in place to 2^m <= 2^M
    counters: g^k mod 2^m is (g^k mod 2^M) mod 2^m, so ORing each upper half
    into its lower half marks exactly w <g> mod 2^m, the bytes of
    _orbit_table(g, w, m, omega_m).  4 KiB blocks at a time, as ints; a
    block equal to its upper block is its own OR with it."""
    while len(table) > 1 << m:
        half = len(table) >> 1
        step = min(half, 4096)
        for i in range(0, half, step):
            lower, upper = table[i:i + step], table[half + i:half + i + step]
            if lower != upper:
                table[i:i + step] = (int.from_bytes(lower, "little")
                                     | int.from_bytes(upper, "little")).to_bytes(step, "little")
        del table[half:]
    return table


def _paired(table: bytearray) -> bool:
    """Whether each residue of the table of an odd coset mod 2^m
    (_orbit_table) carries the count of its antipode r + 2^(m-1), odd as
    well, so the odd residues are compared slice to slice.  At m = 1 the
    coset is {1}, whose antipode 0 is even: it never pairs."""
    half = len(table) >> 1
    return half > 1 and table[1:half:2] == table[half + 1::2]


class MinVanishing(NamedTuple):
    """Least vanishing exponent and its distance below the guaranteed bound."""

    n: int
    slack: int


def min_vanishing_n(g: int, w: int, n_max: int) -> Optional[MinVanishing]:
    """Least n <= n_max with an exact-zero certificate, or None.

    Vanishing is not monotone in n (g=3, w=1 vanishes at n=2, fails at
    n=3, then vanishes from n=4 on), so every exponent from d(w) + 2 on is
    probed with theorem6's decider, _vanishes, on one column.  Below
    d(w) + 2 every term sits on 0 or 2^(n-1), so no sum vanishes there.
    theorem6 puts a zero at vanishing_bound(g, w), so the column is walked
    that far; only past a bound whose zero failed is it walked on to n_max.
    slack = vanishing_bound(g, w) - n measures how far below the guaranteed
    bound the first zero appears; the bound's sharpness is an empirical
    observation only, nothing is asserted about minimality."""
    _require_exponent(n_max)
    bound = vanishing_bound(g, w)
    column = _order_column(g, 1, min(bound, n_max))
    for n in range(two_adic_valuation(w) + 2, n_max + 1):
        if n > len(column):
            column = _order_column(g, 1, n_max)
        if _vanishes(g, w, n, column):
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
    to the single congruence g^lag = 2^(m-1) + 1 (mod 2^m), and that
    congruence decides the verdict.  Hypothesis: n >= vanishing_bound(g, w).
    g^lag mod 2^m is the half-order residue of the squaring chain modulo
    2^m that the order routes share.
    """
    bound = vanishing_bound(g, w)
    _require_exponent(n)
    if n < bound:
        return Verdict.HYPOTHESIS_NOT_MET
    m = n - two_adic_valuation(w)
    shift = _order_column(g, m, m)[0][1]
    return Verdict.HOLDS if shift == (1 << (m - 1)) + 1 else Verdict.COUNTEREXAMPLE

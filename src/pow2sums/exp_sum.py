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
mod 2^m is counted into a table of 2^m counters and each odd residue is
compared with its antipode (_paired).  Above it the paper's congruence
decides: S = 0 exactly when m >= 2 and the order column's half-order
residue g^(omega_g(2^m)/2) mod 2^m is 2^(m-1) + 1.  _unpaired_run, the
decider of min_vanishing_n, picks the route and names a sum that does not
vanish by its first term, w * g mod 2^n, with the counts there and at its
antipode (_offender).  orbit_certificate (the expsum command) takes the same
routes, but below the cap counts the orbit itself into 2^n counters, since
its pairing lists the residues at n, and reads the pairing from the table's
lower half.  residue_orbit, is_exact_zero and float_sum build the literal
multiset, pair it and sum it in floating point; they are the tests'
reference only.

theorem6 takes a run, each g of a range with a run of weights at a run
of n: every order of a g comes from one squaring chain, and up to the cap
each m is decided a subgroup <g> mod 2^m at a time, from one table, for
every met (g, w, n) with n - d(w) = m (_orbit_vanishing).
check_antipodal_shift reads one congruence.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import mul, truediv
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

Unpaired = Optional[tuple[int, int, int]]


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
    cap on the orbit.  Up to LITERAL_EXPONENT_CAP the pairing is read from
    the orbit's table and the floating value summed over the occupied
    residues in ascending order, so only its last digits can differ from
    float_sum's; above it _unpaired_run decides and names the offender.
    """
    _require_orbit(g, w, n)
    column = _order_column(g, 1, n)
    omega = column[-1][0]
    if n > LITERAL_EXPONENT_CAP:
        unpaired = _unpaired_run(g, (w,), n, column)[0]
        r = None if unpaired is None else unpaired[0]
        return OrbitCertificate(omega, ZeroCertificate(r is None, violating_residue=r), None)
    table = _orbit_table(g, w, n, omega)
    m = len(table)
    # the occupied residues in ascending order, and their counts
    residues = list(compress(range(m), table))
    counts = list(filter(None, table))
    if _paired(table, w):
        # a vanishing sum pairs each occupied residue below half with one
        # above it, so the lower half holds exactly half of them
        k = len(residues) >> 1
        cert = ZeroCertificate(is_zero=True, pairing=tuple(zip(residues[:k], counts[:k])))
    else:
        # the first term is unpaired in every sum that does not vanish (_unpaired_run)
        cert = ZeroCertificate(is_zero=False, violating_residue=w * g & (m - 1))
    # rect(c, phi) is (c cos phi, c sin phi), the products that
    # c * cmath.exp(2j * math.pi * r / m) forms, at its angle fl(2 pi r) / m
    # and summed in the same order: the same bits without complex arithmetic;
    # the angles take the float steps of 2 * math.pi * r / m, mapped in C
    angles = map(truediv, map(mul, repeat(2 * math.pi), residues), repeat(m))
    value = sum(map(cmath.rect, counts, angles))
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
    g reads one column from exponent 1.  Above LITERAL_EXPONENT_CAP each
    (g, n) decides its met weights (_unpaired_run).  Up to it S(g, w, n)
    depends on g and m = n - d(w) alone (_unpaired_run), so each m is
    decided a subgroup at a time: the first g left leads, the table of <g>
    mod 2^m holds each h of <g>, each h of g's order there generates <g> and
    joins the group, and the one table decides every met (h, w, n) with
    n - d(w) = m.  One table is alive at a time.  A failed collapse guard,
    h = +-1 (mod 2^m), is reported while the sum vanishes, else the
    unpaired residue."""
    top = ns[-1]
    _require_exponent(top)
    ds = list(map(two_adic_valuation, ws))
    held = unmet = 0
    details = []
    orders = []  # (g, its bound at w = 1, its orders at exponents 1 to the cap)

    def tally(g: int, i: int, n: int, unpaired: Unpaired, low: int) -> None:
        nonlocal held
        if unpaired is None and g & low not in (1, low):
            held += 1
            return
        if unpaired is None:  # the collapse guard, low = 2^m - 1, failed
            detail = ("exact zero (collapse guard failed)",
                      "base not +-1 modulo the collapsed modulus")
        else:
            r, count, antipode = unpaired
            detail = (f"count({r})={count} != count({r ^ (1 << (n - 1))})={antipode}",
                      "equal multiplicities on every antipodal residue pair")
        details.append((g, n, ws[i], (Verdict.COUNTEREXAMPLE, detail)))

    for g in gs:
        # g = +-1 meets no bound; a weight is not met at each n of ns below its
        # bound, vanishing_bound(g, w) = d(w) + vanishing_bound(g, 1)
        base = vanishing_bound(g, 1) if g not in (-1, 1) else top + 1
        bounds = [d + base for d in ds]
        unmet += sum(min(max(bound, ns.start), ns.stop) - ns.start for bound in bounds)
        if min(bounds, default=top + 1) > top:
            continue
        column = _order_column(g, 1, top)
        orders.append((g, base, [row[0] for row in column[:LITERAL_EXPONENT_CAP]]))
        for n in range(max(ns.start, LITERAL_EXPONENT_CAP + 1), ns.stop):
            met = [i for i, bound in enumerate(bounds) if bound <= n]
            for i, unpaired in zip(met, _unpaired_run(g, [ws[i] for i in met], n, column)):
                tally(g, i, n, unpaired, (1 << (n - ds[i])) - 1)
    cap = min(top, LITERAL_EXPONENT_CAP)
    for m in sorted({n - d for d in set(ds) for n in range(ns.start, cap + 1)}):
        # the (i, n) with n - d(ws[i]) = m, met for each g whose bound at w = 1 is <= m
        at = [(i, m + d) for i, d in enumerate(ds) if ns.start <= m + d <= cap]
        runs = [run for run in orders if run[1] <= m]
        low = (1 << max(m, 0)) - 1
        while runs:
            lead, _, omegas = runs[0]
            table = _orbit_table(lead, 1, m, omegas[m - 1]) if m > 0 else None
            group, rest = [], []
            for run in runs:
                # at m <= 0 every term sits on 0, whatever the g
                joins = table is None or run[2][m - 1] == omegas[m - 1] and table[run[0] & low]
                (group if joins else rest).append(run)
            runs, paired = rest, table is not None and _paired(table, 1)
            for h, _, own in group:
                if paired and h & low not in (1, low):
                    held += len(at)
                    continue
                for i, n in at:
                    k = own[n - 1] // own[m - 1] if m > 0 else own[n - 1]
                    tally(h, i, n, None if paired else _offender(h, ws[i], n, k, table), low)
            table = None
    return held, unmet, details


def _unpaired_run(g: int, ws: Sequence[int], n: int, column: Sequence[tuple]) -> list[Unpaired]:
    """For each w of ws, None when S(g, w, n) = 0, else (r, count(r),
    count(r ^ 2^(n-1))) at the orbit's first term r = w * g mod 2^n
    (_offender); g, ws and n are valid and column is _order_column(g, 1, n)
    or longer.  S vanishes exactly when <g> mod 2^m pairs, m = n - d(w).  Up
    to LITERAL_EXPONENT_CAP that is read from the table of <g> mod 2^m, one
    table per m.  Above it, adding 2^(m-1) multiplies the coset w0 <g> by
    1 + 2^(m-1): for m >= 2 an involution, which maps the coset onto itself
    exactly when it is the one involution g^(omega_m / 2) of the cyclic
    2-group <g>, and else onto a disjoint coset, where the antipode counts
    0; so every occupied residue is paired or none is."""
    omega = column[n - 1][0]
    ms = [n - two_adic_valuation(w) for w in ws]
    found: list[Unpaired] = [None] * len(ws)
    for m in sorted(set(ms)):
        k = omega // column[m - 1][0] if m > 0 else omega
        table = None  # one table alive at a time
        if n <= LITERAL_EXPONENT_CAP and m > 0:
            table = _orbit_table(g, 1, m, column[m - 1][0])
            paired = _paired(table, 1)
        else:  # the congruence; at m <= 0 every term sits on 0
            paired = m >= 2 and column[m - 1][1] == (1 << (m - 1)) + 1
        if not paired:
            for i in [i for i, mi in enumerate(ms) if mi == m]:
                found[i] = _offender(g, ws[i], n, k, table)
    return found


def _offender(g: int, w: int, n: int, k: int, table: Optional[list[int]]) -> Unpaired:
    """(r, count(r), count(r ^ 2^(n-1))) for S(g, w, n) at its first term
    r = w * g mod 2^n, with k = omega_n / omega_m the count of each residue
    of the coset w0 <g> mod 2^m (_unpaired_run): read from the table of <g>
    mod 2^m, whose residue u * (r >> d) with u = w0^-1 mod 2^m is the
    cofactor's, or, with no table, from a sum whose antipodes are empty."""
    r = w * g & ((1 << n) - 1)
    if table is None:
        return r, k, 0
    mask, half = len(table) - 1, len(table) >> 1
    d = n - mask.bit_length()
    y, u = r >> d, pow(w >> d, -1, mask + 1)
    return r, k * table[u * y & mask], k * table[u * (y ^ half) & mask]


def _orbit_table(g: int, w: int, n: int, omega: int) -> list[int]:
    """The orbit w * g^k mod 2^n, k = 1..omega, counted into a list of 2^n
    counters.  The caller has validated g, w and n, and omega is the order
    of g modulo 2^n."""
    mask = (1 << n) - 1
    s = g & mask
    cur = w & mask
    table = [0] * (mask + 1)
    for _ in range(omega):
        cur = cur * s & mask
        table[cur] += 1
    return table


def _paired(table: list[int], w: int) -> bool:
    """Whether each residue of the table of w's orbit (_orbit_table) carries
    the count of its antipode.  Each term w * g^k has w's 2-adic valuation:
    with lo = w & -w below half, only the residues = lo (mod 2 lo) can be
    occupied, and their antipodes r + half lie in the same class, so the
    class is compared slice to slice.  At lo >= half every term sits on 0,
    or every term on half, and such a sum never vanishes."""
    half = len(table) >> 1
    lo = w & -w
    return lo < half and table[lo:half:2 * lo] == table[half + lo::2 * lo]


class MinVanishing(NamedTuple):
    """Least vanishing exponent and its distance below the guaranteed bound."""

    n: int
    slack: int


def min_vanishing_n(g: int, w: int, n_max: int) -> Optional[MinVanishing]:
    """Least n <= n_max with an exact-zero certificate, or None.

    Vanishing is not monotone in n (g=3, w=1 vanishes at n=2, fails at
    n=3, then vanishes from n=4 on), so every exponent from d(w) + 2 on is
    probed with theorem6's decider, _unpaired_run, on one column.  Below
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
        if _unpaired_run(g, (w,), n, column)[0] is None:
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

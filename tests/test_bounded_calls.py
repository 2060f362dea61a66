"""Every public call finishes in bounded time or raises a typed error.

One seeded hypothesis property draws signed ints of 1 to 4,095 bits and
exponents at the edges of the library's ranges, and calls every public
function and every CLI query subcommand on them.  run_sweep and
format_report are left out: their cost is the domain the caller asks for.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import time
from datetime import timedelta

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import pow2sums
from pow2sums import (
    DomainError,
    FloatPrecisionError,
    ScanBudgetExceeded,
    UsageError,
    cli,
    order_fast,
    residue_orbit,
)

TYPED = (DomainError, ScanBudgetExceeded, FloatPrecisionError, UsageError)

# CPU seconds one call may take.  The longest call in the drawn space is an
# expsum query at n = 22 with its full pairing, 1.1-1.3 s on 2 vCPU under
# CPython 3.11; in the seeded draws the slowest is a capped naive scan at
# n = 53, about 0.7 s
CPU_S = 3.0

EXPONENTS = [0, 1, 2, 3, 4, 21, 22, 23, 24, 52, 53, 64, 65, 511, 512, 513, 1024, 4095, 4096, 4097]

# half the draws are at most one word wide, where orbits are short enough
# to be walked and the CLI's records are long
signed = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.one_of(st.integers(1, 64), st.integers(1, 4095)).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)),
    st.booleans(),
)

# each public function on (g, w, n): a multiset argument is the orbit
# residue_orbit gives, built before the clock starts
CALLS = {
    "canonical_residue": lambda g, w, n: pow2sums.canonical_residue(g, n),
    "mod_pow": pow2sums.mod_pow,
    "odd_part": lambda g, w, n: pow2sums.odd_part(w),
    "threshold_exponent": lambda g, w, n: pow2sums.threshold_exponent(g),
    "two_adic_valuation": lambda g, w, n: pow2sums.two_adic_valuation(w),
    "check_antipodal_shift": pow2sums.check_antipodal_shift,
    "check_orbit_vanishing": pow2sums.check_orbit_vanishing,
    "float_sum": pow2sums.float_sum,
    "is_exact_zero": pow2sums.is_exact_zero,
    "min_vanishing_n": pow2sums.min_vanishing_n,
    "orbit_certificate": pow2sums.orbit_certificate,
    "residue_orbit": residue_orbit,
    "vanishing_bound": lambda g, w, n: pow2sums.vanishing_bound(g, w),
    "check_half_order_classification":
        lambda g, w, n: pow2sums.check_half_order_classification(g, n),
    "check_involution_membership": lambda g, w, n: pow2sums.check_involution_membership(g, n),
    "check_minus_one_case": lambda g, w, n: pow2sums.check_minus_one_case(g, n),
    "classify_involution": lambda g, w, n: pow2sums.classify_involution(g, n),
    "half_order_exponent": lambda g, w, n: pow2sums.half_order_exponent(g, n),
    "half_order_residue": lambda g, w, n: pow2sums.half_order_residue(g, n),
    "check_order_doubling": lambda g, w, n: pow2sums.check_order_doubling(g, n),
    "check_order_scaling": lambda g, w, n: pow2sums.check_order_scaling(g, n, w),
    "order_fast": lambda g, w, n: order_fast(g, n),
    "order_naive": lambda g, w, n: pow2sums.order_naive(g, n),
    "order_table": lambda g, w, n: pow2sums.order_table(g, n),
    "canonical_json": lambda g, w, n: pow2sums.canonical_json({"g": g, "rows": [[w, n]]}),
}

# each CLI query subcommand on (g, w, n), in every output format
QUERIES = {
    "order": ("--g={g}", "--n={n}"),
    "order-naive": ("--g={g}", "--n={n}", "--naive"),
    "order-table": ("--g={g}", "--n-max={n}"),
    "valuation": ("--w={w}",),
    "c": ("--g={g}",),
    "half-order": ("--g={g}", "--n={n}"),
    "expsum": ("--g={g}", "--w={w}", "--n={n}"),
    "min-vanishing-n": ("--g={g}", "--w={w}", "--n-max={n}"),
}


def test_every_public_function_and_query_is_drawn():
    public = {name for name in pow2sums.__all__ if inspect.isfunction(getattr(pow2sums, name))}
    assert set(CALLS) == public - {"run_sweep", "format_report"}
    assert {name.removesuffix("-naive") for name in QUERIES} == set(cli._QUERIES)


def timed(call, *args) -> tuple[float, object]:
    """CPU seconds of call(*args) and its result, None when it raised a
    typed error."""
    start = time.process_time()
    try:
        result = call(*args)
    except TYPED:
        result = None
    return time.process_time() - start, result


@seed(20261021)
@settings(max_examples=1000, deadline=timedelta(seconds=10), database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(sorted(CALLS) + sorted(QUERIES)), g=signed, w=signed,
       n=st.sampled_from(EXPONENTS), fmt=st.sampled_from(cli._FORMATS))
def test_every_public_call_is_bounded_or_raises_a_typed_error(target, g, w, n, fmt):
    if target in QUERIES:
        command = target.removesuffix("-naive")
        argv = [command, *(a.format(g=g, w=w, n=n) for a in QUERIES[target]), f"--format={fmt}"]
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        spent = time.process_time() - start
        # a query prints its record, or exits 2 with a one-line error
        assert (code, err.getvalue() == "") in ((0, True), (2, False)), (argv, err.getvalue())
    elif target in ("float_sum", "is_exact_zero"):
        try:
            orbit = residue_orbit(g, w, n)
        except TYPED:
            return
        spent, _ = timed(CALLS[target], orbit)
    else:
        spent, result = timed(CALLS[target], g, w, n)
        if target == "order_naive" and result is not None:
            # a scan that answers names the order the squaring chain finds
            assert result.omega == order_fast(g, n).omega, (g, n)
    assert spent < CPU_S, (target, g, w, n, spent)

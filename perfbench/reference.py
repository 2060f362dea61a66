"""A fixed pure-Python computation that gauges the machine's current speed.

The benchmark's host is shared: other tenants slow its vCPUs by up to 1.9x,
in stretches from seconds to minutes, and the slowdown shows in CPU time as
well as in wall time.  ``run.py`` runs ``reference`` right before and right
after every timed operation, and divides the operation's time by the mean of
the two reference times.  The quotient, times ``REFERENCE_S``, is the
operation's time at the reference speed: the speed at which ``reference``
takes ``REFERENCE_S`` seconds.

``reference`` uses nothing from pow2sums, so a change to the library moves
the operations and not the gauge.  Its mix follows the workloads': a tight
loop of small-integer arithmetic, dict and str building, and one big-integer
modular power.  It must never change: every figure in ``results/`` is in
units of it.
"""
from __future__ import annotations

import time

# About the fastest time of ``reference`` on the host of the baseline in
# ``results/`` (an Intel Xeon vCPU at 2.1 GHz, CPython 3.11.7), so that the
# figures read close to that host's seconds when nothing slows it.
REFERENCE_S = 0.05

_MODULUS = (1 << 4096) - 1


def reference() -> int:
    """Deterministic work of about REFERENCE_S seconds; returns a checksum."""
    acc = 0
    for g in range(3, 2000, 2):  # orders mod 2^12 by repeated multiplication
        x, k = g, 1
        while x != 1:
            x = x * g & 4095
            k += 1
        acc += k
    for base in range(0, 12000, 500):  # small tables, so the peak RSS stays put
        table = {}
        for i in range(base, base + 500):
            table[i * 2654435761 & 0xFFFFF] = (i, str(i))
        acc += len(table)
    return acc + (pow(3, 1 << 300, _MODULUS) & 0xFFFF)


def gauge() -> tuple[float, float]:
    """Wall and CPU seconds of one ``reference`` run in this process."""
    wall, cpu = time.perf_counter(), time.process_time()
    reference()
    return time.perf_counter() - wall, time.process_time() - cpu

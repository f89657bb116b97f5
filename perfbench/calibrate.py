"""Machine-speed calibration: a fixed kernel timed while the workload runs.

Shared machines change speed by a factor of two within a minute (the same
request took 0.26 s to 0.55 s on a 2-core VM), and the change is invisible to
process CPU time.  ``Sampler`` runs a short kernel from a SIGALRM handler
every ``INTERVAL_S`` of wall time, so its samples come from inside the
requests they calibrate.  The worker subtracts the handler's time from each
request and multiplies the rest by ``REFERENCE_S`` over the mean kernel time
seen during that request (or its pass), so times read as they would on a
machine where the kernel takes ``REFERENCE_S``.

The kernel uses no amcc code, so a change to amcc cannot move it.  Its two
halves are the operations amcc's hot paths spend their time on: big-integer
row updates as in the fraction-free simplex, and sums of ``Fraction``
products and bit-indexed accumulation as in the solution check and the
marginal tables.  Timed against the 8b scan and the parity enumeration
while the machine's speed changed, it cut the spread of per-request times
from 36% to 7% and from 14% to 3%.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

#: Kernel time, in seconds, on the machine the reported times refer to
#: (2-core x86-64 VM, Python 3.11.7, when not slowed by other tenants).
REFERENCE_S = 0.0015
INTERVAL_S = 0.05

_XS = tuple(Fraction(i % 5, i + 3) for i in range(12))
_BITS = tuple(int(i % 3 == 0) for i in range(64))
_PROBS = tuple(Fraction(i % 4, 16) if i % 3 else Fraction(0) for i in range(64))


def kernel():
    rows = [[(7 * i + 3 * j) % 11 - 5 + (i == j) * 13 for j in range(12)] for i in range(6)]
    den = 1
    for k in range(6):
        pivot = rows[k][k]
        for i in range(6):
            if i != k:
                factor = rows[i][k]
                rows[i] = [(a * pivot - factor * b) // den for a, b in zip(rows[i], rows[k])]
        den = pivot
    total = Fraction(0)
    for r in range(6):
        total += sum(Fraction((r + j) % 3) * x for j, x in enumerate(_XS))
    total += sum(a * p for a, p in zip(_BITS, _PROBS))
    total += sum(p * a for a, p in zip(_BITS, _PROBS))
    marginal = [Fraction(0)] * 4
    for i, p in enumerate(_PROBS):
        if p != 0:
            marginal[(i >> 2) & 3] += p
    return rows, total, marginal


def sample() -> float:
    """Seconds the kernel takes right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Times the kernel every ``INTERVAL_S`` of wall time while active.

    ``samples`` holds the kernel times; ``spent`` their sum, which callers
    subtract from the intervals they time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        duration = sample()
        self.samples.append(duration)
        self.spent += duration

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

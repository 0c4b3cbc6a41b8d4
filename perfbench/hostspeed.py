"""Correct measured times for the host's current speed.

The benchmark was tuned on a shared host whose speed drifts by 20-50% over
minutes: the same ``verify all`` took 3.4 s in one half hour and 5-6.8 s in
the next, with CPU time equal to wall time throughout.  Raw medians of 40-s
runs spread by 11-33% from run to run (quartile distance over median).

Each timed piece of work is therefore bracketed by a fixed pure-Python
reference kernel, and its time is scaled by ``REFERENCE_S`` over the mean of
the two kernel times.  On 118 consecutive ``verify all`` calls (8 minutes),
that brought the spread of 40-s window medians from 0.187 to about 0.05.
A corrected time reads as seconds on a host where the kernel takes
``REFERENCE_S``; the kernel belongs to the benchmark, so it is the same on
every commit compared.
"""

from __future__ import annotations

from time import perf_counter

# Seconds the kernel takes on the host corrected times are scaled to: a round
# figure near its typical 0.09-0.13 s on the tuning host (CPython 3.11.7).
REFERENCE_S = 0.1


def kernel_seconds() -> float:
    """Time one run of the reference kernel.

    Integer arithmetic plus small-tuple and dict work, the two kinds of work
    natforms' exact arithmetic spends its time on.  Tracking both followed
    the host's speed better than either alone.
    """
    start = perf_counter()
    total = 0
    for i in range(750_000):
        total += i * i
    table: dict[tuple[int, int, int], int] = {}
    for i in range(60_000):
        key = (i & 7, (i >> 3) & 7, i % 5)
        table[key] = table.get(key, 0) + 1
        total += sum(a + b for a, b in zip(key, (1, 0, 1)))
    return perf_counter() - start


def corrected(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Scale a time measured between two kernel runs to the reference speed."""
    return seconds * REFERENCE_S * 2 / (kernel_before + kernel_after)

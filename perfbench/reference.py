"""Machine-speed reference for the end-to-end figures.

On a shared host the CPU speed available to one process drifts: on a 2-core
x86-64 virtual machine the same seed's throughput moved by up to 1.6x
between runs minutes apart, while a fixed stdlib task interleaved with it
moved in step.  So every measured phase runs ``task`` RUNS times
before each slice of the workload (and before each set-up launch), and the
end-to-end timings are scaled to a machine on which one ``task`` takes
NOMINAL_S seconds.

The task is plain ``fractions.Fraction`` arithmetic shaped like the oracle's
inner loop (products of two short vectors, a descending sort, running sums).
It uses no qcatalyst code, so no change to the program can move it.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 5e-4
RUNS = 10

_VALUES = tuple(Fraction(k, 97 + k) for k in range(1, 17))


def task() -> Fraction:
    products = sorted((a * b for a in _VALUES[:8] for b in _VALUES[8:]), reverse=True)
    total = Fraction(0)
    for value in products:
        total += value
    return total


class Reference:
    """Accumulated timings of ``task`` over one measured phase."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.runs = 0

    def measure(self) -> None:
        start = perf_counter()
        for _ in range(RUNS):
            task()
        self.seconds += perf_counter() - start
        self.runs += RUNS

    def speed(self) -> float:
        """Machine speed relative to nominal: above 1 when ``task`` ran faster."""
        return NOMINAL_S * self.runs / self.seconds

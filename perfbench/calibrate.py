"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark was sized on a shared 2-vCPU VM whose speed changes by up to
1.8x for tens of seconds at a time, with CPU time slowing as much as wall time
(so neither clock can tell it apart from a change in the program). Timing this
loop next to every measured step gives that step's machine speed; ``scaled``
then turns a measured time into the time it would take at the speed at which
the loop takes ``reference_ms``.

The loop does the kind of work the workload does, which tracked it best of the
loops tried: stdlib big-integer ``Fraction`` arithmetic (the exact kernels) or,
with ``numpy=True``, numpy shuffles (the simulators). The numpy loop is only
for workloads that import numpy anyway, so that the loop adds neither numpy's
import time nor its memory to a workload. The loop uses neither tabaudit nor
anything a change to tabaudit could make faster or slower.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

#: What each loop takes on the VM the benchmark was sized on, in ms (rounded).
EXACT_REFERENCE_MS = 1.0
NUMPY_REFERENCE_MS = 1.0
REPEATS = 3             # odd, so the median is one of the timings


def _exact_part() -> Fraction:
    population, draws, successes, k = 800, 160, 80, 24
    upper = sum(math.comb(successes, x) * math.comb(population - successes, draws - x)
                for x in range(k, min(draws, successes) + 1))
    tail = Fraction(upper, math.comb(population, draws))
    acc = Fraction(1)
    for i in range(1, 50):
        acc = acc * Fraction(2 * i + 1, 3 * i + 7) + tail
    return acc


class ReferenceLoop:
    """The reference loop: its stdlib ``Fraction`` part, or with ``numpy`` its
    numpy part instead."""

    def __init__(self, numpy: bool = False):
        if numpy:
            import numpy as np

            rng, deck = np.random.default_rng(0), np.arange(1500)

            def numpy_part():
                for _ in range(30):
                    rng.shuffle(deck)

            self.part, self.reference_ms = numpy_part, NUMPY_REFERENCE_MS
        else:
            self.part, self.reference_ms = _exact_part, EXACT_REFERENCE_MS

    def ms(self) -> float:
        """Median of ``REPEATS`` timings of the loop, in ms."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            self.part()
            times.append((time.perf_counter_ns() - t0) / 1e6)
        return sorted(times)[REPEATS // 2]

    def scaled(self, measured: float, before_ms: float, after_ms: float) -> float:
        """``measured`` (any unit) at reference speed, given the loop's time
        just before and just after the measured step."""
        return measured * self.reference_ms / ((before_ms + after_ms) / 2)

"""Scale measured times to a reference machine speed.

The machine the benchmark was tuned on is shared, and its speed drifts by up
to 2x for tens of seconds at a time, far more than the bounds in
``BENCHMARK.json``.  So the benchmark times a fixed calibration kernel, which
calls nothing of `multiterm`, right before and after the work it measures,
and reports each time at the reference speed: measured seconds times
``REFERENCE_KERNEL_S`` over the mean of the two kernel times around it.  A
change to `multiterm` cannot move the kernel, so it moves the scaled times
as it moves the measured ones.

This module imports nothing of `multiterm`, so that it can time the import.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

# The calibration kernel's time at the reference speed: the median over
# minutes on the 2-core machine the benchmark was tuned on.
REFERENCE_KERNEL_S = 0.02
# Between ops, a kernel sample is taken when this long has gone by since the last.
CALIBRATE_EVERY_S = 0.25


def kernel() -> Fraction:
    """Fixed work in the style of `multiterm`: Fractions in a tuple-keyed dict.

    Its working set is about 1 MB.  On the tuning machine, the ratio of a
    region op's time to a kernel of this kind stayed within 4 % over 8 s
    windows while the op's own time moved by up to 60 %; a kernel of a few
    hundred Fractions did not follow the op's slowdowns.
    """
    table = {}
    for i in range(5000):
        table[(i, i % 97)] = Fraction(i, 7 + i % 5)
    return sum(table.values())


@dataclass
class Clock:
    """Calibration kernel times taken between pieces of measured work."""

    samples: list = field(default_factory=list)
    last: float = -math.inf

    def sample(self) -> int:
        """Time the kernel once; return the index of the sample."""
        # the collector would charge the kernel for walking the workload's heap
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            self.last = perf_counter()
        finally:
            gc.enable()
        self.samples.append(self.last - start)
        return len(self.samples) - 1

    def tick(self) -> int:
        """Sample if CALIBRATE_EVERY_S has gone by; the index of the latest sample."""
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Kernel time around the work between samples `index` and `index + 1`."""
        return (self.samples[index] + self.samples[index + 1]) / 2


def scaled_import_seconds() -> float:
    """Import time of the benchmark's workloads and `multiterm`, at the reference speed.

    Meant for a fresh process; the first kernel run warms the kernel up.
    """
    clock = Clock()
    clock.sample()
    before = clock.sample()
    start = perf_counter()
    import tracing, workloads  # noqa: F401  (the import is what is timed)
    seconds = perf_counter() - start
    clock.sample()
    return seconds * REFERENCE_KERNEL_S / clock.around(before)

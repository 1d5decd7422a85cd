"""Machine-speed probe: a fixed pure-Python loop timed between requests.

On a shared virtual machine the same code runs up to 1.6 times slower
in phases that last from under a second to minutes, so the median over
the passes of one run still moves by 10 to 25% from run to run. The
probe measures that speed where the work runs: between requests, about
every ``INTERVAL_NS``, it times ``reference_loop``. A pass's times are
then scaled by ``REFERENCE_S`` over the mean loop time during the pass,
which gives seconds on a machine where the loop takes exactly
``REFERENCE_S``. The loop never calls the package, so a change to the
package moves the scaled times by the same share as the raw ones. The
probe's own time is taken out of the pass it ran in.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter_ns, process_time_ns

INTERVAL_NS = 250_000_000
REFERENCE_S = 0.010
LOOP_STEPS = 20_000


def _step(x, table):
    return table.get(x & 255, 0) + (x >> 5 & 3)


def reference_loop(steps=LOOP_STEPS):
    """Integer bit operations, dict and set updates, calls and small
    sorted lists: the kind of work the package does, on fixed data."""
    acc, table, seen, rows = 0, {}, set(), []
    for i in range(steps):
        x = (i * 2654435761) & 0xFFFFF
        acc ^= (x >> 3) | ((x << 1) & 0xFF)
        if x & 7 == 0:
            seen.add(x & 1023)
        table[x & 255] = _step(x, table)
        if i % 64 == 0:
            rows.append(sorted(seen)[:8])
    return acc, len(seen), len(rows)


def time_reference() -> int:
    """Nanoseconds of one reference loop, with the collector held off so
    that a collection the package's heap is due for is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        reference_loop()
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Reference timings of one pass, and the time they took."""

    def __init__(self):
        self.begin()

    def begin(self):
        """Start a pass: forget earlier samples and take one now."""
        self.samples = []
        self.spent_ns = 0
        self.spent_cpu_ns = 0
        self._last = 0
        self._sample()

    def tick(self):
        """Between two requests: take a sample if the last one is at least
        ``INTERVAL_NS`` old."""
        if perf_counter_ns() - self._last >= INTERVAL_NS:
            t0, c0 = perf_counter_ns(), process_time_ns()
            self._sample()
            self.spent_ns += perf_counter_ns() - t0
            self.spent_cpu_ns += process_time_ns() - c0

    def end(self) -> float:
        """End a pass with one more sample; return the factor that turns
        this pass's times into times at the reference speed."""
        self._sample()
        return REFERENCE_S * 1e9 / statistics.fmean(self.samples)

    def _sample(self):
        self.samples.append(time_reference())
        self._last = perf_counter_ns()

"""Correction of timings for the machine's changing speed.

On a small shared virtual machine the same Python loop can run 50% slower
for seconds to minutes while other tenants load the host, which would make
two sets of runs of the same code disagree by more than any useful bound.
A run therefore times a fixed probe, benchmark code that never changes with
the program, every ``EVERY_S`` seconds of operation time and after every
set-up, and reports each timing scaled to the reference speed:

    reported = measured × REFERENCE_S / (median of the WINDOW probes before
               and the WINDOW probes after the timing)

The probe scans a set of small frozen objects, the kind of work the
program's graph scans do.  It first reads a 4 MiB buffer so that it always
starts from the same cache state whatever ran before it, and runs with the
garbage collector off so that it never pays for the program's garbage.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.0012   # probe time at the reference speed (about its time here, unloaded)
EVERY_S = 0.05         # operation time between two probes
WINDOW = 3


@dataclass(frozen=True)
class _Edge:
    subject: str
    predicate: str
    object: str


class Probe:
    def __init__(self):
        self._edges = frozenset(_Edge(f"s{i % 101}", f"p{i % 13}", f"o{i}") for i in range(6000))
        self._flush = bytearray(4 << 20)
        self.positions = []   # operations timed before each probe
        self.times = []

    def sample(self, position: int) -> None:
        self._flush.count(1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            hits = 0
            for edge in self._edges:
                if edge.subject == "s17" and edge.predicate != "p0" and edge.object:
                    hits += 1
            self.times.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.positions.append(position)

    def scale(self, position: int, seconds: float) -> float:
        """``seconds`` timed just before the probe at ``position``, at the reference speed."""
        at = bisect_left(self.positions, position)
        window = self.times[max(0, at - WINDOW): at + WINDOW]
        return seconds * REFERENCE_S / statistics.median(window)

"""A fixed pure-Python task whose run time tracks the host's current speed.

On a shared host the speed of the CPU the benchmark gets drifts: a fixed
loop's time varies by a factor of two within seconds and the typical
level moves over minutes.  The benchmark runs this probe between timed
segments and scales each segment's times by ``REFERENCE_S / probe time``,
so a reported time reads as the time on a host where the probe takes
:data:`REFERENCE_S`.  The probe does the kinds of work the library does
(scanning a set of tuples for matching cells, dict and set updates with
tuple keys, bisecting sorted keys) and uses no library code, so a change
to the program cannot move it.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left

#: Probe time that maps to a scale factor of one: its typical time on the
#: 2-vCPU host the benchmark was defined on.
REFERENCE_S = 0.006


class HostProbe:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.rows = [tuple(rng.randrange(10_000) for _ in range(5)) for _ in range(6_000)]
        self.row_set = set(self.rows)
        self.anchors = [(column, self.rows[column * 97][column]) for column in range(5)]
        self.keys = sorted(row[0] for row in self.rows)

    def _work(self) -> int:
        anchors = self.anchors
        touched = {row for row in self.row_set if any(row[c] == v for c, v in anchors)}
        counts: dict[tuple, int] = {}
        for row in self.rows[:2_000]:
            key = (row[0] % 251, row[1] % 7)
            counts[key] = counts.get(key, 0) + 1
        found = sum(bisect_left(self.keys, row[2]) for row in self.rows[:2_000])
        return len(touched) + len(counts) + found

    def measure(self) -> float:
        """Seconds one run of the fixed task takes right now."""
        started = time.perf_counter()
        self._work()
        return time.perf_counter() - started

"""Host-speed normalisation: timings scaled to a reference interpreter speed.

The benchmark shares its machine with other tenants, and their load
changes how fast this process executes, not only how long it waits: on
a 2-vCPU host, a fixed pure-Python loop ran 1.6-1.8x slower in its worst
2 s window than in its best, CPU time drifting with wall time, and the
same fixed item list took 14.9-19.6 s from one run to the next.  Longer
runs do not average that away, because the drift is slower than a run.

So the benchmark measures the host's speed *while it runs*: right after
each timed span (an item, a set-up) it runs a fixed reference loop for a
quarter of the span's time, and reports the span as measured times the
reference rate over :data:`NOMINAL_UNITS_PER_S` -- seconds at the
nominal reference speed.  The rate is pooled from the samples on both
sides of the span.  Scaling each span by the rate measured next to it,
rather than by the run's average rate, follows the host's load as it
changes within a run; on recorded runs it halved the spread of the
median item time against a run-wide rate.  The reference loop does pure-Python integer,
list and dict work like the program's, and allocates nothing the
garbage collector tracks, so the program's heap cannot change its cost.
The raw timings are printed in the run metadata.
"""

from __future__ import annotations

import time
from typing import Tuple

#: Roughly the reference rate of a lightly loaded 2-vCPU host under
#: Python 3.11; only the scale of the reported timings depends on it.
NOMINAL_UNITS_PER_S = 30000.0

#: Reference time spent per second of measured work.
SHARE = 0.25

#: The reference sample taken before the first span.
FIRST_SAMPLE_S = 0.02

_TABLE = list(range(1024))
_COUNTS = dict.fromkeys(range(256), 0)


def _unit() -> int:
    """One reference unit (about 33 us at nominal speed)."""
    table, counts = _TABLE, _COUNTS
    total = 0
    for i in range(160):
        value = table[(i * 7) & 1023] ^ i
        counts[value & 255] = counts[value & 255] + 1 & 0xFFFF
        total += value % 13
    return total


def _reference(seconds: float) -> Tuple[int, float]:
    """Run reference units for ``seconds`` (at least one): units, time."""
    start = time.perf_counter()
    goal = start + seconds
    units = 0
    while True:
        _unit()
        units += 1
        now = time.perf_counter()
        if now >= goal:
            return units, now - start


class HostSpeed:
    """Scales timed spans to nominal host speed.

    Each span is scaled by the reference rate pooled from the samples on
    both sides of it: the one taken after the previous span (or when the
    object was made) and the one taken right after it.
    """

    def __init__(self) -> None:
        self._before = _reference(FIRST_SAMPLE_S)

    def scaled(self, busy_s: float) -> float:
        """``busy_s``, just measured, at nominal host speed."""
        after = _reference(SHARE * busy_s)
        units = self._before[0] + after[0]
        seconds = self._before[1] + after[1]
        self._before = after
        return busy_s * units / seconds / NOMINAL_UNITS_PER_S

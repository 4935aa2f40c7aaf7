"""The host-speed control: a fixed stdlib workload timed next to the program's.

The benchmark runs on a few cores of a shared host whose speed moves by up
to 2x, in phases that last from seconds to minutes, with CPU time moving
as much as wall time.  A run that falls in a slow phase would read slow
however long it is.  So each benchmark interpreter times `control_s()` in
the same process right after set-up and right after each scenario, and
scales each phase's wall time by the controls on either side of it (set-up
has one) to the host speed at which the control takes REFERENCE_S seconds.  The control is the benchmark's own code: a change to
gctwistor cannot move it, so a change that makes a phase 10% slower makes
its scaled time 10% slower too.

The control mixes the kinds of work gctwistor does: `Fraction` products and
sums, and a dict keyed by small tuples.  It allocates little, so it does not
raise the interpreter's peak RSS.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The time scale of scaled figures: seconds on a host where the control takes
# 0.1 s.  On the 2-vCPU Xeon host the baseline was taken on it took 0.06-0.19 s.
REFERENCE_S = 0.1

_VALUES = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(64)]


def control_s() -> float:
    """Seconds this process takes for the fixed control workload now."""
    started = time.perf_counter()
    for _ in range(300):
        sum((a * b for a, b in zip(_VALUES, _VALUES[1:])), Fraction(0))
    table: dict[tuple[int, int], int] = {}
    for i in range(60000):
        key = (i % 61, i % 13)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - started


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time, scaled by the controls timed before and after it."""
    return seconds * 2 * REFERENCE_S / (before + after)

"""The machine's current speed, from a fixed pure-Python probe loop.

The benchmark runs on shared machines whose speed drifts by 10-30 %
between runs minutes apart (CPU frequency and neighbours). Measured on a
2-vCPU box, the probe's time and the time of wtoll requests run
alternately correlated at 0.99 over 5-second windows. So every timing is
reported at the reference speed: multiplied by ``REFERENCE_S / probe
time``, with the probe taken next to it. The probe is benchmark code,
so the program under test cannot change it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.002  # the probe's time at the reference speed
_STEPS = 6_000


def _loop() -> float:
    t0 = time.perf_counter()
    x = 1
    table: dict[int, int] = {}
    for i in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[i & 1023] = x ^ (x >> 7)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the fixed probe loop takes right now (about 2 ms): the
    middle one of three runs, so that one interrupt does not count."""
    return sorted(_loop() for _ in range(3))[1]


def factor(before: float, after: float) -> float:
    """Scale for a timing taken between two probes."""
    return REFERENCE_S / ((before + after) / 2)

"""Host speed, sampled between ops, so that times do not follow the host's drift.

The benchmark runs on shared hosts whose speed drifts by 20-30 % over
seconds to minutes, in CPU time as much as in wall time.  A fixed kernel
of pure-Python work, of the two kinds the program does (small-integer
loops and big-integer arithmetic), is timed after every op.  An op's wall
time is scaled by REFERENCE_S over the mean of the two kernel times that
bracket it: the result is the time the op would take on a host where the
kernel takes REFERENCE_S.  The kernel does not touch the program, so a
change to the program moves the corrected time as much as the wall time.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.004  # the kernel's time on the host the baseline was measured on

_BIG = (1 << 3000) // 7
_MODULUS = (1 << 2900) + 12345


def kernel() -> int:
    """About 2 ms of small-integer loop and 2 ms of 3000-bit products."""
    s = 0
    for i in range(22000):
        s += i * i % 7
    x = _BIG
    for i in range(70):
        x = x * (_BIG + i) % _MODULUS
    return s + x


def kernel_seconds(repeats: int = 1) -> float:
    """Median wall time of `repeats` runs of the kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Corrects wall times by the kernel times sampled before and after them."""

    def __init__(self, repeats: int = 1):
        self.repeats = repeats
        kernel()  # warm
        self.last = kernel_seconds(repeats)
        self.factors: list[float] = []

    def correct(self, wall: float) -> float:
        """`wall` seconds, measured since the last sample, at reference speed."""
        now = kernel_seconds(self.repeats)
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return wall * factor

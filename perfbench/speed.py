"""The speed of the box, sampled while the benchmark runs, by a fixed reference loop.

On a shared box the speed of one core moves by 40% and more within a minute,
as neighbours come and go, so raw op times spread between runs of the same
code by more than any useful bound.  While the timed phase runs, a wall-clock
timer (SIGALRM) interrupts the process every ``EVERY_S`` and times one short
loop of plain integer arithmetic; ops and set-ups are timed net of those
samples.  Each op or set-up is then scaled to the reference speed, the speed
at which one loop takes ``REF_S``: its time is multiplied by ``REF_S`` over
the median of the samples taken during it, or of the ``WINDOW`` samples
nearest to it if it was too short to hold that many.  The loop does not call
sqfdepth, so a change to the package moves scaled times as it moves raw ones.
Measurements behind these choices are in DESIGN.md.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

REF_S = 1e-3  # the reference speed: one loop in 1 ms
LOOP_N = 12000  # about 1 ms on a 2-CPU box at its usual speed
EVERY_S = 0.02  # timer period: the samples take about 5% of the time
WINDOW = 15  # fewest samples behind one factor: about 0.3 s around a short op


def reference_loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i
    return s


class Meter:
    """Speed samples, each the start time and duration of one reference loop."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0  # seconds spent in samples so far

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        reference_loop()
        took = perf_counter() - t
        self.starts.append(t)
        self.took.append(took)
        self.spent += took

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor to the reference speed for what ran from ``start`` to ``end`` (perf_counter)."""
        starts, n = self.starts, len(self.starts)
        if n == 0:
            raise RuntimeError("no speed samples were taken")
        lo, hi = bisect_left(starts, start), bisect_right(starts, end)
        mid = (start + end) / 2
        while hi - lo < min(WINDOW, n):  # widen towards the nearer remaining sample
            if lo > 0 and (hi == n or mid - starts[lo - 1] <= starts[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.median(self.took[lo:hi])

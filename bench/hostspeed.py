"""Host-speed probe: times measured at a fixed reference speed.

The benchmark runs on shared hosts whose speed moves by up to 2x from one
second to the next, and stays slow or fast for minutes at a time; the
process's CPU time moves with its wall time, so the slowdown is the
hardware's, not the scheduler's.  No statistic over one run's repetitions
removes a slow stretch that covers the whole run.

So while operations are timed, an interval timer interrupts the process
every ``INTERVAL_S`` seconds and runs a fixed pure-Python loop that belongs
to the benchmark, not to the program.  The time the loop takes says how fast
the host is at that moment.  A timed interval is reported without the time
the probes spent inside it, scaled by ``REFERENCE_S`` over the harmonic mean
loop time of the probes during the interval and the ``BEFORE`` probes before
it: that is, in seconds at the speed at which the loop takes ``REFERENCE_S``.
The harmonic mean is the loop time at the host's mean speed over the
interval, and work done is elapsed time times mean speed; an arithmetic mean
would let a few slow probes over-correct.  A change to the program moves
these times as it moves wall time; a change in the host's speed moves them
much less.
"""

from __future__ import annotations

import signal
import time
from statistics import harmonic_mean

INTERVAL_S = 0.03
# The loop's usual time on the reference host (see BASELINE.md), so that
# reported times are close to the wall times seen there.
REFERENCE_S = 0.0005
BEFORE = 4


def reference_loop():
    table = {}
    total = 0
    for i in range(2000):
        table[i & 255] = table.get(i & 255, 0) + i * 7
        total += i * i % 97
    return total


class SpeedProbe:
    """Context manager that probes the host's speed while it is active.

    A signal handler runs between two bytecodes of the main thread, so each
    probe lies wholly inside or wholly outside a timed interval.
    """

    def __init__(self):
        self.starts, self.costs, self.loops = [], [], []
        self._saved = None

    def _fire(self, signum=None, frame=None):
        clock = time.perf_counter
        start = clock()
        reference_loop()
        self.loops.append(clock() - start)
        self.starts.append(start)
        self.costs.append(clock() - start)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._fire)
        self._fire()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def mark(self):
        """Taken before the interval's start time is read."""
        return len(self.starts)

    def timed(self, mark, start, end):
        """The interval from ``start`` to ``end``, read after ``mark()``,
        without its probes, in seconds at the reference speed."""
        last = len(self.starts)
        stolen = sum(cost for at, cost in zip(self.starts[mark:last], self.costs[mark:last])
                     if start <= at < end)
        return (end - start - stolen) * REFERENCE_S / self.loop_time(mark, last)

    def loop_time(self, mark, last):
        """Harmonic mean loop time of the probes from ``BEFORE`` before
        ``mark`` up to ``last``."""
        return harmonic_mean(self.loops[max(0, mark - BEFORE):last])

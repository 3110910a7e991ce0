"""The machine's speed, measured beside the program, and times scaled by it.

The host is shared, and its speed drifts by a third or more over minutes,
as other tenants load it.  A fixed loop of small numpy calls and scalar
float math, like the package's inner loops (the reference loop: benchmark
code that no change to the package can touch), is timed in every child: at
its start, before every stage, after the last one and, when a period is
given, whenever that long has passed since the last loop ended.  Each
stretch of the child's time between two loops is then scaled by
``REFERENCE_S / d``, where ``d`` is the mean time of those two loops: the
result is the time the stretch would take on a machine that runs the loop
in ``REFERENCE_S`` seconds.  The loops themselves are left out of every
time.  The speed moves between a fast and a slow mode within a second, so
the loop is short and runs often (``PERIOD_S``), at a cost of about 4%.
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np

LOOP_ITERATIONS = 250
REFERENCE_S = 0.006  # about the loop's time on a 2-vCPU Xeon host
PERIOD_S = 0.15


def reference_loop() -> float:
    m = np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.linspace(0.0, 1.0, 64)
    v = np.ones(3)
    total = 0.0
    for k in range(LOOP_ITERATIONS):
        v = m @ v * 0.5 + np.exp(-x[:3])
        total += math.exp(-float(np.abs(v).sum())) * math.sqrt(1.0 + k)
        v = np.clip(v, -1.0, 1.0) + np.interp(0.3 + 1e-4 * k, x, x)
        total += float(np.max(x[k % 60:k % 60 + 4]))
    return total


class ReferenceClock:
    """Runs the reference loop and keeps its (start, end) times.

    With ``period_s``, a SIGALRM timer also runs it that long after the last
    loop ended.  Python runs the handler between bytecodes, so the program's
    work is not changed, only paused.
    """

    def __init__(self, period_s: float | None = None):
        self.samples: list[tuple[float, float]] = []
        self.period_s = period_s
        self._busy = False
        if period_s:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def sample(self) -> None:
        if self._busy:  # an alarm that arrives during a loop is dropped
            return
        self._busy = True
        try:
            start = time.monotonic()
            reference_loop()
            self.samples.append((start, time.monotonic()))
        finally:
            self._busy = False
            if self.period_s:
                signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def stop(self) -> None:
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.period_s = None


def scaled(start: float, end: float, samples: list[list[float]]) -> float:
    """``end - start`` at the reference speed, from the samples bracketing it.

    The interval must not overlap a sample.  Before the first sample or after
    the last one, the single nearest sample sets the speed.
    """
    near = ([e - s for s, e in samples if e <= start][-1:]
            + [e - s for s, e in samples if s >= end][:1])
    return (end - start) * REFERENCE_S * len(near) / sum(near)


def scaled_gaps(start: float, end: float, samples: list[list[float]]) -> float:
    """The time from ``start`` to ``end`` outside the samples, at the reference speed."""
    inside = [t for sample in samples if start <= sample[0] and sample[1] <= end
              for t in sample]
    edges = [start] + inside + [end]
    return sum(scaled(a, b, samples) for a, b in zip(edges[::2], edges[1::2]))

"""A clock that reads time as it would pass on a machine of fixed speed.

On a shared host this process does not run at one speed: it flips, every
few tens to hundreds of milliseconds, between states that differ by almost
twice, with the load of the host's other tenants, and all code slows or
speeds up alike.  A wall-clock rate then measures the neighbours as much as
the program.  ``SpeedSampler`` times a tiny fixed piece of reference work,
which does not use ``lpdist``, from a timer signal every ``PERIOD_S``
seconds of wall time, so its readings sample the process's speed evenly
over time.  The reference seconds of an interval are its wall time, less
the sampler's own time in it, times the mean speed read in it: the time the
interval's work would take on a machine that does ``NOMINAL_UNITS_PER_S``
units of reference work per second.  A change to ``lpdist`` moves the
workload's time and not the reference's, so it shows in full.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# reference units per second of the nominal machine: about what one core of
# a 2.0 GHz Xeon does in the slower of its two states
NOMINAL_UNITS_PER_S = 30000.0
READING_UNITS = 16  # units in one reading: about 0.5 ms on the nominal machine
PERIOD_S = 0.01  # wall time between readings

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
_B = np.array([1.0, 2.0, 3.0])
_M = np.arange(13 * 18, dtype=float).reshape(13, 18) % 7 + 1.0


def reference_work(units: int) -> float:
    """A fixed mix of what ``lpdist`` spends its time on: seeding Philox
    streams, small dense solves and products, and interpreted loops.
    One unit is one pass of the solve-and-loop body."""
    acc = 0.0
    for i in range(units // 4):
        acc += float(np.random.Generator(np.random.Philox(key=i)).standard_normal(3)[0])
    for i in range(units):
        x = np.linalg.solve(_A, _B + i * 1e-3)
        y = _M[:, i % 18] @ _M[:, (i + 1) % 18]
        z = int(np.argmin(_M[i % 13]))
        table = {}
        for j in range(20):
            table[j] = (j * i) % 7 + 0.5 * j
        acc += float(x[0]) + float(y) * 1e-6 + z + sum(table.values()) * 1e-9
    return acc


class SpeedSampler:
    """Readings of this process's speed, 1.0 being the nominal machine's.

    Use as a context manager: on entry it takes readings every ``period``
    seconds from ``SIGALRM``, on exit it stops the timer and puts the old
    handler back.  ``read`` takes one reading at once.
    """

    def __init__(self, units: int = READING_UNITS, period: float = PERIOD_S):
        self.units = units
        self.period = period
        self.starts, self.ends, self.speeds = [], [], []
        self._busy = False
        self._old_handler = None
        reference_work(units)  # warm caches and lazy imports before the first reading

    def read(self) -> None:
        if self._busy:  # a timer signal landed inside a reading
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_work(self.units)
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.speeds.append(self.units / (end - start) / NOMINAL_UNITS_PER_S)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.read()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``.

        Readings that lie wholly inside the interval give its mean speed,
        and their own time is taken off its wall time.  An interval too
        short to hold a reading uses the nearest reading on each side.
        """
        first = bisect.bisect_left(self.starts, start)
        stop = bisect.bisect_right(self.ends, end)
        if first < stop:
            inside = range(first, stop)
            own = sum(self.ends[k] - self.starts[k] for k in inside)
        else:
            if first == len(self.starts):
                self.read()
            inside = [k for k in (first - 1, first) if 0 <= k < len(self.starts)]
            own = 0.0
        speed = statistics.fmean(self.speeds[k] for k in inside)
        return (end - start - own) * speed

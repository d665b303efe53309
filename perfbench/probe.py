"""Host-speed probe.

On a shared virtual machine the speed of one vCPU swings by up to half
over seconds to minutes, as other tenants come and go; a job's wall
time and CPU time both swing with it.  Over ten 30-second runs of a
workload, the quartiles of a raw timing metric lay 9 to 27% of its
median apart; scaled as below, 4 to 12%.

The probe is a fixed piece of interpreted Python, small numpy linear
algebra and one mid-sized symmetric eigensolve, the three kinds of work
brakeindex jobs are made of.  It runs no brakeindex code, so a change to
the program cannot change it.  The benchmark scales each time it
reports by ``NOMINAL_S`` over the probe's time at that moment: the time
the work would take on a host that runs the probe in ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

# The probe's median wall time on a 2-vCPU x86-64 virtual machine with
# OpenBLAS on one thread.  A fixed constant: it only scales the metrics.
NOMINAL_S = 0.006
# how often a run samples the probe while jobs run
PERIOD_S = 0.2
REPEATS = 3

_rng = np.random.default_rng(20110759)
_SMALL = _rng.standard_normal((6, 6))
_SMALL = _SMALL @ _SMALL.T + 6.0 * np.eye(6)
_MID = _rng.standard_normal((160, 160))
_MID = _MID + _MID.T


def _kernel():
    total = 0
    for i in range(36000):
        total += (i * 7) % 13
    x = np.ones(6)
    for _ in range(300):
        x = np.linalg.solve(_SMALL, x + 1.0)
    w = np.linalg.eigvalsh(_MID)
    return total, x[0], w[0]


def probe():
    """(wall, cpu) seconds: the fastest of a few runs of the kernel, so a
    single preemption does not count."""
    best_wall = best_cpu = float("inf")
    for _ in range(REPEATS):
        t0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        best_wall = min(best_wall, time.perf_counter() - t0)
        best_cpu = min(best_cpu, time.process_time() - c0)
    return best_wall, best_cpu


class HostSpeed:
    """Samples the probe every ``PERIOD_S`` seconds while jobs run.

    A SIGALRM handler runs the kernel once between two bytecodes of
    whatever job is running.  ``clock`` and ``cpu_clock`` leave out the
    time spent in the handler, so a job timed by them does not pay for
    its samples; ``scale`` turns such a time into nominal seconds."""

    def __init__(self):
        self.at = []
        self.wall = []
        self.cpu = []
        self._spent_wall = 0.0
        self._spent_cpu = 0.0
        self._busy = False

    def clock(self):
        return time.perf_counter() - self._spent_wall

    def cpu_clock(self):
        return time.process_time() - self._spent_cpu

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        self.at.append(t0)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self._spent_wall += time.perf_counter() - t0
        self._spent_cpu += time.process_time() - c0
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample now, every PERIOD_S seconds inside the block, and at its end."""
        self.sample()
        saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, saved)
            self.sample()

    def scale(self, start, end):
        """(wall, cpu) factors to nominal seconds for work done between
        perf_counter times ``start`` and ``end``: NOMINAL_S times the mean
        inverse probe time of the samples taken inside the interval and of
        the nearest one on either side."""
        lo = max(bisect.bisect_right(self.at, start) - 1, 0)
        hi = min(bisect.bisect_left(self.at, end) + 1, len(self.at))
        wall, cpu = self.wall[lo:hi], self.cpu[lo:hi]
        return (NOMINAL_S * sum(1.0 / w for w in wall) / len(wall),
                NOMINAL_S * sum(1.0 / c for c in cpu) / len(cpu))

"""Machine-speed probe: times scaled to a reference speed.

On a shared host the same job can take 15 % longer from one minute to the
next because of other tenants, with no change in the process's own CPU
time share.  A fixed probe, a small numpy series loop plus scalar math like
the package's own hot loops, runs every 0.05 s from a SIGALRM handler in the
benchmark's single thread.  Each job's time is scaled by REFERENCE_S over
the mean probe time sampled within 1.5 s of it, so every reported time reads as
seconds on a machine where one probe takes REFERENCE_S.  The probe is this
file's own code, so at a given machine speed a change to the package moves
the scaled times in proportion to the raw ones.  Time spent inside the
probe is subtracted from the job it interrupted.
"""

import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

REFERENCE_S = 0.0006  # one probe on a quiet 2-vCPU x86-64 VM
INTERVAL_S = 0.05
_NUS = np.arange(120) * 0.7


def probe_once():
    t = np.exp(-_NUS)
    s = t.copy()
    for k in range(60):
        t = t * (9.0 / ((k + 1.0) * (_NUS + k + 1.0)))
        s += t
    acc = float(s.sum())
    for i in range(1, 1500):
        acc += math.exp(-i * 1e-4) * math.cos(i * 0.01)
    return acc


def calibrate(count=40):
    """Mean seconds of `count` back-to-back probes."""
    start = time.perf_counter()
    for _ in range(count):
        probe_once()
    return (time.perf_counter() - start) / count


class SpeedProbe:
    """Samples the probe every INTERVAL_S while active (a context manager).

    `busy` is the total time spent probing, for subtracting from a timed
    interval; `listener`, when set, is called with each probe's duration.
    """

    def __init__(self):
        self.at = []  # sample midpoints, increasing
        self.seconds = []
        self.busy = 0.0
        self.listener = None
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe_once()
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.seconds.append(end - start)
        self.busy += end - start
        if self.listener is not None:
            self.listener(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start, end, pad=1.5):
        """REFERENCE_S over the mean probe time sampled in [start - pad, end + pad].

        The host's speed drifts over seconds, while single probes scatter by
        tens of percent; the padding gives a short job dozens of samples."""
        lo, hi = bisect_left(self.at, start - pad), bisect_right(self.at, end + pad)
        window = self.seconds[lo:hi] or self.seconds
        return REFERENCE_S / statistics.fmean(window)

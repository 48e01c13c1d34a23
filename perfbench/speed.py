"""Machine-speed normalisation of timed intervals.

On a shared 2-vCPU host the core switches, on a scale of seconds, between
an uncontended state and a contended one about 1.8x slower, and the share
of each drifts from run to run and from minute to minute.  Raw wall times
follow that share: over ten seeds the interquartile range of median
latency reached 0.23 of its median, and a whole ten-run set could shift by
a third.

A fixed probe kernel, independent of posecorrect, runs from a SIGALRM
timer every ``INTERVAL_S`` seconds and records how long it takes.  A timed
interval is then reported as its wall time, minus the probes that ran
inside it, divided by the probe's slowdown around it: the mean probe time
in the interval (widened to at least ``WINDOW_S`` on each side of its
middle) over ``REFERENCE_PROBE_S``.  The result is the interval's duration
at the probe's reference speed.  Measured alternately with
``online-window`` calls, the ratio of call time to probe time stayed
within 2.0-2.1 while both varied by 60%.

Process CPU time is no remedy: the slow state slows the core, not only
the share of it the process gets, and on ``correct-forward`` the median
CPU time per operation spread by 0.17 of its median over five seeds, as
wall time did.

A known change of work passes through.  Operations alternating with the
same operation plus fixed extra work (about 15-25% of it; either long
numpy calls, which hold the timer's signal back until they return, or
pure interpreter work) gave variant/base ratios of median normalised time
within 0.01 of those of median process CPU time on every workload:
1.158/1.161 and 1.269/1.265 (``online-window``), 1.137/1.145 and
1.207/1.207 (``correct-forward``), 1.158/1.158 and 1.215/1.222
(``evaluate-all``).
"""
from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.1
# Typical probe time on a 2-vCPU Xeon virtual machine; it only sets the
# scale of the normalised figures.
REFERENCE_PROBE_S = 3.5e-4


def probe() -> float:
    """Fixed work mixing small numpy calls and Python float arithmetic,
    the mix the program's kernels are made of."""
    acc = 0.0
    for i in range(12):
        v = np.array((i * 0.1, 1.0, 2.0))
        w = np.cross(v, (0.5, 0.25, 1.0))
        acc += float(np.linalg.norm(w)) + math.sqrt(i + 1.0)
        acc += sum(j * 0.5 for j in range(20))
    return acc


class SpeedSampler:
    """Samples the probe from a timer between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _slice(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds spent in probes that started within ``[t0, t1)``."""
        return sum(self.durations[self._slice(t0, t1)])

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time around ``[t0, t1]`` over the reference; 1.0 when
        no probe ran near it."""
        mid, half = (t0 + t1) / 2.0, max((t1 - t0) / 2.0, WINDOW_S)
        near = self.durations[self._slice(mid - half, mid + half)]
        return sum(near) / len(near) / REFERENCE_PROBE_S if near else 1.0

    def normalise(self, t0: float, t1: float) -> float:
        """Duration of ``[t0, t1]`` without probes, at reference speed."""
        return (t1 - t0 - self.probe_time(t0, t1)) / self.slowdown(t0, t1)

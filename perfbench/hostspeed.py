"""Host-speed scaling of the benchmark's end-to-end times.

The benchmark was written on a 2-core VM whose cores are shared with
other tenants.  Its speed changes by up to 2x within seconds, in phases
that come and go, so two runs of the same code differ by more than a
real change would.  Scaling takes those phases out:

- While a workload runs, a timer interrupts it every ``INTERVAL_S``
  seconds of wall time and runs ``probe``: a fixed loop of 16-element
  numpy ``exp`` and sum calls, about 0.5 ms on a quiet host.  It is the
  kind of work stepopt does, and it calls no stepopt code, so a change
  to stepopt cannot change it.
- A timed interval loses the probe time that fell inside it, and the
  rest is divided by the host's slowdown over the interval: the mean
  probe time in a window around it, over ``REFERENCE_S``.  The window
  is the interval itself, widened to at least ``MIN_WINDOW_S``, so that
  a command of a few milliseconds is scaled by the probes around it.

A scaled time is the time the interval would take on a host that runs
the probe in ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# the probe's lower-quartile time on the quiet 2-core Xeon host of README.md
REFERENCE_S = 0.0005
MIN_WINDOW_S = 0.5

_X = np.linspace(0.0, 1.0, 16)


def probe() -> float:
    """Run the fixed probe loop once and return its wall time."""
    start = time.perf_counter()
    total = 0.0
    for i in range(200):
        total += float(np.exp(0.5 * _X).sum()) + 0.5 * i
    return time.perf_counter() - start


def scaled_time(starts, durations, start: float, end: float,
                reference: float = REFERENCE_S, min_window: float = MIN_WINDOW_S) -> float:
    """``end - start`` without the probes inside it, at the reference speed.

    ``starts`` (ascending) and ``durations`` describe the probes run so
    far.  The slowdown is the mean probe duration within the interval
    widened to ``min_window`` about its middle, divided by ``reference``.
    """
    inside = durations[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)]
    half = 0.5 * max(end - start, min_window)
    middle = 0.5 * (start + end)
    window = durations[bisect.bisect_left(starts, middle - half):
                       bisect.bisect_right(starts, middle + half)]
    if not window:
        raise ValueError("no probe ran near the interval")
    slowdown = sum(window) / len(window) / reference
    return (end - start - sum(inside)) / slowdown


class HostClock:
    """Runs ``probe`` on a timer while ``running`` and scales intervals by it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.durations.append(probe())

    @contextlib.contextmanager
    def running(self):
        probe()  # warm-up, so that no probe on the timer is the first call
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        return scaled_time(self.starts, self.durations, start, end)

    def slowdown(self) -> float:
        """Mean slowdown over every probe of the run."""
        return sum(self.durations) / len(self.durations) / REFERENCE_S

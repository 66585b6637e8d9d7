"""How fast the host runs interpreter-bound code, sampled on the same core.

On a shared host the same work can take anywhere from 1x to 1.8x its
best time: other tenants slow a core down for seconds at a time, and a
core's slowdown does not show on the other one.  A run cannot average
that out, and a probe timed on another core or at another moment does
not track it.

:class:`HostSpeed` arms a CPU-time interval timer.  About every 10 ms
of the process's own CPU time, the signal handler runs a fixed
pure-Python probe (dict, list and float work, like the program's own
hot loops) and records how long it took.  The probe therefore runs on
the core that runs the work, interleaved with it.  :meth:`slowdown`
turns the probes of a time window into a factor, and the benchmark
divides the window's measured time by it: times are reported at the
speed at which the probe takes ``PROBE_NOMINAL_S``.  A change to the
program moves the work and not the probe, so it still shows in full.
The probes cost about 1% of the CPU time they sample, the same on every
commit.

The probes see how fast a core runs, not how much of it the process
gets, so every timed block runs in the one process that arms the timer
(the campaign is served inline).  Two busy processes on two cores lose
half their speed to a third tenant and no probe shows it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
# Roughly the probe's time on an uncontended 2.0 GHz Xeon core; any fixed
# value serves, since commits are compared against each other.
PROBE_NOMINAL_S = 7e-5


def _probe():
    table = {}
    acc = 0.0
    for i in range(250):
        key = i & 31
        table[key] = table.get(key, 0) + 1
        acc += (i * 0.5) / (key + 1)
        acc -= [i, key, acc][-1] * 1e-9
    return acc


def burst():
    """Median of five back-to-back probes, in seconds."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Window:
    """Times a block: ``raw`` seconds as measured, ``seconds`` at the
    nominal host speed (``raw`` over the window's slowdown).

    ``bracket`` is for blocks too short, or too I/O-bound, for the
    timer's probes: a probe burst right before and right after the
    block measures the speed instead.  (A probe that fires as a mostly
    idle process wakes up runs with cold caches and overstates the
    slowdown.)
    """

    def __init__(self, speed, bracket=False):
        self.speed = speed
        self.bracket = bracket

    def __enter__(self):
        self._before = burst() if self.bracket else None
        self.begin = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = time.perf_counter() - self._start
        self.end = time.time()
        if self.bracket:
            slowdown = (self._before + burst()) / 2 / PROBE_NOMINAL_S
        else:
            slowdown = self.speed.slowdown(self.begin, self.end)
        self.seconds = self.raw / slowdown


class HostSpeed:
    """Probe samples of this process."""

    def __init__(self):
        self.samples = []  # (epoch seconds, probe seconds)

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        # Restart interrupted system calls (SQLite, pipes) instead of
        # failing them with EINTR.
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _probe()
        took = time.perf_counter() - start
        self.samples.append((time.time(), took))

    def window(self, bracket=False):
        return Window(self, bracket)

    def slowdown(self, begin, end):
        """Median probe time in ``[begin, end]`` over the nominal one.

        A window shorter than a few ticks borrows the nearest probes.
        """
        inside = [took for at, took in self.samples if begin <= at <= end]
        if len(inside) < 3:
            middle = (begin + end) / 2
            nearest = sorted(self.samples,
                             key=lambda s: abs(s[0] - middle))
            inside = [took for _, took in nearest[:5]]
        if not inside:
            return 1.0
        return statistics.median(inside) / PROBE_NOMINAL_S

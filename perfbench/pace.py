"""Paced time: wall-clock time corrected for the host's changing speed.

On a shared host the CPU does not run at one speed: a fixed loop of Python
arithmetic takes about 13 ms in some stretches and about 26 ms in others,
and the stretches last from a fraction of a second to minutes.  Plain wall
time then measures the host as much as the program.

``Pace`` runs a short fixed probe loop from a timer signal every
``INTERVAL`` seconds of wall time and records how long each probe took.
Between two probes, wall time is divided by the host's slowness there (the
median duration of the four nearest probes over ``REF_PROBE_S``).  The
result, in paced seconds, is the time the same work takes while the probe
runs in ``REF_PROBE_S``: about the time at the host's full speed.  Time
spent in the probes themselves is left out.

    pace = Pace()
    pace.start()
    ... t0 = time.perf_counter(); work(); t1 = time.perf_counter() ...
    pace.stop()
    paced = pace.at(t1) - pace.at(t0)

Timestamps are converted after ``stop``; the probes run between bytecodes
of the main thread, so the program under test needs no change.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.01
# The probe's duration at full speed on an Intel Xeon (2 vCPUs, Python 3.11):
# the median probe over stretches where the host ran fast.
REF_PROBE_S = 140e-6


def _probe_loop() -> Fraction:
    """A fixed amount of the work quadop does most: Fractions and dicts."""
    total, seen = Fraction(0), {}
    for i in range(1, 60):
        total += Fraction(i % 97 + 1, i % 89 + 1)
        seen[i % 100] = i
    return total


class Pace:
    def __init__(self):
        self.origin = 0.0
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._paced: list[float] = []  # paced time at the end of each probe
        self._rates: list[float] = []  # paced seconds per wall second after each probe
        self._previous = None
        self._busy = False
        self.running = False

    def _probe(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a probe is skipped
            return
        self._busy = True
        start = perf_counter()
        _probe_loop()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._busy = False

    def start(self) -> None:
        self.origin = perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.running = True

    def stop(self) -> None:
        """Stop the probes and put the previous SIGALRM handler back."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.running = False

    def _settle(self) -> None:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        if not durations:
            raise RuntimeError("no pace probe ran; the run was too short to pace")
        n = len(durations)
        # The stretch after probe k lies between probes k and k + 1.
        self._rates = [
            REF_PROBE_S / statistics.median(durations[max(0, k - 1):min(n, k + 3)])
            for k in range(n)
        ]
        total, previous_end = 0.0, self.origin
        for k in range(n):
            total += (self.starts[k] - previous_end) * self._rates[max(0, k - 1)]
            self._paced.append(total)
            previous_end = self.ends[k]

    def at(self, t: float) -> float:
        """Paced time from ``start`` to the wall-clock timestamp ``t``."""
        if not self._rates:
            self._settle()
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.origin) * self._rates[0]
        return self._paced[k] + max(0.0, t - self.ends[k]) * self._rates[k]

    def probe_share(self) -> float:
        """Share of wall time since ``start`` spent in probes."""
        busy = sum(e - s for s, e in zip(self.starts, self.ends))
        return busy / (self.ends[-1] - self.origin)

"""Host-speed-normalized time.

On a shared machine the core this benchmark runs on changes speed by up
to ~1.8x for seconds at a time (another tenant on the sibling hardware
thread), so raw wall-clock times of identical work spread by 15-40 %
between runs.  :class:`HostClock` measures that speed while the
benchmark runs: a ``SIGALRM`` timer fires every ``PERIOD`` seconds and
its handler times :func:`probe`, a fixed allocation-free Python loop.
The time of an interval ``[a, b]`` is then reported as

    (b - a) * mean(NOMINAL / probe)   over the probes taken in [a, b]

that is, in seconds of a host on which the probe takes ``NOMINAL``
seconds (about its speed on a quiet core of the reference machine in
README.md).  On a quiet host normalized and raw times agree; under
contention the raw time grows and the normalized one does not.  Raw
wall-clock times are printed beside every normalized one.

The probe costs about 30 us every 20 ms (0.15 %) and runs in whatever
Python code is executing, so it slows the program exactly as much in
the parent and in a change.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List

#: seconds between probes
PERIOD = 0.02
#: probe duration that defines one normalized second
NOMINAL = 30e-6


def probe() -> float:
    """Time 512 iterations of small-int arithmetic (no allocation that
    the garbage collector tracks, so no collection can land in it)."""
    started = time.perf_counter()
    x = 0
    for i in range(256):
        x = (x * 5 + i) & 255
    for i in range(256):
        x = (x * 5 + i) & 255
    return time.perf_counter() - started


class HostClock:
    """Samples host speed in the background of the calling thread."""

    def __init__(self):
        self.times: List[float] = []
        #: running sum of NOMINAL / probe, for O(log n) interval means
        self._cum: List[float] = [0.0]
        self._previous = None

    def _sample(self, signum, frame) -> None:
        at = time.perf_counter()
        factor = NOMINAL / probe()
        self.times.append(at)
        self._cum.append(self._cum[-1] + factor)

    def start(self) -> None:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def factor(self, a: float, b: float) -> float:
        """Mean ``NOMINAL / probe`` over the probes in ``[a, b]`` (the
        nearest probe when the interval holds none)."""
        lo = bisect.bisect_left(self.times, a)
        hi = bisect.bisect_right(self.times, b)
        if hi > lo:
            return (self._cum[hi] - self._cum[lo]) / (hi - lo)
        i = min(lo, len(self.times) - 1)
        if i > 0 and a - self.times[i - 1] < self.times[i] - b:
            i -= 1
        return self._cum[i + 1] - self._cum[i]

    def norm(self, a: float, b: float) -> float:
        """Normalized seconds between perf_counter stamps ``a`` and ``b``."""
        return (b - a) * self.factor(a, b)

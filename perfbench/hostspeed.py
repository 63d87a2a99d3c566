"""Host-speed calibration: express measured times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed changes in
steps of up to 1.8x, some lasting a tenth of a second and some tens of
seconds, with no steal time visible to the guest (process CPU time equals
wall time).  A run's wall time then measures the host's state as much as
the program.  So the benchmark times a short stdlib-only kernel
(``Fraction`` arithmetic and a tuple-keyed dict, like the library's exact
core, but none of the library's code) every ``INTERVAL_S`` seconds from a
timer signal, and counts each stretch of wall time between two samples at
``REFERENCE_S / k``, where ``k`` is the mean kernel time of those two
samples.  The time spent in the kernel itself is left out.  A change to
the library does not change the kernel, so every gain or loss of the
program shows in full; only the host's swings cancel.

``REFERENCE_S`` is the kernel's time in the host's fast state (a 2-vCPU
shared x86-64 VM, Python 3.11), so scaled times read as wall times in that
state.  Only the ratio matters: any constant gives the same comparisons.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.00009
INTERVAL_S = 0.02  # timer period while a Clock runs
REPEATS = 3  # kernel passes per sample; the median ignores one preemption


def _kernel() -> Fraction:
    total = Fraction(0)
    table = {}
    for i in range(1, 15):
        q = Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        total += q
        table[(i % 31, i % 7)] = table.get((i % 7, i % 31), q) + q
    return total


def sample() -> float:
    """Median seconds of one kernel pass, now."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(elapsed: float, before: float, after: float) -> float:
    """`elapsed` wall seconds at the reference speed, given the kernel
    samples taken just before and just after them."""
    return elapsed * REFERENCE_S / ((before + after) / 2)


class Clock:
    """A clock that reads seconds at the reference speed.

    While started, a timer signal samples the kernel every INTERVAL_S
    seconds of wall time; the process must not use SIGALRM otherwise.
    """

    def __init__(self):
        self.samples = []
        self._scaled = 0.0  # reference seconds up to the last sample
        self._first_k = self._last_k = sample()
        self._t0 = self._last_t = time.perf_counter()

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        k = sample()
        self._scaled += scale(t0 - self._last_t, self._last_k, k)
        self._last_t = time.perf_counter()
        self._last_k = k
        self.samples.append(k)

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Reference seconds since the clock was made; the stretch since
        the last sample is counted at that sample's speed."""
        while True:  # retry if a sample was taken while reading
            n = len(self.samples)
            t = self._scaled + (time.perf_counter() - self._last_t) * REFERENCE_S / self._last_k
            if n == len(self.samples):
                return t

    def since(self, t: float) -> float:
        """Reference seconds since ``time.perf_counter()`` read `t`, in this
        or another process; the stretch before the clock was made is counted
        at its first sample's speed."""
        return (self._t0 - t) * REFERENCE_S / self._first_k + self.now()

    def median_sample(self) -> float:
        return statistics.median(self.samples)

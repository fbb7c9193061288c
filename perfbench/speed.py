"""Machine-speed probe: rescales wall times to a reference machine speed.

The benchmark's host shares its cores, and its speed drifts by tens of
percent over seconds to minutes. Wall times of the same op then differ
more between runs than any bound allows. The probe measures that drift
while the ops run and divides it out.

While the probe is active, an interval timer (``SIGALRM``) runs a small
fixed kernel every ``INTERVAL_S`` seconds, between two bytecodes of the
op that is running, in the benchmark's one thread. The kernel does the
kind of work etcontrol does per step: small numpy products, Python float
arithmetic, number formatting and small lists and dicts. It never calls etcontrol, so a change
to etcontrol cannot change the kernel's time. The probe records when
each kernel ran and how long it took, and how much time the kernels took
in all, so that ``elapsed`` can take that time out of an op's wall time.

``calibrated`` rescales a wall time by ``KERNEL_REFERENCE_S`` over the
mean kernel time around it: the result is the time the span would
take on a machine where the kernel takes ``KERNEL_REFERENCE_S``.
"""

import bisect
import math
import signal
import statistics
import time

import numpy as np

# Seconds between two kernel runs while the probe is active.
INTERVAL_S = 0.1
# Kernel runs within this many seconds of a span rescale it.
WINDOW_S = 1.0
# The kernel's time at the reference speed: a round value at the slow end
# of its mean (1.5-2.5 ms) on the 2-core host where the baseline was
# recorded, so that calibrated times read as that host's slower wall times.
KERNEL_REFERENCE_S = 2.5e-3

_A = np.array([[-1.0, 0.2, 0.0, 0.0],
               [0.0, -2.0, 0.3, 0.0],
               [0.0, 0.0, -3.0, 0.1],
               [0.1, 0.0, 0.0, -4.0]])


def kernel():
    """Fixed work of about 2.5 ms: numpy, Python float and object steps."""
    x = np.ones(4)
    total = 0.0
    rows = {}
    for i in range(300):
        x = x + 0.01 * (_A @ x)
        total += math.sqrt(i + total % 3.0) * 1.0001
        rows[f"k{i % 50}"] = [i, f"{total:.6g}"]
    return float(x[0]), len(rows)


class SpeedProbe:
    """Runs ``kernel`` on a timer while active; see the module docstring."""

    def __init__(self):
        self.times = []
        self.durations = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self):
        """Run the kernel once and record when and how long."""
        start = time.perf_counter()
        kernel()
        duration = time.perf_counter() - start
        self.times.append(start)
        self.durations.append(duration)
        self.spent += duration

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def __enter__(self):
        for _ in range(3):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrated(self, seconds, start, end):
        """``seconds`` measured over [start, end], at the reference speed.

        Uses the mean time of the kernel runs within ``WINDOW_S`` of the
        span, or the last one before it when there are none. The mean,
        not the median, follows a machine that switches between a fast
        and a slow state during the span, as the span's own time does.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = lo - 1, lo
        local = statistics.fmean(self.durations[lo:hi])
        return seconds * KERNEL_REFERENCE_S / local

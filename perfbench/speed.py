"""Machine-speed meter for normalising wall times on a shared machine.

On a shared host the same single-threaded work can run 1.5x slower for
tens of seconds while neighbours are busy, which swamps any regression
bound. ``SpeedMeter`` runs a fixed reference kernel on a wall-clock timer
signal, in the main thread, while the work runs. ``normalise`` scales each
stretch of an interval's wall time between samples, less the kernel's own
time, by ``REFERENCE_S`` over the kernel's median time around it: the
time the work would have taken on a machine where the kernel takes
``REFERENCE_S``.
"""

import ast
import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3  # the kernel's time on the development VM at its usual speed
INTERVAL_S = 0.05
NEIGHBOURS = 5  # samples on each side that set a stretch's speed

_B = np.arange(64) % 7
_A = np.arange(20_000, dtype=np.int64)
_SNIPPET = (
    "def f(x):\n    for i in range(x):\n        if i % 2:\n            x += i\n"
    "    return [y * 2 for y in x]\n"
) * 3


def reference_kernel():
    """Fixed mix like codediv's: small and large numpy calls, dicts, ast.

    Each kind of work slows by a different share when the host is busy,
    so the kernel mixes the kinds that codediv's layers spend time in.
    """
    prev = np.zeros(65, dtype=np.int64)
    acc = 0
    seen = {}
    for i in range(40):
        cur = (prev[1:] + 1) * (_B == (i % 7))
        acc += int(cur.max())
        prev[:64] = cur
    for i in range(300):
        seen[i % 17] = seen.get(i % 17, 0) + i
        acc += len(str(i))
    for _ in ast.walk(ast.parse(_SNIPPET)):
        acc += 1
    for k in range(2):
        acc += int(((_A * 3) % 7 == k).sum())
    return acc


class SpeedMeter:
    """Samples the reference kernel every ``INTERVAL_S`` while active."""

    def __init__(self):
        self.stamps = []  # sample start times, increasing
        self.samples = []  # kernel seconds per sample
        self.spent = []  # running total of kernel seconds, per sample
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        self.stamps.append(start)
        self.samples.append(took)
        self.spent.append((self.spent[-1] if self.spent else 0.0) + took)

    def burst(self, count=20):
        """``count`` samples back to back, outside the timer."""
        for _ in range(count):
            self._tick(None, None)
        return self.samples[-count:]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_time(self, start, end):
        """Kernel seconds spent inside [start, end]."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        if hi == lo:
            return 0.0
        return self.spent[hi - 1] - (self.spent[lo - 1] if lo else 0.0)

    def work(self, start, end):
        """Wall seconds of [start, end] less the kernel's own samples in it."""
        return end - start - self.kernel_time(start, end)

    def normalise(self, start, end):
        """Reference-speed seconds of the work done in [start, end].

        The interval is cut at each kernel sample; each piece is scaled by
        the median of the ``NEIGHBOURS`` samples on either side of it, so
        a speed change in the middle of a long call is followed.
        """
        samples = self.samples
        if not samples:
            return end - start
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        total, t = 0.0, start
        for i in range(lo, hi + 1):
            cut = self.stamps[i] if i < hi else end
            near = samples[max(0, min(i, len(samples) - 1) - NEIGHBOURS) : i + NEIGHBOURS + 1]
            total += (cut - t) * REFERENCE_S / statistics.median(near)
            if i < hi:
                t = self.stamps[i] + samples[i]
        return total

"""Machine-speed sampler: scales measured wall times to one reference speed.

The reference machine is a shared 2-core VM whose speed drifts by up to 2x,
in stretches that last from a fraction of a second to minutes.  A stretch
often covers a whole run, so no choice among an op's repeats inside the run
filters it out: a 30-second window's fastest repeat of a 10 ms op moved
0.54-1.14x around its median.

A fixed calibration kernel (small numpy calls and plain Python arithmetic,
the mix of rigidlab's own inner loops) is therefore timed between any two
ops, and every ``PERIOD_S`` seconds from a ``SIGALRM`` handler while a
worker sets up and runs its ops.  A span's reference-speed time is its wall
time, minus the samples taken inside it, times the mean of
``REF_KERNEL_S / kernel time`` over the samples around it.  In a four-minute
test, the 30-second medians of seven ops moved 0.73-1.40x around their
overall median in raw time, and 0.60-0.77x once scaled.

The kernel runs no rigidlab code, so a change to the program moves the
scaled times and never the scale.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.1          # one sample every 0.1 s of wall time
WINDOW_S = 0.05         # a span's speed is the mean over the samples this close to it
REF_KERNEL_S = 1.5e-3   # the kernel's time at the reference speed: scaled times are
                        # wall times on a machine that runs the kernel in 1.5 ms

_A = np.array([[4.0, 1.0, 0.5, 0.0],
               [1.0, 3.0, 0.0, 0.5],
               [0.5, 0.0, 2.0, 1.0],
               [0.0, 0.5, 1.0, 3.0]])


def kernel() -> float:
    """Fixed work: 120 small numpy solves and 3000 float steps of Python."""
    x = np.arange(4.0)
    for _ in range(120):
        y = np.asarray([x[0], x[1], x[2], x[3]], dtype=float)
        x = x + 1e-3 * np.linalg.solve(_A, _A @ y)
    s = 0.0
    for i in range(3000):
        s += (i * 0.5) % 3.0
    return s + float(x.sum())


class Speedometer:
    """Samples the kernel's time while running; ``scaled`` converts spans."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._busy = False

    def sample(self, *_) -> None:
        """Time the kernel once.  A timer signal that arrives during a sample
        is dropped, so the samples stay in order and never overlap."""
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._busy = False

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Mean of ``REF_KERNEL_S / kernel time`` over the samples from
        ``WINDOW_S`` before ``t0`` to ``WINDOW_S`` after ``t1``, and at least
        over the last sample before ``t0`` and the first after ``t1``."""
        n = len(self.starts)
        lo = min(bisect.bisect_right(self.ends, t0 - WINDOW_S), bisect.bisect_right(self.ends, t0) - 1)
        hi = max(bisect.bisect_left(self.starts, t1 + WINDOW_S), bisect.bisect_left(self.starts, t1) + 1)
        lo = min(max(lo, 0), n - 1)
        hi = max(min(hi, n), lo + 1)
        return float(np.mean([REF_KERNEL_S / (self.ends[i] - self.starts[i]) for i in range(lo, hi)]))

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the span ``[t0, t1]`` of ``perf_counter``."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1)
        inside = sum(self.ends[k] - self.starts[k] for k in range(i, j))
        return (t1 - t0 - inside) * self.factor(t0, t1)

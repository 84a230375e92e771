"""Machine speed, measured with work that belongs to the benchmark.

On a shared host the same code runs up to 1.8x slower for minutes at a
time, because other tenants load the physical cores.  The benchmark
divides each end-to-end time by a slowdown measured next to it, so the
reported times are those of the reference machine (the 2-vCPU Xeon host
when it is quiet).  Two measures, for two kinds of timed work:

- in-process work (a library pair): the time of `kernel` over
  REFERENCE_S.  The kernel mixes interpreter work with small NumPy
  calls, as the package does;
- a fresh process (an `angles` process, a set-up probe): the wall time
  of a fresh `python3 speed.py`, which starts an interpreter, imports
  NumPy and runs the kernel, over REFERENCE_PROCESS_S.

Neither imports anything from the package, so a change to the package
cannot change them.

    python3 perfbench/speed.py

prints the mean kernel seconds measured by a freshly started process.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 3.0e-3   # the kernel's time on the 2-vCPU Xeon host when it is quiet
REFERENCE_PROCESS_S = 0.14   # spawn to exit of `python3 speed.py` there
EVERY_S = 0.04         # one kernel run per this much timed work

_X = np.linspace(-1.0, 1.0, 256)


def kernel() -> float:
    s = 0.0
    for i in range(60):
        a = np.flatnonzero(_X[(i * 7) % 200:(i * 7) % 200 + 48])
        b = np.bitwise_xor.outer(a[:24], a[:24])
        v = np.outer(_X[a[:24]], _X[a[:24]])
        out = np.zeros(64)
        np.add.at(out, b & 63, v)
        s += float(out @ out)
        s += math.sqrt(abs(float(np.where(out > 0, 1.0, -1.0).sum())) + 1.0)
        d = {}
        for j in range(16):
            d[j] = (j * 0.5, i)
            s += d[j][0] * 1e-3
    return s


class Speed:
    """Kernel timings taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.pending = 0.0

    def measure(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)

    def after(self, seconds: float) -> None:
        """Account for `seconds` of timed work: one kernel per EVERY_S of it."""
        self.pending += seconds
        if self.pending >= EVERY_S:
            self.measure(int(self.pending / EVERY_S))
            self.pending = 0.0

    def slowdown(self, since: int = 0) -> float:
        """Mean time of the kernel runs from the `since`-th on over REFERENCE_S
        (> 1 on a slow machine)."""
        if len(self.samples) <= since:
            self.measure()
        return statistics.fmean(self.samples[since:]) / REFERENCE_S



def process_slowdown() -> float:
    """Spawn-to-exit time of a fresh `python3 speed.py` over REFERENCE_PROCESS_S."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], stdout=subprocess.DEVNULL, check=True,
                   timeout=120)
    return (time.perf_counter() - start) / REFERENCE_PROCESS_S


def mean_kernel_s(times: int = 10) -> float:
    """Mean kernel time after one untimed run, as measured by a process that just started."""
    kernel()
    fresh = Speed()
    fresh.measure(times)
    return statistics.fmean(fresh.samples)


if __name__ == "__main__":
    print(repr(mean_kernel_s()))

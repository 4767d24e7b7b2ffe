"""A fixed reference kernel that tells how fast the host runs right now.

The benchmark shares a 2-core host with other tenants.  While they run,
every instruction of this process is slower, by 1.5-2x for interpreter
work and more for cache-bound work, in episodes of a few seconds; a median
over a run moves with how much of the run they covered.  The harness
therefore times this kernel just before and just after every audit call
and scales the call's time by ``IDLE_S / (median of those kernel times)``:
the time the call would take on the host when the kernel runs at its idle
speed.

The kernel does not touch kcompress, so no change to the program moves
it.  It mixes the kinds of work the audits do: interpreter loops, small
objects and dicts, and small numpy calls, on a working set that fits the
first-level caches; a kernel that also walks a larger working set slows
down by more than the audits do when the host is busy, and over-corrects.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Fastest time of kernel() seen over 20000 calls (``python3
# perfbench/reference.py`` prints it) on a core of the 2-core Intel Xeon
# the baseline in README.md was measured on.  It only converts kernel
# units back to seconds; results compare across commits on one host, not
# across hosts.
IDLE_S = 4.05e-4


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class Reference:
    def __init__(self):
        self.xs = np.random.default_rng(0).random(4000)

    def kernel(self) -> float:
        """Seconds one run of the kernel takes."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc += i * i
        counts = {}
        for i in range(800):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        cells = [_Cell(i, -i) for i in range(200)]
        for cell in cells:
            acc += cell.a
        xs = np.sort(self.xs)
        np.searchsorted(xs, self.xs[:500])
        float((xs * xs).sum())
        return time.perf_counter() - t0

    def sample(self, n: int = 4) -> list:
        """n kernel times, after one untimed run that brings its data back
        into the caches an audit call has just filled."""
        self.kernel()
        return [self.kernel() for _ in range(n)]


def scale(seconds: float, kernel_times) -> float:
    """seconds, as they would read with the kernel at its idle speed."""
    return seconds * IDLE_S / statistics.median(kernel_times)


if __name__ == "__main__":
    ref = Reference()
    times = ref.sample(20000)
    print(f"kernel: min {min(times):.6e} s  median {statistics.median(times):.6e} s")

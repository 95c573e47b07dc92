"""Wall-clock timing corrected for the speed the shared host gives us.

On the 2-core sandbox this benchmark was built on, the host's cores
switch between a fast mode and one about 1.6 times slower, for seconds
at a time, whatever the benchmark does (perfbench/README.md has the
probe).  Medians of raw wall time then depend on how much of a run fell
in slow phases, and moved by a third between runs of the same code.

``HostClock`` removes that factor.  Every ``SEGMENT_S`` of measured work
it times a fixed pure-Python kernel, and converts the wall time of the
segment in between to reference seconds by ``KERNEL_REF_S / kernel``,
the mean of the ratios taken at the segment's two ends.  Kernel time is
never part of a measured interval.  The result is in units of kernel
speed: on the reference host in its fast mode it equals raw wall time,
and on any host (or interpreter) that is uniformly k times faster or
slower it reads the same, because the scale moves by k too.  A change
that speeds up the kernel as much as the program does not show in it;
``run.py`` prints the plain wall time alongside.
"""

from __future__ import annotations

import statistics
from time import perf_counter

SEGMENT_S = 0.02  # measured work between two calibrations
KERNEL_REF_S = 0.0021  # kernel time in the fast mode of the reference host
WINDOW = 3  # kernel samples a speed estimate takes the median of


def kernel():
    """Fixed interpreter-bound work: string keys, tuples, a dict and a sort."""
    d = {}
    for i in range(3000):
        d[f"k{i}"] = (i * 7919 % 1009, str(i))
    return sorted(d.values())[0]


class HostClock:
    """Accumulates reference seconds over segments between calibrations.

    ``record`` takes raw durations measured inside the current segment;
    they are scaled when the segment closes, so read ``samples`` only
    after ``stop``.
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate  # off under tracing, whose spans would hold the kernel
        self.kernel_s: list[float] = []

    def _speed(self) -> float:
        if not self.calibrate:
            return 1.0
        t = perf_counter()
        kernel()
        k = perf_counter() - t
        self.kernel_s.append(k)
        return KERNEL_REF_S / statistics.median(self.kernel_s[-WINDOW:])

    def start(self):
        self.total = 0.0
        self.raw_s = 0.0  # the segments' plain wall time
        self.samples: list[float] = []
        self._pending: list[int] = []
        self._factor = self._speed()
        self._seg_start = perf_counter()

    def record(self, raw: float) -> int:
        """Add one raw duration of the current segment; returns its index."""
        self.samples.append(raw)
        self._pending.append(len(self.samples) - 1)
        if self.calibrate and perf_counter() - self._seg_start >= SEGMENT_S:
            self.checkpoint()
        return len(self.samples) - 1

    def checkpoint(self):
        seg = perf_counter() - self._seg_start
        factor = self._speed()
        scale = (self._factor + factor) / 2
        self.raw_s += seg
        self.total += seg * scale
        for i in self._pending:
            self.samples[i] *= scale
        self._pending.clear()
        self._factor = factor
        self._seg_start = perf_counter()

    def stop(self) -> float:
        """Close the last segment; the reference seconds since ``start``."""
        self.checkpoint()
        return self.total

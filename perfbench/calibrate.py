"""Rescale measured times to a reference machine speed.

On a shared virtual machine the speed of one vCPU changes by up to a factor
of two from one ten-second stretch to the next, because other guests contend
for the same physical core.  A twenty-second run can fall entirely in a slow
stretch, so raw wall times of identical runs differ by 15-30%.

The benchmark therefore samples a probe at op boundaries, no more often than
every ``INTERVAL_S``, and scales each op's wall time by a fixed reference
over the median probe time sampled within ``WINDOW_S`` of the op.  There
are two probes, both sharing nothing with superalg:

* ``kernel_time``: exact Gaussian elimination of a 7x7 Fraction matrix in
  this process, for ops that compute in the measuring process;
* ``spawn_time``: launching a bare interpreter (``python3 -S -c pass``), for
  ops that start a new interpreter, whose cost follows process start-up
  more closely than CPU speed.

A reported time is thus the time the op would take on a machine where the
probe takes its reference time.  A change to superalg does not touch the
probes, so its effect on the scaled times is the same as on raw times.  Raw
wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

KERNEL_REFERENCE_S = 0.0015
SPAWN_REFERENCE_S = 0.015
INTERVAL_S = 0.05
WINDOW_S = 0.5
_REPEATS = 3

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(7)]
           for i in range(7)]


def _kernel() -> None:
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]


def kernel_time() -> float:
    """Fastest of a few kernel runs: the current speed of this CPU."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def spawn_time() -> float:
    """Faster of two launches of a bare interpreter (no site, no imports)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        best = min(best, time.perf_counter() - start)
    return best


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the probes measure
    the CPU the ops run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Timeline:
    """Op latencies and probe samples, each with the time it was taken.

    The probe is ``kernel_time`` (reference ``KERNEL_REFERENCE_S``) for ops
    that compute in this process, or ``spawn_time`` (reference
    ``SPAWN_REFERENCE_S``) for ops that start a new interpreter, whose cost
    follows process start-up more closely than CPU speed.
    """

    def __init__(self, probe=kernel_time, reference: float = KERNEL_REFERENCE_S):
        self.probe, self.reference = probe, reference
        self.samples: list[tuple[float, float]] = []
        self.ops: list[tuple[float, float]] = []
        self._last = -INTERVAL_S

    def sample(self) -> None:
        """Take a probe sample unless one was taken in the last INTERVAL_S."""
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.samples.append((now, self.probe()))
            self._last = time.perf_counter()

    def op(self, start: float, end: float) -> None:
        self.ops.append((start, end))

    def raw(self) -> list[float]:
        return [end - start for start, end in self.ops]

    def scaled(self) -> list[float]:
        """Each op's latency times the reference over the median probe time
        sampled from WINDOW_S before the op until WINDOW_S after it.

        Callers sample before and after every op, so each window holds at
        least one sample.
        """
        if not self.samples:
            raise ValueError("no probe sample was taken")
        times = [t for t, _ in self.samples]
        out = []
        for start, end in self.ops:
            window = self.samples[bisect.bisect_left(times, start - WINDOW_S):
                                  bisect.bisect_right(times, end + WINDOW_S)]
            ref = statistics.median(k for _, k in window or self.samples)
            out.append((end - start) * self.reference / ref)
        return out

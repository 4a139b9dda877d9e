"""Host-speed probe for one benchmark pass.

On a shared host the cores can switch between a fast and a slow state:
on a 2-vCPU Intel Xeon host they were about 1.8x apart and switched every
second or so, each core on its own, in CPU time as much as in wall time,
and the share of slow time drifted over minutes.  Raw seconds on such a
host say more about the neighbours than about the code.

``Probe`` is a daemon thread in the pass's own process, which is pinned to
one CPU so that the probe and the pass share it.  Every ``INTERVAL_S`` it
times a fixed kernel of the kind that dominates gkverify (exact ``Fraction``
products summed into a dict keyed by exponent tuples).  ``Speed.seconds``
turns a stretch of the pass into seconds at the fast state's speed: each
gap between probe samples counts its length times ``K_REF_S / k``, where
``k`` is the kernel time measured around the gap and ``K_REF_S`` the
kernel time of the fast state.  The probe's own kernel time is left out.
On that host, lie_realization passes whose raw wall time ranged
10.6-14.4 s normalized to 7.7-7.9 s.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time
from fractions import Fraction
from typing import List, Tuple

INTERVAL_S = 0.05
CLOCK = time.monotonic
# Kernel time of the fast state on the reference host (2 vCPUs of an Intel
# Xeon); normalized seconds are seconds at that speed.
K_REF_S = 1.8e-3


def _operands(n: int = 5):
    a = [((i, j, i ^ j), Fraction(3 * i + 1, 2 * j + 3)) for i in range(n) for j in range(n)]
    b = [((i, j, i & j), Fraction(5 * j - 7, i + 2)) for i in range(n) for j in range(n)]
    return a, b


def kernel(a, b) -> dict:
    out: dict = {}
    get = out.get
    for ka, ca in a:
        for kb, cb in b:
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = get(key, 0) + ca * cb
    return out


def pin() -> int:
    """Pin this process to one CPU, so a probe thread measures the pass's CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe(threading.Thread):
    """Times the kernel every ``INTERVAL_S`` seconds until ``stop``."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: List[Tuple[float, float]] = []  # (kernel start, kernel end)
        self._done = threading.Event()
        self._ops = _operands()

    def run(self) -> None:
        a, b = self._ops
        samples = self.samples
        while True:
            start = CLOCK()
            kernel(a, b)
            samples.append((start, CLOCK()))
            if self._done.wait(INTERVAL_S):
                return

    def stop(self) -> "Speed":
        self._done.set()
        self.join()
        return Speed(self.samples)


class Speed:
    """The host speed along a pass, from the probe's (start, end) samples."""

    def __init__(self, samples: List[Tuple[float, float]]) -> None:
        self.samples = samples
        # Gaps between kernels, each with the mean kernel time at its ends;
        # the stretches before the first and after the last kernel take the
        # nearest kernel's time.
        s = samples
        k = [end - start for start, end in s]
        self.gaps = [(-math.inf, s[0][0], k[0])]
        self.gaps += [(s[i][1], s[i + 1][0], (k[i] + k[i + 1]) / 2) for i in range(len(s) - 1)]
        self.gaps.append((s[-1][1], math.inf, k[-1]))
        self._ends = [g[1] for g in self.gaps]

    def seconds(self, a: float, b: float) -> Tuple[float, float]:
        """(normalized, raw) seconds of ``[a, b]``, probe kernels left out."""
        norm = raw = 0.0
        for lo, hi, k in self.gaps[bisect.bisect_right(self._ends, a):]:
            if lo >= b:
                break
            span = min(hi, b) - max(lo, a)
            if span > 0:
                raw += span
                norm += span * K_REF_S / k
        return norm, raw

    def kernel_s(self) -> float:
        """CPU the probe itself spent, to take out of the process's CPU time."""
        return sum(end - start for start, end in self.samples)

    def host_factor(self) -> float:
        """Median kernel time over the reference: 1 on the fast state."""
        return statistics.median(end - start for start, end in self.samples) / K_REF_S

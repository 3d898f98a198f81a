"""Fixed reference kernel that measures the speed of the machine, not of
the program, so request times can be divided by it.

About half of its time is a loop of stdlib ``Fraction`` arithmetic and
about half is numpy work (FFTs along two axes of a 4-D complex array and a
run of small SVDs), matching the program's mix of pure-Python rationals and numpy. It
imports nothing from ``hkt4``.

Both halves work on data larger than the L2 cache (the Fractions are spread
over a long list, the FFT array is 8 MiB), as the program's requests do.
When the machine's speed drifts, a kernel whose data stays in cache speeds
up and slows down about half again as much as the requests, and divided
the drift into the metrics instead of out of them.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List

import numpy as np

# Sizes chosen so that each half takes roughly 15-20 ms on a 2-core x86 VM.
FRACTION_POOL = 30000
FRACTION_STEPS = 2000
FFT_SHAPE = (16, 16, 16, 16, 8)
SVD_COUNT = 150

# A kernel whose process CPU time exceeds its wall time by more than this
# share ran beside another busy thread of this process.
CPU_OVER_WALL = 1.25

_RNG = np.random.default_rng(20061114)
_FRACTIONS = [Fraction(int(a), int(b)) for a, b in
              zip(_RNG.integers(-10 ** 6, 10 ** 6, FRACTION_POOL),
                  _RNG.integers(1, 10 ** 6, FRACTION_POOL))]
# transformed in place, forward then back with the unitary norm, so the
# kernel allocates nothing and its data stays the same from pass to pass
_FFT_DATA = (_RNG.standard_normal(FFT_SHAPE)
             + 1j * _RNG.standard_normal(FFT_SHAPE))
_SVD_INPUT = (_RNG.standard_normal((SVD_COUNT, 7, 4))
              + 1j * _RNG.standard_normal((SVD_COUNT, 7, 4)))
# bound now, so that wrappers the traced run installs on numpy never time
# or slow the kernel
_fftn, _ifftn, _svd = np.fft.fftn, np.fft.ifftn, np.linalg.svd
_FFT_AXES = (0, 1)


def _fraction_part() -> Fraction:
    acc = Fraction(0)
    for i in range(FRACTION_STEPS):
        a = _FRACTIONS[(i * 7919) % FRACTION_POOL]
        b = _FRACTIONS[(i * 104729 + 13) % FRACTION_POOL]
        acc = a * b + (acc if acc.denominator < 1 << 80 else 0)
    return acc


def _numpy_part() -> float:
    _fftn(_FFT_DATA, axes=_FFT_AXES, norm="ortho", out=_FFT_DATA)
    _ifftn(_FFT_DATA, axes=_FFT_AXES, norm="ortho", out=_FFT_DATA)
    acc = 0.0
    for sym in _SVD_INPUT:
        acc += float(_svd(sym, compute_uv=False)[-1])
    return acc


@dataclass
class KernelTiming:
    wall_s: float
    cpu_s: float

    @property
    def cpu_bound(self) -> bool:
        """False when the process used more CPU than wall time, which means
        another thread of this process was busy during the kernel."""
        return self.cpu_s <= self.wall_s * CPU_OVER_WALL + 1e-3


def run_kernel() -> KernelTiming:
    """One timed pass of the reference kernel with the cyclic GC paused, so
    the program's garbage cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        _fraction_part()
        _numpy_part()
        t1, c1 = time.perf_counter(), time.process_time()
    finally:
        if was_enabled:
            gc.enable()
    return KernelTiming(wall_s=t1 - t0, cpu_s=c1 - c0)


@dataclass
class RefClock:
    """Collects reference-kernel timings through a run."""

    timings: List[KernelTiming] = field(default_factory=list)

    def sample(self, share_of_s: float) -> float:
        """One untimed pass, so that a request's data in the caches does not
        slow the timed ones, then timed passes (at least one) until their
        time reaches ``share_of_s``; returns their median wall time."""
        run_kernel()
        walls: List[float] = []
        while not walls or sum(walls) < share_of_s:
            timing = run_kernel()
            self.timings.append(timing)
            walls.append(timing.wall_s)
        return statistics.median(walls)

    @property
    def valid(self) -> bool:
        return all(t.cpu_bound for t in self.timings)

    def walls(self) -> List[float]:
        return [t.wall_s for t in self.timings]

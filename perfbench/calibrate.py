"""Host-speed calibration for the pass timings.

On a shared host the same pass ran up to 1.5x slower at one moment than
at another, and slow phases lasted from seconds to longer than a whole
run. So wall_s and cpu_s are scaled to a reference speed: a fixed unit
of work is timed in the same moments as the pass, and

    value = (pass seconds - unit seconds) * REFERENCE_UNIT_S / mean unit seconds.

The unit runs on SIGALRM every SAMPLE_INTERVAL_S of wall time, in the
process that runs the passes, between the program's bytecodes. A
program change cannot move the unit, so a faster or slower program moves
the scaled value by the same factor as the raw one, while a slower host
moves both the pass and the unit and cancels out.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.special

# About the mean unit time on the 2-vCPU host the benchmark was built on
# (1.4-2.5 ms), so that scaled values read close to seconds there.
REFERENCE_UNIT_S = 0.002
SAMPLE_INTERVAL_S = 0.1
WARMUP_UNITS = 50

_Z = np.linspace(-2.0, 2.0, 10)


def unit() -> int:
    """Small-array scipy calls and an interpreter loop: the mix the program
    spends most of its time in. No BLAS, so the program's BLAS threading
    cannot move it."""
    total = 0
    for _ in range(16):
        total += int(scipy.special.logsumexp(_Z) > 0)
    for i in range(2000):
        total += i * i % 7
    return total


def at_reference_speed(seconds: float, unit_s: float) -> float:
    return seconds * REFERENCE_UNIT_S / unit_s


class Sampler:
    """Times the unit on every SIGALRM while active; `take` hands over totals."""

    def __init__(self):
        self.count, self.wall_s, self.cpu_s = 0, 0.0, 0.0
        self._previous = None

    def _handle(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        unit()
        self.wall_s += time.perf_counter() - wall0
        self.cpu_s += time.process_time() - cpu0
        self.count += 1

    def take(self) -> dict:
        out = {"count": self.count, "wall_s": self.wall_s, "cpu_s": self.cpu_s}
        self.count, self.wall_s, self.cpu_s = 0, 0.0, 0.0
        return out

    def __enter__(self):
        for _ in range(WARMUP_UNITS):  # lazy imports and cold caches
            unit()
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

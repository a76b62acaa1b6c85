"""A fixed reference computation interleaved with the measured code.

The benchmark runs on shared hosts whose speed drifts in phases that can
outlast a run: the same pass of the same code took from 3.3 to 5.6 s of CPU
time within a few minutes on the 2-vCPU host where the benchmark was
defined.  No statistic within one run removes a phase that covers the whole
run.  So while a pass runs, a profiling timer interrupts it every few
milliseconds of CPU time and runs a short slice of fixed work that does not
touch the program (rational polynomial products, as the program's own
arithmetic is).  The slices share every phase with the program, and their
mean time gives the host's speed during that pass.

``scale`` turns a measured CPU time into seconds at the reference speed,
``NOMINAL_SLICE_S`` per slice: the CPU time times ``NOMINAL_SLICE_S`` over
the mean slice time while it was measured.  Time spent in the slices is
subtracted from every measured interval.  The speed of a host also changes
within a pass, in bursts of a fraction of a second, so ``scale_each``
scales each operation by the slices that ran in and around it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Spans and passes are timed in CPU time of the process's only thread: wall
# time also counts the time the process waits for a CPU.  The thread's clock,
# not the process's: while a process-wide CPU timer is armed, Linux reads the
# process clock from a counter that advances only on the scheduler tick.
CLOCK = time.thread_time

# CPU time between two slices.  The kernel delivers the timer on its tick
# (4 ms on the defining host), so a shorter interval fires no more often.
INTERVAL_S = 0.004
# Slices that scale one operation: about 0.1 s of CPU time around it.
WINDOW_SLICES = 25
# Mean time of one slice on the defining host (2-vCPU Intel Xeon, Python
# 3.11.7); the unit in which scaled times are given.
NOMINAL_SLICE_S = 0.0003

_X = tuple((d, Fraction(i + 1, 7 - d)) for i, d in enumerate(range(4)))
_Y = tuple((d, Fraction(3 - d, d + 2)) for d in range(4))


def reference_slice() -> dict:
    """Truncated products of small rational polynomials: fixed work."""
    acc: dict[int, Fraction] = {}
    for i in range(1, 5):
        step = Fraction(1, i)
        for a, u in _X:
            for b, v in _Y:
                if a + b <= 3:
                    acc[a + b] = acc.get(a + b, 0) + u * v * step
    return acc


class SpeedProbe:
    """Runs a reference slice on every tick of a profiling timer.

    ``spent`` is the CPU time spent in slices so far and ``slices`` their
    number; an interval measured by the caller subtracts the growth of
    ``spent``.  A probe that was never started reads 0 for both.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.slices = 0

    def _tick(self, signum, frame) -> None:
        start = CLOCK()
        reference_slice()
        self.spent += CLOCK() - start
        self.slices += 1

    def start(self) -> None:
        """Arm the timer; pair with ``stop``, or a late tick ends the process."""
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        """(clock, spent, slices) now, to measure an interval from."""
        return CLOCK(), self.spent, self.slices

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float, int]:
        """(CPU seconds outside the slices, seconds in slices, slices) since ``mark``."""
        clock, spent, slices = mark
        ref = self.spent - spent
        return CLOCK() - clock - ref, ref, self.slices - slices


def scale(seconds: float, ref_s: float, slices: int) -> float:
    """CPU seconds measured while ``slices`` slices took ``ref_s``, at the reference speed."""
    return seconds * NOMINAL_SLICE_S * slices / ref_s


def scale_each(times: list[float], refs: list[float], counts: list[int]) -> list[float]:
    """Each of a sequence of intervals at the reference speed.

    An interval is scaled by the slices of the shortest run of intervals
    centred on it that holds ``WINDOW_SLICES`` slices (all of them, if the
    sequence holds fewer): a long operation by its own slices, a short one
    by those of its neighbours.
    """
    n = len(times)
    total = sum(counts)
    need = min(WINDOW_SLICES, total)
    if need == 0:
        raise ValueError("no speed probe slice ran")
    out = []
    for i in range(n):
        lo, hi = i, i + 1
        ref, count = refs[i], counts[i]
        while count < need:
            if lo > 0:
                lo -= 1
                ref, count = ref + refs[lo], count + counts[lo]
            if hi < n and count < need:
                ref, count = ref + refs[hi], count + counts[hi]
                hi += 1
        out.append(scale(times[i], ref, count))
    return out

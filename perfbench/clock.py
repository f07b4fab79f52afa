"""Op times scaled to a fixed reference CPU speed.

The CPU speed of a shared machine drifts.  On the shared 2-vCPU Xeon
virtual machine the baseline in results/ was measured on, a fixed
pure-Python loop switched between two speeds about 1.8x apart every few
milliseconds, and the share of time spent at the slow speed drifted from
one second to the next: the raw wall time of one op repeated forty times
spread by 15-20 %.  So while an op runs, a timer signal every PERIOD_S
interrupts it to time ``kernel``, a fixed pure-Python calibration
workload of about 0.15 ms, and the op's time is scaled by REFERENCE_S
over the mean kernel time: each time is reported as it would read on a
machine where the kernel takes exactly REFERENCE_S.  The mean, not the
median, because an op's time grows linearly with the share of slow
samples.  The time spent in the signal handler is taken out of the op's
time.  One kernel sample is also taken just before and just after each
op, and an op with fewer than MIN_SAMPLES samples borrows those of its
neighbours.  Samples taken only around an op miss the changes of speed
within it: they leave an op-to-op spread of 11-14 % on 0.4 s ops, where
samples taken inside the op leave 3-5 %.  The raw wall times are kept in
the results file.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# About the kernel's mean time on the machine the baseline in results/
# was measured on, so scaled figures read close to its wall times.
REFERENCE_S = 0.0002

# Interval of the timer signal that samples the kernel inside an op.
PERIOD_S = 0.005

# An op with fewer kernel samples than this borrows those of the ops up
# to WINDOW places on either side.
MIN_SAMPLES = 8
WINDOW = 2


def kernel() -> Fraction:
    """Rational, integer, tuple, dict and set work: comring's staples."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, ...]] = set()
    for i in range(1, 40):
        acc += Fraction(i, i + 1)
        table[(i, i & 7)] = i * i
        seen.add(tuple(range(i & 15)))
    return acc


def sample() -> float:
    """Seconds one kernel run takes now.

    The collector is off meanwhile, so that the sample does not depend on
    the heap the program under test has built.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampling:
    """Times a block, less the time spent sampling the kernel inside it.

    With ``inside``, a timer signal every PERIOD_S takes one kernel sample
    into ``samples`` while the block runs.  The handler stays installed
    afterwards and does nothing, so a late signal cannot end the process.
    """

    current: Sampling | None = None

    def __init__(self, inside: bool = True) -> None:
        self.inside = inside
        self.samples: list[float] = []
        self.spent = 0.0
        self.seconds = 0.0

    def __enter__(self) -> Sampling:
        if self.inside:
            signal.signal(signal.SIGALRM, _tick)
            Sampling.current = self
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            Sampling.current = None
        self.seconds = perf_counter() - self.t0 - self.spent


def _tick(signum, frame) -> None:
    block = Sampling.current
    if block is not None:
        t0 = perf_counter()
        block.samples.append(sample())
        block.spent += perf_counter() - t0


def scale(seconds: float, samples: list[float]) -> float:
    """``seconds`` as they would read where the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


def scale_each(times: list[tuple[int, float]], samples: list[list[float]]) -> list[float]:
    """Scale (index, seconds) pairs, where ``samples[index]`` holds the
    kernel times taken before, inside and after that op."""
    out = []
    for i, t in times:
        pool, width = samples[i], 0
        while len(pool) < MIN_SAMPLES and width < WINDOW:
            width += 1
            pool = [s for group in samples[max(0, i - width): i + width + 1] for s in group]
        out.append(scale(t, pool))
    return out

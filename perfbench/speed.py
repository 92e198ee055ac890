"""The machine's speed, read from a fixed reference kernel.

On a shared 2-vCPU Intel Xeon virtual machine, a stretch of pure-Python,
`Fraction` or big-integer work takes 20-40% longer in one minute than in
the next.  Ten runs of the same code then spread by 0.2-0.3 of their
median (first to third quartile), wider than any bound a regression check
could use.

So the benchmark times a fixed reference kernel, which does not touch
dirspec, between operations, and scales every time it reports to a
machine on which one sample of the kernel takes `REFERENCE_S`.  The kernel
mixes the three kinds of work, because each drifts partly on its own.  On
that machine, twelve runs of torus-walls spread by 0.20-0.24 raw and by
0.04-0.06 scaled.  The raw times are the scaled times divided by the
scale factor, which `run.py` prints.

    python3 perfbench/speed.py     # prints samples of the kernel, in ms
"""
from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

# One sample takes 0.013-0.018 s on a 2-vCPU Intel Xeon virtual machine
# at Python 3.11, from its fast stretches to its slow ones; the scaled
# times read as times on that machine at a middle speed.
REFERENCE_S = 0.015
# Take a sample between operations once this much time has passed, and
# scale each operation by the samples nearest to it in time.
EVERY_S = 0.25
NEAREST = 7

_MASK = (1 << 120_000) - 1
_BIG = [random.Random(i).getrandbits(120_000) for i in range(24)]


def sample() -> float:
    """Seconds for one run of the kernel: an interpreter loop over small
    ints, `Fraction` sums, and the `a + q*b` row updates of Smith normal
    form on 120 000-bit integers, about a third of the time each."""
    t0 = time.perf_counter()
    s = 0
    for i in range(55_000):
        s += i * i % 7
    for i in range(1, 800):
        s += (Fraction(i % 97, i) + Fraction(i, 101)).numerator % 7
    big = _BIG[:]
    for i in range(500):
        big[i % 24] = (big[i % 24] + (i + 3) * big[(7 * i + 5) % 24]) & _MASK
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """The factor that turns times taken alongside `samples` into times on
    the reference machine."""
    return REFERENCE_S / statistics.median(samples)


def local_scales(refs: list[tuple[float, float]], at: list[float]) -> list[float]:
    """For each time in `at`, the scale factor of the `NEAREST` samples
    closest to it; `refs` holds (time taken, seconds) pairs in time order."""
    times = [t for t, _ in refs]
    out = []
    for t in at:
        i = bisect.bisect(times, t)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(refs)):
            if lo > 0 and (hi == len(refs) or t - times[lo - 1] <= times[hi] - t):
                lo -= 1
            else:
                hi += 1
        out.append(scale([x for _, x in refs[lo:hi]]))
    return out


if __name__ == "__main__":
    print(" ".join(f"{sample() * 1e3:.2f}" for _ in range(20)))

"""Host-speed calibration interleaved with the timed work.

The benchmark shares its host, and the host's speed drifts: a fixed Python
loop takes up to twice as long in one half minute as in another, and the
whole of a multi-second pass drifts with it.  Timings are therefore taken
with a ``Calibrator`` running: every ``INTERVAL_S`` a SIGALRM handler runs a
fixed pure-stdlib kernel (no linscat code, so no change to linscat can move
it) on the same thread, between two bytecodes of the work being timed.  The
kernel runs once cold, then once timed, with the garbage collector off so
that the size of the benchmark's heap does not leak into the sample.

A span of work is then reported in seconds at the reference speed: its
duration, less the time spent in the handler, scaled by ``REF_KERNEL_NS``
divided by the median kernel time sampled around it.  On an idle host the
kernel takes about ``REF_KERNEL_NS``, so the figures stay close to wall time;
when a neighbour slows the host, the kernel slows with the work and the
ratio cancels it.  A slower linscat still reads slower, since the kernel
does not change.
"""

import bisect
import gc
import math
import signal
import statistics
from array import array
from fractions import Fraction
from time import perf_counter_ns

INTERVAL_S = 0.05
REF_KERNEL_NS = 400_000
WINDOW = 7          # kernel samples around a short call (about 0.35 s)


def kernel():
    """Fixed interpreter-bound work in three parts of similar length: a
    float loop shaped like the P^1 prefilter, Fraction arithmetic, and a
    plain integer loop.  Neighbours on the host slow each part by a
    different factor (from 1.1x to 1.9x in one episode), as they do the
    workloads.  No single part tracked every workload best; the blend was
    close to the best part on each of the three."""
    hits = 0
    forms = ((1.5, -0.7), (0.3, 2.1))
    for a in range(1, 12):
        for b in range(-12, 13):
            if math.gcd(a, abs(b)) == 1:
                prod = 1.0
                for c0, c1 in forms:
                    d = c0 * a + c1 * b
                    prod *= d if d > 0 else -d
                hits += prod <= 3.0
    table = {}
    for i in range(1, 40):
        x = Fraction(i % 17 + 1, i % 13 + 1) + Fraction(i % 7 + 1, 3)
        table[i & 15] = x.numerator
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    return hits + acc + len(table)


def sample_kernel():
    """One warm kernel time in ns, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = perf_counter_ns()
        kernel()
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Samples the kernel every INTERVAL_S while started; ``now()`` is a
    clock that stops while the handler runs."""

    def __init__(self):
        self.samples = array("q")   # kernel times, ns
        self.at = array("q")        # now() when each was taken
        self.spent_ns = 0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = perf_counter_ns()
        self.at.append(t0 - self.spent_ns)
        self.samples.append(sample_kernel())
        self.spent_ns += perf_counter_ns() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def now(self):
        return perf_counter_ns() - self.spent_ns

    def factor(self, t0, t1):
        """REF_KERNEL_NS over the median kernel time sampled between the
        ``now()`` readings t0 and t1, widened to the WINDOW samples nearest
        the middle when fewer fell inside; 1.0 before any sample exists."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo < WINDOW:
            n = len(self.samples)
            lo = min(max(0, (lo + hi) // 2 - WINDOW // 2), max(0, n - WINDOW))
            hi = min(n, lo + WINDOW)
        window = self.samples[lo:hi]
        return REF_KERNEL_NS / statistics.median(window) if window else 1.0

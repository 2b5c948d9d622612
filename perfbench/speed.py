"""Wall time rescaled to a nominal CPU speed.

On a shared host the speed a process gets drifts by a quarter or more over
seconds to minutes, independently on each CPU, so raw wall times of the
same work spread too widely to compare commits.  While a measured region
runs, SIGALRM times a fixed reference computation every SAMPLE_S seconds in
the main thread, on whatever CPU the measured code is using at that moment.
Each stretch of wall time between samples is then rescaled by
REFERENCE_S / (the reference's time at the end of the stretch): the result
is the time the region would take at the speed at which the reference runs
in REFERENCE_S.  The reference is benchmark code, so a change to dolab
never changes it.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

SAMPLE_S = 0.02
# Fastest time of _reference() on the machine that defined the benchmark
# (2 vCPUs, Python 3.11.7); a unit, not a tuning knob.
REFERENCE_S = 135e-6

clock = time.perf_counter


def _reference():
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    return total


class Sampler:
    """Reference timings taken every SAMPLE_S seconds while active."""

    def __init__(self):
        self.samples = []   # (clock at sample start, reference seconds)
        self._table = []    # snapshot of samples behind _cum and _times
        self._cum = []      # at() of each snapshot sample
        self._times = []

    def _sample(self, signum, frame):
        # a collection triggered inside the reference would be the measured
        # code's garbage; leave it to that code
        enabled = gc.isenabled()
        gc.disable()
        start = clock()
        _reference()
        self.samples.append((start, clock() - start))
        if enabled:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at(self, t):
        """Nominal-speed seconds elapsed from the first sample to clock t.

        The stretch up to a sample runs at that sample's speed; before the
        first and after the last sample the nearest sample's speed holds.
        """
        if len(self._table) != len(self.samples):
            table = list(self.samples)   # the handler may append meanwhile
            if not table:
                raise RuntimeError("no speed sample taken")
            self._cum = [0.0]
            for (t0, _), (t1, d1) in zip(table, table[1:]):
                self._cum.append(self._cum[-1] + (t1 - t0) * REFERENCE_S / d1)
            self._times = [t for t, _ in table]
            self._table = table
        i = min(bisect.bisect_left(self._times, t), len(self._times) - 1)
        ti, di = self._table[i]
        return self._cum[i] + (t - ti) * REFERENCE_S / di

    def nominal(self, start, end):
        """Nominal-speed seconds of the wall interval [start, end]."""
        return self.at(end) - self.at(start)

    def scale(self):
        """REFERENCE_S over the median reference time seen so far (one
        sample is taken now if the region was too short for any)."""
        if not self.samples:
            self._sample(None, None)
        return REFERENCE_S / statistics.median(d for _, d in self.samples)

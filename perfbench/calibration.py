"""Probe-based correction for the speed of a shared machine.

On a shared host the same Python code can run at different speeds from
one second to the next (by up to 2x on small cloud machines), which
swamps differences between commits.  A fixed pure-Python probe, taking
about a millisecond, runs every ``PERIOD`` seconds from a SIGALRM
handler, also in the middle of long library calls.  A measured interval
is corrected in two steps:

1. the probes that ran inside it are subtracted from it;
2. it is scaled by ``REFERENCE / p``, where ``p`` is the median probe
   time around it (the probes inside it, widened to the nearest
   ``MIN_PROBES``).

A corrected time is thus the interval expressed in probe units, times
``REFERENCE``: seconds on a machine where the probe takes ``REFERENCE``
seconds.  It moves with the benchmarked code and hardly with the load
on the host.  Uncorrected times go into the run record alongside.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD = 0.025
REFERENCE = 1e-3
MIN_PROBES = 5


def probe_work(n=1200):
    """Fixed interpreter work: tuples, dict updates, sorting, slicing."""
    d = {}
    keep = ()
    for i in range(n):
        k = (i & 31, i % 7)
        d[k] = d.get(k, 0) + 1
        if i % 64 == 0:
            keep = tuple(sorted(d))[:4]
    return len(d) + len(keep)


class Calibrator:
    """Samples the probe while active; ``on_probe(seconds)`` sees each one."""

    def __init__(self, on_probe=None):
        self.starts = []
        self.durations = []
        self._on_probe = on_probe
        self._previous = None

    def _probe(self, *_):
        t = perf_counter()
        probe_work()
        dt = perf_counter() - t
        self.starts.append(t)
        self.durations.append(dt)
        if self._on_probe is not None:
            self._on_probe(dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def correct(self, start, end):
        """(corrected, raw) seconds of the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        raw = end - start - sum(self.durations[lo:hi])
        n = len(self.starts)
        if n == 0:
            return raw, raw
        while hi - lo < min(MIN_PROBES, n):
            if lo > 0 and (hi >= n or start - self.starts[lo - 1] <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return raw * REFERENCE / statistics.median(self.durations[lo:hi]), raw

    def median_probe(self):
        return statistics.median(self.durations) if self.durations else 0.0

"""Correction of measured times for the speed the machine runs at.

On a shared machine the same pure-Python work runs at speeds that differ by up
to a factor of two from one few-second stretch to the next, which swamps
any change in the program.  While a run measures, a timer signal interrupts
it every ``INTERVAL_S`` and times a fixed piece of interpreter work of the
benchmark's own (``_probe_work``, independent of ``rbu3``), also inside long
items.  The time of an interval is then scaled by ``REFERENCE_S / c``, where
``c`` is the median cost of the probe that opens the interval and its two
neighbours, and the probes' own time is left out.  Corrected times are
seconds on a machine where the probe takes ``REFERENCE_S``: about the
fastest this Xeon ran it under Python 3.11, so there a corrected time is
close to the uncontended one.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
REFERENCE_S = 0.0025


def _probe_work():
    # tuples, dicts, Fractions and generator calls, like the program's inner
    # loops, in a working set small enough that the program cannot evict it
    base = tuple(range(12))
    acc = {}
    total = Fraction(0)
    for i in range(400):
        mono = tuple((i * 7 + k) % 5 for k in range(12))
        if all(x <= y for x, y in zip(mono, base)):
            total += Fraction(i, 7)
        key = tuple(x + y for x, y in zip(base, mono))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 9 + 1, 3)
    return max(acc, key=lambda m: (sum(m), m)), total


class SpeedProbe:
    """Probes taken on a timer, and corrected durations computed from them."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.costs = []
        self._smoothed = None
        self._previous_handler = None

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()  # collecting the program's garbage is not the probe's cost
        try:
            start = time.perf_counter()
            _probe_work()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(end - start)
        self._smoothed = None

    def _on_alarm(self, signum, frame):
        self.sample()
        # one-shot timer re-armed after the probe, so probes never nest
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def measure(self, start: float, end: float):
        """(seconds, corrected seconds) from ``start`` to ``end``, probes left out."""
        if self._smoothed is None:
            c = self.costs
            self._smoothed = [statistics.median(c[max(0, k - 1):k + 2])
                              for k in range(len(c))]
        k = max(0, bisect.bisect_right(self.starts, start) - 1)
        seconds = corrected = 0.0
        at = start
        while True:
            following = k + 1
            stop = (self.starts[following] if following < len(self.starts)
                    and self.starts[following] < end else end)
            seconds += stop - at
            corrected += (stop - at) * REFERENCE_S / self._smoothed[k]
            if stop == end:
                return seconds, corrected
            k = following
            at = self.ends[k]

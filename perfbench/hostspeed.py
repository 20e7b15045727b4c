"""Host-speed sampling, so run times can be put on one reference speed.

The container this benchmark runs in changes speed by up to 1.6x
within minutes, and process CPU time moves with wall time, so neither
clock alone separates a slower program from a slower host.  While a
run is timed, a timer signal interrupts the program every ``period``
seconds and times a fixed pure-Python probe loop in the handler.  The
probe's mean time over an interval, against `REFERENCE_PROBE_S`, says
how fast the host ran then, and `HostSpeed.factor` scales a time
measured over that interval to reference seconds: the seconds the same
work takes on a host where the probe takes exactly `REFERENCE_PROBE_S`.

The probe costs about 0.1 ms per sample, so 0.5% of a run at the
default 20 ms period.  It touches a few hundred bytes, so a program
whose working set grows is unlikely to make the probe itself slower.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional

#: Probe time that defines one reference second (about that of a quiet
#: 2-core x86 container running CPython 3.11).
REFERENCE_PROBE_S = 1e-4

#: Share of the slowest probe samples left out of the mean: a sample
#: hit by an interrupt or page fault in the probe itself.
TRIM = 0.1

#: Fewest samples an interval's factor rests on; a shorter interval
#: borrows the samples nearest to it in time.
MIN_SAMPLES = 10


def probe(n: int = 400) -> float:
    counts = {}
    total = 0.0
    for i in range(n):
        key = i & 63
        counts[key] = counts.get(key, 0) + i
        total += (i % 7) * 0.5
    return total


class HostSpeed:
    """Samples the probe on a wall-clock timer while the block runs.

    Uses ``SIGALRM``, so it belongs to the main thread of a process that
    sets no other real-time timer.
    """

    def __init__(self, period: float = 0.02) -> None:
        self.period = period
        self.samples: List[float] = []
        #: `time.perf_counter` at the end of each sample.
        self.times: List[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.times.append(t1)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_s(self, start: Optional[float] = None,
                end: Optional[float] = None) -> float:
        """Trimmed mean probe time over samples taken between ``start``
        and ``end`` (perf_counter values; default: all of them)."""
        if not self.samples:
            self._tick(None, None)
        lo = 0 if start is None else bisect.bisect_left(self.times, start)
        hi = len(self.times) if end is None else bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if hi == len(self.times) or (
                    lo > 0 and start - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        kept = sorted(self.samples[lo:hi])
        return statistics.fmean(kept[:max(1, int(len(kept) * (1 - TRIM)))])

    def factor(self, start: Optional[float] = None,
               end: Optional[float] = None) -> float:
        """Multiply a time measured between ``start`` and ``end`` by this
        for reference seconds."""
        return REFERENCE_PROBE_S / self.probe_s(start, end)

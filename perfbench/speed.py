"""Host speed reference for scaling measured times.

The benchmark's host is shared: its CPU speed drifts by more than half
within minutes, so two runs of the same code can differ by more than any
bound a regression check could use.  Each run therefore times a fixed
pure-Python routine alongside its measurements and scales every measured
time by ``NOMINAL_S`` over the routine's time: times are reported as they
would read on a host where the routine takes ``NOMINAL_S``.  The routine
never calls the library.  In batch jobs it runs inside the library's process
state, though, and the stream's heap slowed it by about 2% in one check
(``perfbench/README.md``).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List, Tuple

#: The routine's time on an unloaded 2.1 GHz Xeon vCPU with Python 3.11.
NOMINAL_S = 1.6e-3


def reference_once() -> int:
    """Fixed interpreter work: small tuples, sets, dict lookups, sorting."""
    members = {}
    acc = 0
    for i in range(2000):
        key = (i & 31, (i >> 3) & 31)
        m = members.get(key)
        if m is None:
            m = members[key] = {key[0] & key[1], key[0] | key[1]}
        acc += len(m) + sum(key)
        acc ^= hash(tuple(sorted(m)))
    return acc


def reference_s(samples: int = 9) -> float:
    """Median time of the routine, measured now."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_once()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the routine every ``period`` seconds while a long call runs.

    A ``SIGALRM`` handler runs the routine between bytecodes of the main
    thread.  ``spent_before(t)`` is the handler time up to ``t``, which the
    caller subtracts from the times it measured.
    """

    def __init__(self, period: float = 0.25) -> None:
        self.period = period
        self.samples: List[Tuple[float, float]] = []  # (start, seconds)
        self._saved = None

    def _tick(self, signum, frame) -> None:
        # With the collector off, the routine's allocations cannot trigger a
        # collection of the interrupted program's objects inside the sample.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_once()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def spent_before(self, t: float) -> float:
        return sum(dt for start, dt in self.samples if start < t)

    def scale(self, until: float = float("inf")) -> float:
        """NOMINAL_S over the mean routine time of the samples taken before
        ``until`` (all samples if none were; measured now if none fired)."""
        times = [dt for start, dt in self.samples if start < until] or [
            dt for _, dt in self.samples]
        if not times:
            return NOMINAL_S / reference_s()
        return NOMINAL_S / statistics.fmean(times)

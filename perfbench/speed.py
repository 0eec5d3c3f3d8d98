"""Scaling of timings to a nominal machine speed.

On a shared machine the same pure-Python loop runs 25% faster or slower
from one 10 s window to the next, and a single call can see its speed
change half-way through.  While a :class:`SpeedGauge` is active, a timer
signal interrupts the main thread every ``PERIOD_S`` and runs one chunk of
:func:`reference_job`, a fixed pure-Python job that never calls pbpoplus.
The chunk times sample the machine's speed during and between the timed
calls.  A call's raw time excludes the chunks that ran inside it, and its
nominal time is its raw time multiplied by the mean of
``NOMINAL_CHUNK_S / chunk time`` over the chunks within ``WINDOW_S`` of
the call.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

CHUNK_JOBS = 10
NOMINAL_CHUNK_S = 0.0025   # chunk time that defines nominal speed
PERIOD_S = 0.025
WINDOW_S = 0.5


def reference_job() -> int:
    """Fixed work shaped like the engine's inner loops: string ids, dicts,
    sets and sorting."""
    keys = [f"n{i}|{i % 7}" for i in range(400)]
    images = {k: k[::-1] for k in keys}
    found = frozenset(images.values())
    return len(sorted((v, k) for k, v in images.items() if v in found))


class SpeedGauge:
    """Context manager that samples the machine's speed while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []   # chunk start times, ascending
        self.chunks: list[float] = []   # chunk durations
        self._spent: list[float] = [0.0]  # prefix sums of chunk durations

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        for _ in range(CHUNK_JOBS):
            reference_job()
        spent = time.perf_counter() - start
        self.starts.append(start)
        self.chunks.append(spent)
        self._spent.append(self._spent[-1] + spent)

    def _between(self, start: float, end: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_right(self.starts, end))

    def raw(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` minus the chunks run inside."""
        lo, hi = self._between(start, end)
        return end - start - (self._spent[hi] - self._spent[lo])

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured speed around ``start``..``end``; call it
        once the gauge has sampled past ``end + WINDOW_S``."""
        lo, hi = self._between(start - WINDOW_S, end + WINDOW_S)
        near = self.chunks[lo:hi] or self.chunks
        if not near:
            raise RuntimeError("the speed gauge took no samples")
        return statistics.fmean(NOMINAL_CHUNK_S / c for c in near)

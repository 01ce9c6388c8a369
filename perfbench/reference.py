"""A fixed reference task that tracks the host's speed while jobs run.

The benchmark host is a share of a loaded machine: the same code runs up to
three times slower from one second to the next, and every job of a round
slows together.  While the jobs run, an interval timer interrupts them every
``PROBE_EVERY_S`` seconds to time this task, which does not touch
matchrobust.  A job's time, less the probes that interrupted it, is scaled by
``NOMINAL_S`` over the median reference time near the job, which gives the
job's time on a host where the reference task takes ``NOMINAL_S``.  A change
to the program moves the job's time and not the reference, so it still shows
in full.

The task mixes what the program spends its time on: dict- and heap-driven
shortest paths in pure Python (as networkx does) and small numpy array work.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import random
import signal
import statistics
import time

import numpy as np

#: Reference time the reported seconds are scaled to; about the task's
#: median on the 2-core VM the benchmark was tuned on.
NOMINAL_S = 0.005
#: Interval of the probe timer.
PROBE_EVERY_S = 0.05
#: Probes this far before a job's start or after its end count for the job.
WINDOW_S = 0.25

_VERTICES = 150


def _graph() -> dict[int, dict[int, float]]:
    rng = random.Random(5)
    graph = {v: {} for v in range(_VERTICES)}
    for v in range(1, _VERTICES):
        u, w = rng.randrange(v), rng.uniform(0.5, 3.0)
        graph[u][v] = graph[v][u] = w
    for _ in range(_VERTICES):
        u, v, w = rng.randrange(_VERTICES), rng.randrange(_VERTICES), rng.uniform(0.5, 3.0)
        if u != v:
            graph[u][v] = graph[v][u] = w
    return graph


_GRAPH = _graph()
_MATRIX = np.random.default_rng(1).uniform(size=(40, 40))


def task() -> float:
    """One run of the reference task; returns a checksum so it cannot be skipped."""
    total = 0.0
    for source in range(0, _VERTICES, 10):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _GRAPH[u].items():
                if d + w < dist.get(v, float("inf")):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        total += sum(dist.values())
    for _ in range(20):
        product = _MATRIX @ _MATRIX
        product.sort(axis=1)
        total += float(product[0, 0])
    return total


def median_time(runs: int) -> float:
    """Median time of ``runs`` back-to-back runs of the task."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Reference:
    """Reference-task timings, each stamped with its midpoint on ``perf_counter``.

    ``inside`` is the total time spent in probes; a caller takes its growth
    over a job out of the job's time.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.inside = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        task()
        end = time.perf_counter()
        self.stamps.append((start + end) / 2)
        self.times.append(end - start)
        self.inside += time.perf_counter() - start

    @contextlib.contextmanager
    def probing(self):
        """Probe every ``PROBE_EVERY_S`` seconds, from a ``SIGALRM`` timer, inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, elapsed: float) -> float:
        """``elapsed`` seconds from ``start``, at the host speed where the task takes ``NOMINAL_S``."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, start + elapsed + WINDOW_S)
        if lo == hi:
            raise ValueError(f"no reference probe within {WINDOW_S} s of a job")
        return elapsed * NOMINAL_S / statistics.median(self.times[lo:hi])

"""A fixed piece of reference work, timed to track the host's speed.

The reference host's speed drifts in phases that last minutes, longer
than one benchmark run, so a run's wall times depend on the phase it
lands in. The benchmark times this work between its repetitions and
reports the program's times scaled to a host that runs it in
:data:`REFERENCE_S`. The work resembles the engines' mix: a binary heap
of fresh tuples and dict counting in the interpreter, then sorting and
counting over NumPy arrays that are allocated anew on every call. The
fresh allocations matter: a variant that reused preallocated buffers
tracked the slow phases of the array-bound fluid model worse than the
raw wall time did. The work uses nothing from ``src/``, so a change to
the program moves the scaled times as much as the wall times.

Each call briefly takes about 25 MB, so the benchmark reads the
process's peak memory before it first calls :func:`reference_work`.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

#: Seconds :func:`reference_work` takes on the reference host (2-core
#: Xeon, Python 3.11.7, NumPy 2.4.6): the median of 204 timings taken
#: between benchmark repetitions, which ranged from 0.25 s to 0.65 s.
REFERENCE_S = 0.38


def reference_work() -> float:
    """Seconds one run of the reference work takes now."""
    t0 = perf_counter()
    heap: list = []
    counts: dict = {}
    for i in range(60_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    while heap:
        heapq.heappop(heap)
    keys = (np.arange(400_000, dtype=np.int64) * 2654435761) % (1 << 31)
    np.unique(keys)
    np.argsort(keys, kind="stable")
    np.bincount(keys & 4095)
    return perf_counter() - t0

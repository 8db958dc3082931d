"""How fast the shared host runs right now, from a fixed reference kernel.

On a shared 2-core host the same Python/NumPy work takes up to twice as
long while neighbours are busy, in bursts of seconds and drifts of minutes.
The benchmark therefore times this fixed kernel (benchmark code, which no
change to the program can speed up) before, between and after a run's batch
operations, and scales each operation's wall time by ``NOMINAL_S`` over the
mean of the two readings around it: the time the operation would have
taken on a host where the kernel takes ``NOMINAL_S``. ``serve_mix``, whose
requests run on several threads at once, takes readings pinned to each CPU
in turn in idle gaps of its schedule and is scaled by their median. Each
cold start of ``setup_s`` is scaled by a reading its own process takes
right after it.
The kernel mixes the two kinds of work the program does, a heap-driven
Python loop and whole-array NumPy arithmetic.
"""

from __future__ import annotations

import gc
import heapq
import os
import time

import numpy as np

#: wall seconds of one reference kernel on an undisturbed 2-core host
NOMINAL_S = 0.025

_FIELD = np.random.default_rng(0).random((40, 40, 40))


def reference_seconds() -> float:
    """Wall seconds of one run of the reference kernel.

    The garbage collector is emptied first and paused while the kernel
    runs, so the kernel's allocations never trigger a collection whose
    cost depends on how many objects the program keeps alive.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        heap: list[tuple[int, int]] = []
        for k in range(10000):
            heapq.heappush(heap, ((k * 7919) % 1000, k))
        while heap:
            heapq.heappop(heap)
        for _ in range(10):
            _ = _FIELD[1:-1, 1:-1, 1:-1] * 0.5 + _FIELD[2:, 1:-1, 1:-1] - 6.0 * _FIELD[:-2, 1:-1, 1:-1]
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def reference_each_cpu() -> list[float]:
    """One reading with the calling thread pinned to each CPU it may run on,
    in turn; its CPU set is restored afterwards."""
    if not hasattr(os, "sched_setaffinity"):
        return [reference_seconds()]
    allowed = os.sched_getaffinity(0)
    try:
        out = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            out.append(reference_seconds())
        return out
    finally:
        os.sched_setaffinity(0, allowed)


def pin_to_one_cpu() -> None:
    """Keep the calling thread, and every thread it starts from now on, on
    the lowest CPU it may run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

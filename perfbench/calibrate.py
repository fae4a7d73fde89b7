"""A fixed calibration loop that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by tens of percent over
seconds to minutes as other tenants load them.  The worker times this loop next
to every timed pass and every reference plan, and ``run.py`` reports host times
scaled to a host on which the loop takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / calibration seconds around it

A program change cannot move the loop, which uses only the standard library and
numpy: heap, dict and attribute traffic like the simulator's event loop, small
numpy reductions like a scheduling round's, a sort, scattered reads of a table
of many small objects, which slow down like the program's reads of its large
heap when other tenants crowd the shared caches, and vectorised numpy over
large arrays like the planner's, which slows down less.  A slowdown of the host
moves both times alike and cancels out; a slowdown of the program does not.
"""

from __future__ import annotations

import heapq
import time

#: seconds one :func:`calibrate` call takes on the reference host
REFERENCE_S = 0.1
#: result of :func:`_loop`, checked on every call so the work cannot silently change
_EXPECTED = 246999.75


class _Item:
    __slots__ = ("key", "kind")

    def __init__(self, key: float, kind: int) -> None:
        self.key = key
        self.kind = kind


def _loop() -> float:
    # imported here, not at the top: the worker imports this module before it times
    # the program's import, which includes numpy's
    import numpy as np

    # small-heap interpreter traffic: an event heap, a dict, attribute reads, and
    # a small numpy reduction every 50 events
    matrix = np.arange(576, dtype=float).reshape(24, 24) % 17.0
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(12000):
        item = _Item(i * 0.5, i % 13)
        heapq.heappush(heap, (item.key % 97.0, i, item))
        table[i % 211] = item
        probe = (i * 7) % 211
        if probe in table:
            total += table[probe].kind
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 50 == 0:
            row = matrix[i % 24]
            total += float(row.argmin()) + float(np.minimum(row, matrix[0]).sum())
    # large-heap traffic: build a table of many small objects, then read it in
    # scattered order, so that most reads miss the core's own caches as the
    # program's reads of its large heap do
    size = 1 << 15
    objects = {(i * 40503) % size: _Item(float(i), i % 7) for i in range(size)}
    for i in range(3 * size // 2):
        total += objects[(i * 2654435761) % size].kind
    del objects
    values = [((i * 7919) % 1000) / 4.0 for i in range(8000)]
    values.sort()
    total += values[-1]
    # vectorised numpy over arrays larger than the core's caches, like the
    # planner's pass over every configuration; integers keep the result exact
    array = (np.arange(200_000, dtype=np.int64) * 40503) % 100_003
    for _ in range(3):
        array = np.sort(array * 3 % 100_003)
        total += int((array[:-1] ^ array[1:]).sum() % 1000)
    return total


def calibrate() -> float:
    """Host seconds of one run of the calibration loop."""
    start = time.perf_counter()
    result = _loop()
    seconds = time.perf_counter() - start
    if result != _EXPECTED:
        raise RuntimeError(f"calibration loop returned {result!r}, expected {_EXPECTED!r}")
    return seconds


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` on a host where :func:`calibrate` takes :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S / calibration_s

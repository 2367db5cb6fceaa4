"""The reference kernel: the ledger's unit of host time.

A fixed amount of pure-Python work shaped like the simulator's own hot
loop — ``heapq`` pushes and pops, dict stores, method calls on a
slotted object, float adds — that touches nothing under ``repro``.
A run times it between every two consecutive ops, and every host time
the ledger gates is divided by the median of those timings, so a slow
minute on a shared box scales numerator and denominator alike.

FROZEN: a change that claims a gain must not edit this file.  Editing
it redefines every calibrated number and requires a new recording run.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Calibrated times are expressed as if the kernel took exactly this
#: long; it is the kernel's wall time on the recording box (2 cores).
NOMINAL_MS = 40.0

#: Work per kernel run.  Sized so one run is about ``NOMINAL_MS``.
EVENTS = 39_000


class _Clock:
    __slots__ = ("now", "ticks")

    def __init__(self) -> None:
        self.now = 0.0
        self.ticks = 0

    def advance(self, delta: float) -> float:
        self.now += delta
        self.ticks += 1
        return self.now


def reference_kernel(events: int = EVENTS) -> float:
    """Run the fixed work once; returns a checksum (always the same)."""
    clock = _Clock()
    heap: list[tuple[float, int]] = []
    seen: dict[int, float] = {}
    state = 12345
    for index in range(events):
        # 31-bit LCG: deterministic on every platform and hash seed.
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (clock.now + (state % 1000) * 1e-3, index))
        if index & 1:
            due, tag = heapq.heappop(heap)
            seen[tag & 1023] = clock.advance(due * 1e-6)
    total = clock.now
    while heap:
        due, tag = heapq.heappop(heap)
        total += due
    return total + len(seen) + clock.ticks


def time_reference() -> float:
    """Wall seconds of one kernel run.

    The cyclic collector is paused for the kernel only: its tuples
    would otherwise trigger collections whose cost is the size of the
    *caller's* live heap — the workload's, not the box's.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()

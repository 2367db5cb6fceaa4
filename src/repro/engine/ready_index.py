"""Ready-queue index: candidate selection without scanning every queue.

Per pool slot, and once for the whole operation (for secondary
lookups), the index keeps a lazy min-heap of ``(next_ready_time,
instance)`` entries and a *ready set* of instances whose head has
passed some query's ``now``; the
:class:`~repro.engine.queues.ActivationQueue` notification hook keeps
both current.  Invariant: every non-empty queue is tracked at exactly
its current head time, as a ready-set member or as a valid heap entry,
in its pool structure and in the operation-wide one.

:meth:`ReadyIndex.select` returns the linear scan's answer
(``Simulator._scan_select``).  Why it is the same answer, and the tests
that hold it: docs/architecture.md, "The ready index".
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.engine.operation import OperationRuntime
    from repro.engine.threads import WorkerThread

#: Sentinel pool id of the operation-wide structure.
_GLOBAL = -1


class ReadyIndex:
    """Per-operation index over its activation queues' head ready times."""

    __slots__ = ("_nrt", "_pool_of", "_heaps", "_ready",
                 "_mains_per_pool", "_track_global")

    def __init__(self, operation: "OperationRuntime") -> None:
        queues = operation.queues
        pool_count = len(operation.threads)
        self._pool_of = [0] * len(queues)
        # Slot -1 (the last) holds the operation-wide structure.
        self._heaps: list[list[tuple[float, int]]] = [
            [] for _ in range(pool_count + 1)]
        self._ready: list[set[int]] = [set() for _ in range(pool_count + 1)]
        self._mains_per_pool = [0] * pool_count
        for thread in operation.threads:
            for instance in thread.main_queue_set:
                self._pool_of[instance] = thread.pool_index
                self._mains_per_pool[thread.pool_index] += 1
        #: Without secondary consumption no cross-pool lookups happen,
        #: so the operation-wide bookkeeping would be dead weight.
        self._track_global = operation.allow_secondary
        #: Authoritative head ready time per instance (None = empty).
        self._nrt: list[float | None] = [None] * len(queues)
        for queue in queues:
            queue.listener = self
            head = queue.next_ready_time()
            if head is not None:
                self.notify(queue.instance, head)

    # -- incremental maintenance (called by ActivationQueue) -------------------

    def notify(self, instance: int, ready_time: float | None) -> None:
        """Record that *instance*'s head ready time is now *ready_time*.

        The instance leaves the ready sets (its old head is gone) and,
        when still non-empty, re-enters through the heaps.  Old heap
        entries are recognized as stale (time mismatch) and dropped
        lazily.
        """
        pool = self._pool_of[instance]
        self._ready[pool].discard(instance)
        self._nrt[instance] = ready_time
        if ready_time is not None:
            entry = (ready_time, instance)
            heapq.heappush(self._heaps[pool], entry)
            if self._track_global:
                heapq.heappush(self._heaps[_GLOBAL], entry)
        if self._track_global:
            self._ready[_GLOBAL].discard(instance)

    def add_pool_slot(self) -> None:
        """Register one more pool slot (a helper thread with no mains).

        The operation-wide structure must stay at list index -1 (the
        :data:`_GLOBAL` convention), so the fresh empty slot is
        inserted just before it.  The helper owns no main queues,
        hence empty structures and a zero main count.
        """
        self._heaps.insert(-1, [])
        self._ready.insert(-1, set())
        self._mains_per_pool.append(0)

    # -- queries ---------------------------------------------------------------

    def _top(self, pool: int) -> float | None:
        """Top of *pool*'s heap, purged of stale/duplicate entries."""
        heap = self._heaps[pool]
        nrt = self._nrt
        ready = self._ready[pool]
        while heap:
            time, instance = heap[0]
            if time == nrt[instance] and instance not in ready:
                return time
            heapq.heappop(heap)
        return None

    def _floor(self, pool: int) -> float | None:
        """Smallest head time tracked by *pool*; the heap top must be
        valid, as :meth:`select`'s promotion leaves it on a miss."""
        heap = self._heaps[pool]
        nrt = self._nrt
        best = heap[0][0] if heap else None
        for instance in self._ready[pool]:
            time = nrt[instance]
            if best is None or time < best:
                best = time
        return best

    def select(self, thread: "WorkerThread", now: float,
               allow_secondary: bool
               ) -> tuple[list[int], int, float | None, bool]:
        """Ready instance ids for *thread* at time *now*.

        Returns ``(ready, polls, future, used_secondary)`` reproducing
        the legacy linear scan bit-for-bit: the same set of ready
        instance ids (unsorted), the same count of not-ready queues
        charged as ``poll_empty`` work and — only when nothing is
        ready — the earliest pending ready time visible to the thread
        (every queue with secondary access, its own mains without).

        Each structure consulted — the thread's pool, then, only when
        none of its mains is ready, the operation-wide one — first
        promotes heap entries with time <= now into its ready set, then
        filters the set: members admitted under a faster thread's clock
        may still lie in this thread's future, hence the per-member
        re-check.  Written out in one frame, as every dequeuing step
        makes this call.
        """
        pool = thread.pool_index
        nrt = self._nrt
        for slot in (pool, _GLOBAL):
            heap = self._heaps[slot]
            ready = self._ready[slot]
            while heap:
                time, instance = heap[0]
                if time != nrt[instance] or instance in ready:
                    heapq.heappop(heap)  # stale or duplicate entry
                    continue
                if time > now:
                    break
                heapq.heappop(heap)
                ready.add(instance)
            found = []
            for instance in ready:
                if nrt[instance] <= now:
                    found.append(instance)
            if slot != _GLOBAL:
                if found:
                    break
                if not allow_secondary:
                    return ([], self._mains_per_pool[pool],
                            self._floor(pool), False)
        # On the second pass no own-pool queue was ready, so every
        # operation-wide ready instance is a secondary queue.
        if slot != _GLOBAL:
            return (found, self._mains_per_pool[pool] - len(found),
                    None, False)
        return (found, len(self._nrt) - len(found),
                None if found else self._floor(_GLOBAL), True)

    def quiet(self, thread: "WorkerThread", now: float) -> float | None:
        """The O(1) miss: ``future`` when ``select(thread, now, True)``
        is certain to return ``([], len(queues), future, True)`` with a
        ``future`` to wait for, else ``None`` (ask ``select``).

        Certain: the thread's own and the operation-wide ready sets are
        empty (tested, never iterated) and both validated heap tops lie
        after *now*.  The one side effect is ``select``'s: stale heap
        tops are purged, so a ``select`` after a ``None`` finds the heaps
        it would have found.
        """
        ready = self._ready
        pool = thread.pool_index
        # Busy operations leave here, on the first test.
        if ready[pool] or ready[_GLOBAL] or not self._track_global:
            return None
        nrt = self._nrt
        for pool in (pool, _GLOBAL):
            heap = self._heaps[pool]
            future = None
            if heap:
                future, instance = heap[0]
                if future != nrt[instance]:
                    future = self._top(pool)
                if future is not None and future <= now:
                    return None
        return future

"""Ready-queue index: candidate selection without scanning every queue.

Per pool slot, and once for the whole operation (for secondary
lookups), the index keeps a lazy min-heap of ``(next_ready_time,
instance)`` entries and a *ranked list* of the instances whose head
has passed some query's ``now``, in the strategy's rank order; the
:class:`~repro.engine.queues.ActivationQueue` notification hook keeps
both current.  Invariant: every non-empty queue is tracked at exactly
its current head time, as a ranked member or as a valid heap entry,
in its pool structure and in the operation-wide one.

:meth:`ReadyIndex.select` returns the linear scan's answer
(``Simulator._scan_select``).  Why it is the same answer, and the tests
that hold it: docs/architecture.md, "The ready index".
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.engine.operation import OperationRuntime
    from repro.engine.threads import WorkerThread

#: Sentinel pool id of the operation-wide structure.
_GLOBAL = -1


class ReadyIndex:
    """Per-operation index over its activation queues' head ready times."""

    __slots__ = ("_nrt", "_pool_of", "_heaps", "_ranked", "_member",
                 "_bound", "_rank_of", "_key", "_mains_per_pool",
                 "_track_global")

    def __init__(self, operation: "OperationRuntime") -> None:
        queues = operation.queues
        degree = len(queues)
        pool_count = len(operation.threads)
        self._pool_of = [0] * degree
        # Slot -1 (the last) holds the operation-wide structure.
        self._heaps: list[list[tuple[float, int]]] = [
            [] for _ in range(pool_count + 1)]
        self._ranked: list[list[int]] = [[] for _ in range(pool_count + 1)]
        # Membership flags, one list the pool slots share (an instance
        # has one pool); a bound on each list's admitted head times.
        self._member = [[False] * degree] * pool_count + [[False] * degree]
        self._bound = [0.0] * (pool_count + 1)
        # Each instance's rank, and the sort key giving it (none: the
        # id); fixed here, so the strategy must not change once the
        # pool is built (AdaptiveController._maybe_switch runs before).
        by_cost = operation.strategy.ranks_by_cost
        self._rank_of = operation.lpt_keys if by_cost else range(degree)
        self._key = operation.lpt_keys.__getitem__ if by_cost else None
        self._mains_per_pool = [0] * pool_count
        for thread in operation.threads:
            for instance in thread.main_queue_set:
                self._pool_of[instance] = thread.pool_index
                self._mains_per_pool[thread.pool_index] += 1
        #: Without secondary consumption no cross-pool lookups happen,
        #: so the operation-wide bookkeeping would be dead weight.
        self._track_global = operation.allow_secondary
        #: Authoritative head ready time per instance (None = empty).
        self._nrt: list[float | None] = [None] * degree
        for queue in queues:
            queue.listener = self
            head = queue.next_ready_time()
            if head is not None:
                self.notify(queue.instance, head)

    # -- incremental maintenance (called by ActivationQueue) -------------------

    def notify(self, instance: int, ready_time: float | None) -> None:
        """Record that *instance*'s head ready time is now *ready_time*.

        The instance leaves the ranked lists (its old head is gone) and,
        when still non-empty, re-enters through the heaps.  Old heap
        entries are recognized as stale (time mismatch) and dropped
        lazily.
        """
        pool = self._pool_of[instance]
        for slot in (pool, _GLOBAL):
            member = self._member[slot]
            if member[instance]:
                member[instance] = False
                ranked = self._ranked[slot]
                del ranked[bisect_left(ranked, self._rank_of[instance],
                                       key=self._key)]
        self._nrt[instance] = ready_time
        if ready_time is not None:
            entry = (ready_time, instance)
            heapq.heappush(self._heaps[pool], entry)
            if self._track_global:
                heapq.heappush(self._heaps[_GLOBAL], entry)

    def add_pool_slot(self) -> None:
        """Register one more pool slot (a helper thread with no mains).

        The operation-wide structure must stay at list index -1 (the
        :data:`_GLOBAL` convention), so the fresh empty slot is
        inserted just before it.  The helper owns no main queues,
        hence empty structures and a zero main count.
        """
        self._heaps.insert(-1, [])
        self._ranked.insert(-1, [])
        self._member.insert(-1, self._member[0])
        self._bound.insert(-1, 0.0)
        self._mains_per_pool.append(0)

    # -- queries ---------------------------------------------------------------

    def _top(self, pool: int) -> float | None:
        """Top of *pool*'s heap, purged of stale/duplicate entries."""
        heap = self._heaps[pool]
        nrt = self._nrt
        member = self._member[pool]
        while heap:
            time, instance = heap[0]
            if time == nrt[instance] and not member[instance]:
                return time
            heapq.heappop(heap)
        return None

    def _floor(self, pool: int) -> float | None:
        """Smallest head time tracked by *pool*; the heap top must be
        valid, as :meth:`select`'s promotion leaves it on a miss."""
        heap = self._heaps[pool]
        nrt = self._nrt
        best = heap[0][0] if heap else None
        for instance in self._ranked[pool]:
            time = nrt[instance]
            if best is None or time < best:
                best = time
        return best

    def select(self, thread: "WorkerThread", now: float,
               allow_secondary: bool
               ) -> tuple[list[int], int, float | None, bool]:
        """Ready instance ids for *thread* at time *now*, in rank order.

        Returns ``(ready, polls, future, used_secondary)`` reproducing
        the legacy linear scan bit-for-bit: the same ready instance ids
        (*ready* may be the index's own list: read it at once), the
        same count of not-ready queues charged as ``poll_empty`` work
        and — only when nothing is ready — the earliest pending ready
        time visible to the thread (every queue with secondary access,
        its own mains without).

        Each structure consulted — the thread's pool, then, only when
        none of its mains is ready, the operation-wide one — first
        promotes heap entries with time <= now into its ranked list,
        which is the answer when its bound is <= now too; else a member
        admitted under a faster thread's clock may lie in this thread's
        future, and the list is filtered.  Written out in one frame, as
        every dequeuing step makes this call.
        """
        pool = thread.pool_index
        nrt = self._nrt
        key = self._key
        bounds = self._bound
        for slot in (pool, _GLOBAL):
            heap = self._heaps[slot]
            ranked = self._ranked[slot]
            member = self._member[slot]
            while heap:
                time, instance = heap[0]
                if time != nrt[instance] or member[instance]:
                    heapq.heappop(heap)  # stale or duplicate entry
                    continue
                if time > now:
                    break
                heapq.heappop(heap)
                if not ranked or time > bounds[slot]:
                    bounds[slot] = time
                insort(ranked, instance, key=key)
                member[instance] = True
            if bounds[slot] <= now:
                found = ranked
            else:
                found = []
                for instance in ranked:
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
        return (found, len(nrt) - len(found),
                None if found else self._floor(_GLOBAL), True)

    def quiet(self, thread: "WorkerThread", now: float) -> float | None:
        """The O(1) miss: ``future`` when ``select(thread, now, True)``
        is certain to return ``([], len(queues), future, True)`` with a
        ``future`` to wait for, else ``None`` (ask ``select``).

        Certain: the thread's own and the operation-wide ranked lists
        are empty (tested, never iterated) and both validated heap tops
        lie after *now*.  The one side effect is ``select``'s: stale
        heap tops are purged, so a ``select`` after a ``None`` finds the
        heaps it would have found.
        """
        ranked = self._ranked
        pool = thread.pool_index
        # Busy operations leave here, on the first test.
        if ranked[pool] or ranked[_GLOBAL] or not self._track_global:
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

"""Ready-queue index: sub-linear candidate selection for the event loop.

Before this index existed, every thread step linearly rescanned the
operation's activation queues (`has_ready` / `next_ready_time` on each
of them), so one simulated step cost O(d) in the degree of
partitioning — quadratic overall, and exactly the regime the paper
sweeps (Figures 16-19 go to d = 1500 fragments).

The index exploits a structural invariant of the pool build: main
queues *partition* the operation's queues across threads (queue ``i``
is the main queue of thread ``i mod ThreadNb``).  Per pool slot — and
once more for the whole operation, to serve secondary lookups — it
keeps two structures over the covered queues:

* a lazy min-heap of ``(next_ready_time, instance)`` entries for
  queues whose head lies in the *future* of every query seen so far;
* a *ready set* of instances whose head time has already passed some
  query's ``now`` — these stay ready until their head changes, so
  they are admitted once instead of being re-discovered every step.

Both are maintained incrementally through the
:class:`~repro.engine.queues.ActivationQueue` notification hook: any
head change evicts the instance from its ready sets and (if the queue
is non-empty) pushes fresh heap entries.  Heap entries whose time no
longer matches the instance's current head are *stale* and discarded
lazily when they surface at the top.  The standing invariant: every
non-empty queue is tracked at exactly its current head time, either
as a ready-set member or as a valid heap entry, in both its pool
structure and the operation-wide one.

Because threads have private clocks, a ready-set member admitted under
one thread's ``now`` may still be in the future for a slower thread,
so queries re-check members against their own ``now`` — a plain
integer-indexed comparison, far cheaper than the method-call scan it
replaces, and over only the plausibly ready queues instead of all d.

Selection mirrors the legacy scan exactly, without iterating queues:

* ready main candidates are the own-pool members with head <= now,
  returned in instance order (the order the scan produced);
* secondary candidates — consulted only when no main is ready — come
  from the operation-wide structure: since no own-pool queue is ready,
  every operation-wide ready instance is necessarily secondary;
* the ``poll_empty`` charge is derived from cardinalities:
  ``polls = #main - #ready_main`` (plus, on the secondary path,
  ``#secondary - #ready_secondary``), which equals the number of
  not-ready queues the scan would have visited;
* the earliest future ready time is the minimum over the relevant
  structure's heap top and ready-set members.

See docs/architecture.md for the full equivalence argument.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.engine.operation import OperationRuntime
    from repro.engine.queues import ActivationQueue
    from repro.engine.threads import WorkerThread

#: Sentinel pool id of the operation-wide structure.
_GLOBAL = -1


class ReadyIndex:
    """Per-operation index over its activation queues' head ready times."""

    __slots__ = ("_queues", "_nrt", "_pool_of", "_heaps", "_ready",
                 "_mains_per_pool", "_track_global", "obs",
                 "_notify_key", "_stale_key", "_ready_key")

    def __init__(self, operation: "OperationRuntime") -> None:
        queues = operation.queues
        self._queues = queues
        #: Observability hook (an EventBus), attached by the executor
        #: when observability is on; ``None`` costs one check per site.
        self.obs = None
        self._notify_key = "ready_notify/" + operation.name
        self._stale_key = "ready_stale_drops/" + operation.name
        self._ready_key = "ready_set/" + operation.name
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
        if self.obs is not None:
            # EventBus.count, written out: one notify per head change.
            counters = self.obs.counters
            key = self._notify_key
            counters[key] = counters.get(key, 0.0) + 1.0
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
        best: float | None = None
        stale = 0
        while heap:
            time, instance = heap[0]
            if time == nrt[instance] and instance not in ready:
                best = time
                break
            heapq.heappop(heap)
            stale += 1
        if stale and self.obs is not None:
            self.obs.count(self._stale_key, stale)
        return best

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
               ) -> tuple[list["ActivationQueue"], int, float | None, bool]:
        """Candidate queues for *thread* at time *now*.

        Returns ``(ready, polls, future, used_secondary)`` reproducing
        the legacy linear scan bit-for-bit: the same candidate list in
        the same (instance) order, the same count of not-ready queues
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
        obs = self.obs
        for slot in (pool, _GLOBAL):
            heap = self._heaps[slot]
            ready = self._ready[slot]
            if heap:
                stale = 0
                while heap:
                    time, instance = heap[0]
                    if time != nrt[instance] or instance in ready:
                        heapq.heappop(heap)  # stale or duplicate entry
                        stale += 1
                        continue
                    if time > now:
                        break
                    heapq.heappop(heap)
                    ready.add(instance)
                if stale and obs is not None:
                    obs.count(self._stale_key, stale)
            found = []
            for instance in ready:
                if nrt[instance] <= now:
                    found.append(instance)
            if slot != _GLOBAL:
                if obs is not None:
                    # Probe the post-promotion ready-set size this
                    # thread saw in its own pool structure (the
                    # operation-wide set is only promoted on the
                    # secondary path, so it would read stale here) — a
                    # call only when the size moved.
                    size = len(ready)
                    series = obs.series.get(self._ready_key)
                    if series is None or series.values[-1] != size:
                        obs.sample(self._ready_key, now, size)
                if found:
                    break
                if not allow_secondary:
                    return ([], self._mains_per_pool[pool],
                            self._floor(pool), False)
        # On the second pass no own-pool queue was ready, so every
        # operation-wide ready instance is a secondary queue.
        queues = self._queues
        if len(found) == 1:
            candidates = [queues[found[0]]]
        else:
            found.sort()
            candidates = list(map(queues.__getitem__, found))
        if slot != _GLOBAL:
            return (candidates, self._mains_per_pool[pool] - len(found),
                    None, False)
        return (candidates, len(queues) - len(found),
                None if found else self._floor(_GLOBAL), True)

    def quiet(self, thread: "WorkerThread", now: float) -> float | None:
        """The O(1) miss: ``future`` when ``select(thread, now, True)``
        is certain to return ``([], len(queues), future, True)`` with a
        ``future`` to wait for, else ``None`` (ask ``select``).

        Certain: the thread's own and the operation-wide ready sets are
        empty (tested, never iterated) and both validated heap tops lie
        after *now*.  Side effects are ``select``'s: stale tops purged
        and counted (additive, so a ``select`` after a ``None`` sums to
        the same), the ``ready_set`` probe sampled at size 0 — no call
        at all when it already reads 0, as a sample on no change
        stores nothing.
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
        obs = self.obs
        if future is not None and obs is not None:
            series = obs.series.get(self._ready_key)
            if series is None or series.values[-1] != 0:
                obs.sample(self._ready_key, now, 0)
        return future

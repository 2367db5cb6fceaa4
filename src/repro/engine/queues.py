"""Activation queues.

"To manage activations, a FIFO queue is associated to each operation
instance.  There are two kinds of queues, triggered or pipelined."
(Section 2.)

Queues live in (simulated) shared memory: any thread of the owning
operation may consume from any of its queues.  Each entry carries a
*ready time* — the virtual instant its producer made it available —
so the discrete-event simulator knows when a consumer may pick it up.
Entries from concurrent producers interleave, so internally the queue
is a ready-time heap; among entries ready at the same instant, arrival
order (FIFO) breaks ties.

A queue may have a *listener* (the owning operation's
:class:`~repro.engine.ready_index.ReadyIndex`): whenever the head
ready time changes — an enqueue that becomes the new head, or a
dequeue that pops it — the queue notifies the listener, so the
simulator can locate ready queues without scanning every queue of the
operation.

Independently, a queue may carry an *obs* hook (the execution's
:class:`~repro.obs.bus.EventBus`, attached only when observability is
on): enqueues and dequeues then move the per-operation queue-depth
counter, one :meth:`~repro.obs.bus.EventBus.add` under the key the
queue built once.  When off the hook is ``None`` and each hot path
pays exactly one ``is not None`` check.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.lera.activation import Activation
from repro.obs.probes import queue_depth_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.threads import WorkerThread


class ActivationQueue:
    """One operator instance's FIFO activation queue.

    Attributes:
        operation_name: Owning operation.
        instance: Operator instance this queue feeds.
        kind: ``"triggered"`` or ``"pipelined"``.
        capacity: Soft bound on queued activations; producers finishing
            an activation while a target queue is at or over capacity
            block until a consumer drains it (``None`` = unbounded).
        cost_estimate: Static estimate of one activation's processing
            cost for this instance — what the LPT strategy ranks
            queues by (derived from fragment cardinalities).
        lpt_key: ``(cost_estimate, -instance)``, LPT's rank, fixed here
            so a choice among candidates builds no tuples.
        depth_key: Name of the operation's queue-depth probe, fixed
            here so an observed enqueue builds no string.
    """

    __slots__ = ("operation_name", "instance", "kind", "capacity",
                 "cost_estimate", "lpt_key", "depth_key", "_heap", "_seq",
                 "enqueued", "consumed", "blocked_producers", "listener",
                 "obs")

    def __init__(self, operation_name: str, instance: int, kind: str,
                 capacity: int | None = None, cost_estimate: float = 0.0) -> None:
        if capacity is not None and capacity < 1:
            raise ExecutionError(f"queue capacity must be >= 1, got {capacity}")
        self.operation_name = operation_name
        self.instance = instance
        self.kind = kind
        self.capacity = capacity
        self.cost_estimate = cost_estimate
        self.lpt_key = (cost_estimate, -instance)
        self.depth_key = queue_depth_key(operation_name)
        self._heap: list[tuple[float, int, Activation]] = []
        self._seq = 0
        self.enqueued = 0
        self.consumed = 0
        self.blocked_producers: list["WorkerThread"] = []
        self.listener = None
        self.obs = None

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:
        return (f"ActivationQueue({self.operation_name!r}[{self.instance}], "
                f"{self.kind}, pending={len(self._heap)})")

    # -- producer side -------------------------------------------------------

    def enqueue(self, ready_time: float, activation: Activation) -> None:
        """Append an activation that becomes consumable at *ready_time*."""
        heap = self._heap
        old_head = heap[0][0] if heap else None
        heapq.heappush(heap, (ready_time, self._seq, activation))
        self._seq += 1
        self.enqueued += 1
        if self.listener is not None and (old_head is None
                                          or ready_time < old_head):
            self.listener.notify(self.instance, ready_time)
        if self.obs is not None:
            self.obs.add(self.depth_key, ready_time, 1)

    @property
    def over_capacity(self) -> bool:
        """True when producers must block before their next activation."""
        return self.capacity is not None and len(self._heap) >= self.capacity

    # -- consumer side -------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._heap

    def has_ready(self, now: float) -> bool:
        """Is at least one activation consumable at virtual time *now*?"""
        return bool(self._heap) and self._heap[0][0] <= now

    def next_ready_time(self) -> float | None:
        """Ready time of the earliest pending activation, if any."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def discard_pending(self, now: float) -> int:
        """Drop every pending activation (query cancellation/abort).

        The entries are neither consumed nor delivered — the caller
        accounts them as discarded work.  Returns how many were
        dropped.
        """
        count = len(self._heap)
        if count == 0:
            return 0
        self._heap.clear()
        if self.listener is not None:
            self.listener.notify(self.instance, None)
        if self.obs is not None:
            self.obs.add(self.depth_key, now, -count)
        return count

    def dequeue_ready(self, now: float, limit: int) -> list[Activation]:
        """Pop up to *limit* activations ready at *now* (FIFO order).

        This is one batch fetched into a thread's internal activation
        cache; the caller charges a single mutex acquisition for it.
        """
        batch: list[Activation] = []
        heap = self._heap
        while heap and len(batch) < limit and heap[0][0] <= now:
            batch.append(heapq.heappop(heap)[2])
        self.consumed += len(batch)
        if batch and self.listener is not None:
            self.listener.notify(self.instance,
                                 heap[0][0] if heap else None)
        if batch and self.obs is not None:
            self.obs.add(self.depth_key, now, -len(batch))
        return batch

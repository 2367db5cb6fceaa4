"""Operation runtimes — the extended view, instantiated.

This mirrors Figure 4's data structures: an *operation* bundles its
table of activation queues (``QueueNb`` / ``QueueTbl``), its pool of
consumer threads (``ThreadNb`` / ``ThreadTbl``), the database function
(``DBFunc``), the consumption strategy (``StrategyId``) and the
internal activation cache size (``CacheSize``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.engine.queues import ActivationQueue
from repro.engine.ready_index import ReadyIndex
from repro.engine.strategies import ConsumptionStrategy
from repro.engine.threads import WorkerThread
from repro.errors import ExecutionError
from repro.lera.activation import TRIGGERED
from repro.lera.graph import LeraNode
from repro.storage.tuples import Row

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.engine.dbfuncs import DBFunc

#: Degree of partitioning at which candidate selection switches from
#: the linear queue scan to the ready index.  Below this the scan is
#: cheaper (measured crossover is ~100 instances at 20 threads): with
#: a handful of queues per pool, heap and ready-set bookkeeping costs
#: more than just looking at every queue.  Both paths are
#: virtual-time identical, so this is purely a wall-clock knob.
READY_INDEX_MIN_INSTANCES = 96


class DeliveryTap:
    """One delivery edge out of an operation.

    An edge either feeds a downstream pipeline consumer (``consumer``
    + ``router``: the router maps one activation's emitted rows to
    their consumer instance numbers) or collects result rows
    (``collector``).  An operation's own edge is the first of its
    :attr:`OperationRuntime.outputs`; when the workload engine folds
    a subscriber query's node onto it, the operation gains one more
    edge per subscriber.

    ``active`` is the edge's subscription: deactivating it (its
    subscriber cancelled, timed out or faulted) stops deliveries down
    it without disturbing the other edges.
    """

    __slots__ = ("consumer", "router", "collector", "active")

    def __init__(self, consumer: "OperationRuntime | None" = None,
                 router: Callable[[list[Row]], list[int]] | None = None,
                 collector: list[Row] | None = None) -> None:
        if consumer is not None and router is None:
            raise ExecutionError(
                f"edge into operation {consumer.name!r} has a consumer "
                f"but no router")
        self.consumer = consumer
        self.router = router
        self.collector = collector
        self.active = True


class OperationRuntime:
    """One operator of the plan, ready to execute.

    Attributes:
        node: The Lera-par node this runtime realizes.
        name: The node's name, copied once (read on every event).
        dbfunc: Executable operator body.
        queues: One activation queue per instance.
        threads: The thread pool (filled by the executor).
        strategy: Consumption strategy instance.
        cache_size: Max activations fetched per queue access (the
            internal activation cache of Figure 4).
        outputs: Delivery edges.  The first is the operation's own:
            into the pipeline consumer, or into ``result_rows`` when
            this operation produces the query result.  Each further
            edge serves one query folded onto this operation.
        producers_remaining: Pipeline producers still running; the
            input closes when this reaches zero.  Triggered operations
            close immediately after their triggers are seeded.
    """

    def __init__(self, node: LeraNode, dbfunc: "DBFunc",
                 strategy: ConsumptionStrategy, cache_size: int,
                 queue_capacity: int | None = None,
                 allow_secondary: bool = True) -> None:
        if cache_size < 1:
            raise ExecutionError(f"cache_size must be >= 1, got {cache_size}")
        self.node = node
        self.name = node.name
        self.dbfunc = dbfunc
        self.strategy = strategy
        self.cache_size = cache_size
        #: When False, threads never fall back to secondary queues —
        #: the static one-thread-per-instance binding of Gamma-style
        #: engines, used as the paper's implicit baseline.
        self.allow_secondary = allow_secondary
        estimates = node.spec.estimated_instance_costs(dbfunc.costs)
        self.queues = [
            ActivationQueue(node.name, i, node.trigger_mode,
                            capacity=queue_capacity, cost_estimate=estimates[i])
            for i in range(node.instances)
        ]
        self.threads: list[WorkerThread] = []
        self.ready_index: ReadyIndex | None = None
        #: Per-operation observability hooks (set by the executor).
        #: Keeping them here — not on the simulator — is what lets a
        #: shared workload simulation attribute every event to the
        #: right query's bus/trace.
        self.bus = None
        self.tracer = None
        #: Its holders in a workload run, as references: the query
        #: whose wave started it (until that query finishes) and the
        #: shared operator offering it as a fold target.
        self.job = None
        self.shared = None
        #: Can the run's fault plan fail one of its activations?  Fixed
        #: when the simulator admits the operation.
        self.may_fail = False
        self.result_rows: list[Row] = []
        #: The own edge (``Executor.wire_pipelines`` replaces it with
        #: the pipeline consumer's), then one edge per folded
        #: subscriber.  Only the own edge takes part in back-pressure.
        self.outputs = [DeliveryTap(collector=self.result_rows)]
        self.producers_remaining = 0
        self.input_closed = False
        self.waiting_threads: deque[WorkerThread] = deque()
        self.live_threads = 0
        self.pending_activations = 0
        self.started_at = 0.0
        self.finished_at: float | None = None
        self.activation_costs: list[float] = []
        self.activation_outputs: list[int] = []
        self.finalized = False
        self.finalize_cost = 0.0
        # Counters (ExecutionMetrics picks these up).
        self.polls = 0
        self.enqueues = 0
        self.dequeue_batches = 0
        self.secondary_accesses = 0
        self.memory_penalty = 0.0
        # Fault accounting (repro.faults): failed attempts injected,
        # how many were re-enqueued as retries, how many aborted the
        # query, and activations discarded by cancellation/abort
        # drains.  Together they close the activation-conservation
        # invariant the chaos harness checks:
        # enqueued == processed + retries + aborts + discarded.
        self.faults_injected = 0
        self.fault_retries = 0
        self.fault_aborts = 0
        self.discarded = 0

    # -- identity ------------------------------------------------------------

    @property
    def instances(self) -> int:
        return self.node.instances

    def __repr__(self) -> str:
        return (f"OperationRuntime({self.name!r}, x{self.instances}, "
                f"threads={len(self.threads)})")

    # -- pool construction -----------------------------------------------------

    def build_pool(self, thread_ids: list[int], start_time: float) -> None:
        """Create the thread pool and distribute main queues.

        "All activation queues are equally distributed among the
        associated threads and are marked as main queues" — queue ``i``
        is the main queue of thread ``i mod ThreadNb``.
        """
        if not thread_ids:
            raise ExecutionError(f"operation {self.name!r} allocated no threads")
        self.threads = [WorkerThread(tid, pool_index, self, start_time)
                        for pool_index, tid in enumerate(thread_ids)]
        pool_size = len(self.threads)
        for thread in self.threads:
            thread.assign_main_queues(
                [q for i, q in enumerate(self.queues) if i % pool_size == thread.pool_index])
        # Main queues partition the operation's queues across the pool
        # (the modulo rule above), which is what lets the ready index
        # keep one heap per pool slot.  Low-degree operations stay on
        # the linear scan — see READY_INDEX_MIN_INSTANCES.
        if len(self.queues) >= READY_INDEX_MIN_INSTANCES:
            self.ready_index = ReadyIndex(self)
        else:
            self.ready_index = None
            for queue in self.queues:
                queue.listener = None
        self.live_threads = pool_size
        self.started_at = start_time

    def add_threads(self, thread_ids: list[int],
                    now: float) -> list[WorkerThread]:
        """Grow the pool mid-flight with helper threads (re-granted
        processors from a completed query).

        Helpers own no main queues — every queue of the operation was
        already partitioned across the original pool — so they work
        purely through secondary consumption, exactly like a pool
        thread whose main queues have drained.  Requires
        ``allow_secondary``; a static (Gamma-style) operation cannot
        absorb helpers.
        """
        if not self.threads:
            raise ExecutionError(
                f"add_threads on unbuilt operation {self.name!r}")
        if not self.allow_secondary:
            raise ExecutionError(
                f"operation {self.name!r} forbids secondary consumption; "
                f"helper threads would spin forever")
        new_threads = []
        for tid in thread_ids:
            thread = WorkerThread(tid, len(self.threads), self, now)
            thread.assign_main_queues([])
            self.threads.append(thread)
            new_threads.append(thread)
            if self.ready_index is not None:
                self.ready_index.add_pool_slot()
        self.live_threads += len(new_threads)
        return new_threads

    # -- input lifecycle --------------------------------------------------------

    def seed_triggers(self, at_time: float) -> None:
        """Enqueue the control activation(s) of every instance, close input.

        Classic triggered operators get one activation per queue; a
        chunked operator (``grain > 1``) gets one activation per
        fragment slice, so the unit of sequential work shrinks without
        changing the partitioning.
        """
        from repro.lera.activation import chunk_trigger, trigger
        if self.node.trigger_mode != TRIGGERED:
            raise ExecutionError(
                f"seed_triggers on pipelined operation {self.name!r}")
        per_instance = self.node.spec.activations_per_instance()
        for i, queue in enumerate(self.queues):
            if per_instance == 1:
                queue.enqueue(at_time, trigger(i))
            else:
                for chunk in range(per_instance):
                    queue.enqueue(at_time, chunk_trigger(i, chunk))
        self.pending_activations += len(self.queues) * per_instance
        self.input_closed = True

    def close_input(self) -> None:
        """No more activations will arrive (all producers finished)."""
        self.input_closed = True

    # -- queue-state helpers ------------------------------------------------------

    def earliest_pending(self) -> float | None:
        """Smallest ready time among all pending activations, if any."""
        earliest: float | None = None
        for queue in self.queues:
            t = queue.next_ready_time()
            if t is not None and (earliest is None or t < earliest):
                earliest = t
        return earliest

    @property
    def drained(self) -> bool:
        """All queues empty and no more input can arrive."""
        return self.input_closed and self.pending_activations == 0

    @property
    def complete(self) -> bool:
        """Every thread of the pool has terminated."""
        return self.live_threads == 0 and bool(self.threads)

    @property
    def response_time(self) -> float:
        """Operation response time (finish - start); 0 if unfinished."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

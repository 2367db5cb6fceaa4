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
from repro.engine.strategies import LPTStrategy, RandomStrategy, lpt_keys
from repro.engine.threads import WorkerThread
from repro.errors import ExecutionError
from repro.lera.activation import TRIGGERED, chunk_trigger, trigger
from repro.lera.graph import LeraNode
from repro.obs.probes import queue_depth_key
from repro.storage.tuples import Row

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.engine.dbfuncs import DBFunc

#: Degree of partitioning at which candidate selection switches from
#: the linear queue scan to the ready index.  Below it the scan is
#: cheaper: forcing the index at every degree costs `sql_short` +4.8 %
#: and `serving_edf_2x` +14 % `op_cal_ms_p50`, whose runtimes have ten
#: and two queues (docs/architecture.md, "The ready index").  Both paths
#: are virtual-time identical, so this is purely a wall-clock knob.
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


class OperationBlueprint:
    """What a ``(plan, schedule)`` pair decides about one operation, read
    by every job's runtime of it (estimates and LPT ranks read-only); the
    body is shared unless its class keeps per-execution state
    (``DBFunc.stateful``).  The executor sets the inbound ``router``."""

    __slots__ = ("node", "dbfunc", "strategy", "cache_size",
                 "allow_secondary", "estimates", "lpt_keys", "depth_key",
                 "router", "_main_sets")

    def __init__(self, node: LeraNode, dbfunc: "DBFunc",
                 strategy: RandomStrategy | LPTStrategy, cache_size: int,
                 allow_secondary: bool = True) -> None:
        if cache_size < 1:
            raise ExecutionError(f"cache_size must be >= 1, got {cache_size}")
        self.node = node
        self.dbfunc = dbfunc
        self.strategy = strategy
        self.cache_size = cache_size
        #: False: no secondary queues (the paper's static baseline).
        self.allow_secondary = allow_secondary
        self.estimates = node.spec.estimated_instance_costs(dbfunc.costs)
        self.lpt_keys = lpt_keys(self.estimates)
        self.depth_key = queue_depth_key(node.name)
        self.router: Callable[[list[Row]], list[int]] | None = None
        self._main_sets: dict[int, tuple[frozenset[int], ...]] = {}

    def main_sets(self, pool_size: int) -> tuple[frozenset[int], ...]:
        """The main-queue instances of each slot of a *pool_size* pool
        (queue ``i`` is slot ``i mod pool_size``'s), once per size."""
        sets = self._main_sets.get(pool_size)
        if sets is None:
            sets = self._main_sets[pool_size] = tuple(
                frozenset(range(slot, self.node.instances, pool_size))
                for slot in range(pool_size))
        return sets


class OperationRuntime:
    """One operator of the plan, ready to execute: its
    :class:`OperationBlueprint` plus one job's state.

    Attributes:
        node: The Lera-par node this runtime realizes.
        name: The node's name, copied once (read on every event).
        dbfunc: Executable operator body.
        queues: One activation queue per instance.
        threads: The thread pool (filled by the executor).
        strategy: Consumption strategy instance.
        lpt_keys: LPT's rank of each instance, the rank an LPT
            ``choose`` sees.
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

    __slots__ = ("node", "name", "blueprint", "dbfunc", "strategy",
                 "cache_size", "allow_secondary", "lpt_keys", "queues",
                 "threads", "ready_index", "bus", "job", "shared", "may_fail",
                 "result_rows", "outputs", "producers_remaining",
                 "input_closed", "waiting_threads", "live_threads",
                 "pending_activations", "started_at", "finished_at",
                 "activation_costs", "activation_outputs", "finalized",
                 "polls", "enqueues", "dequeue_batches", "secondary_accesses",
                 "memory_penalty", "faults_injected", "fault_retries",
                 "fault_aborts", "discarded", "__weakref__")

    def __init__(self, blueprint: OperationBlueprint,
                 queue_capacity: int | None) -> None:
        node = self.node = blueprint.node
        name = self.name = node.name
        self.blueprint = blueprint
        dbfunc = blueprint.dbfunc
        self.dbfunc = (type(dbfunc)(node.spec, dbfunc.costs)
                       if dbfunc.stateful else dbfunc)
        self.strategy = blueprint.strategy
        self.cache_size = blueprint.cache_size
        self.allow_secondary = blueprint.allow_secondary
        self.lpt_keys = blueprint.lpt_keys
        kind, depth_key = node.trigger_mode, blueprint.depth_key
        self.queues = [
            ActivationQueue(name, i, kind, depth_key, queue_capacity,
                            estimate)
            for i, estimate in enumerate(blueprint.estimates)
        ]
        self.threads: list[WorkerThread] = []
        self.ready_index: ReadyIndex | None = None
        #: Per-operation observability hook (set by the executor).
        #: Keeping it here — not on the simulator — is what lets a
        #: shared workload simulation attribute every event and span
        #: to the right query's bus.
        self.bus = None
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

    def build_pool(self, thread_ids: range, start_time: float) -> None:
        """Create the thread pool and distribute main queues.

        "All activation queues are equally distributed among the
        associated threads and are marked as main queues" — queue ``i``
        is the main queue of thread ``i mod ThreadNb``.
        """
        if not thread_ids:
            raise ExecutionError(f"operation {self.name!r} allocated no threads")
        pool_size, queues = len(thread_ids), self.queues
        main_sets = self.blueprint.main_sets(pool_size)
        self.threads = [WorkerThread(tid, slot, self, start_time,
                                     queues[slot::pool_size], main_sets[slot])
                        for slot, tid in enumerate(thread_ids)]
        # Main queues partition the operation's queues across the pool
        # (the modulo rule above), which is what lets the ready index
        # keep one heap per pool slot.  Low-degree operations stay on
        # the linear scan — see READY_INDEX_MIN_INSTANCES.
        if len(queues) >= READY_INDEX_MIN_INSTANCES:
            self.ready_index = ReadyIndex(self)
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
            thread = WorkerThread(tid, len(self.threads), self, now, [],
                                  frozenset())
            self.threads.append(thread)
            new_threads.append(thread)
            if self.ready_index is not None:
                self.ready_index.add_pool_slot()
        self.live_threads += len(new_threads)
        return new_threads

    def release(self) -> None:
        """Sever the back-pointers of a complete operation: its threads'
        ``operation`` and its fold offer's ``shared``.  Nothing steps it
        again, so its graph is acyclic from here on and goes with its
        last holder, by reference counting."""
        for thread in self.threads:
            thread.operation = None
        self.shared = None

    # -- input lifecycle --------------------------------------------------------

    def seed_triggers(self, at_time: float) -> None:
        """Enqueue the control activation(s) of every instance, close input.

        Classic triggered operators get one activation per queue; a
        chunked operator (``grain > 1``) gets one activation per
        fragment slice, so the unit of sequential work shrinks without
        changing the partitioning.
        """
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

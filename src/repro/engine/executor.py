"""The query executor.

Builds the extended view (operation runtimes, one queue per instance,
a thread pool per operation), prices the sequential start-up phase and
places data segments in local caches.  The workload engine
(:mod:`repro.workload.engine`) drives the discrete-event simulator
wave by wave across the plan's chain DAG with these builders;
:meth:`Executor.execute` is a workload of one query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter

from repro.compiler.parallelizer import CompiledQuery
from repro.engine.dbfuncs import make_dbfunc
from repro.engine.metrics import QueryExecution
from repro.engine.operation import DeliveryTap, OperationRuntime
from repro.engine.trace import ExecutionTrace
from repro.engine.strategies import RANDOM, make_strategy
from repro.errors import ExecutionError, ExecutionFaultError, PlanError
from repro.lera.activation import PIPELINED, TRIGGERED
from repro.lera.graph import PIPELINE, LeraGraph, LeraNode
from repro.lera.operators import AggregateSpec, PipelinedJoinSpec, StoreSpec
from repro.machine.cache import REMOTE_HOME
from repro.machine.machine import Machine
from repro.obs.bus import OP_SEED, OP_START, EventBus
from repro.storage.tuples import hash_partitions

#: Data placement policies for the Allcache model.
PLACEMENT_WARM = "warm"    # fragments start in their consumer's local cache
PLACEMENT_COLD = "cold"    # fragments start remote (Figure 8's "remote" run)
PLACEMENT_NONE = "none"    # no placement (uniform machines)
PLACEMENTS = (PLACEMENT_WARM, PLACEMENT_COLD, PLACEMENT_NONE)

#: Internal activation-cache defaults.  Triggered activations are whole
#: fragments, so batching is pointless.  Pipelined activations default
#: to single-tuple fetches too: the Section 4.1 analysis (and the
#: paper's measured skew-insensitivity) assumes the unit of work is one
#: activation — larger batches coarsen the tail and break the Tworst
#: bound.  A bigger cache trades that balance for fewer mutex
#: acquisitions; the ablation bench quantifies the trade.
DEFAULT_TRIGGERED_CACHE = 1
DEFAULT_PIPELINED_CACHE = 1


@dataclass(frozen=True)
class OperationSchedule:
    """Execution parameters of one operation (scheduler output)."""

    threads: int
    strategy: str = RANDOM
    cache_size: int | None = None
    allow_secondary: bool = True

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ExecutionError(f"threads must be >= 1, got {self.threads}")
        if self.cache_size is not None and self.cache_size < 1:
            raise ExecutionError(
                f"cache_size must be >= 1, got {self.cache_size}")


@dataclass(frozen=True)
class QuerySchedule:
    """Per-operation schedules for a whole plan."""

    operations: dict[str, OperationSchedule]

    @classmethod
    def for_plan(cls, plan: LeraGraph, threads: int,
                 strategy: str = RANDOM) -> "QuerySchedule":
        """Uniform schedule: every operation gets *threads* threads."""
        return cls({node.name: OperationSchedule(threads, strategy)
                    for node in plan.nodes})

    def of(self, name: str) -> OperationSchedule:
        try:
            return self.operations[name]
        except KeyError:
            raise ExecutionError(f"no schedule for operation {name!r}") from None

    def with_strategy(self, name: str, strategy: str) -> "QuerySchedule":
        """Copy with one operation's strategy replaced."""
        updated = dict(self.operations)
        updated[name] = replace(updated[name], strategy=strategy)
        return QuerySchedule(updated)


@dataclass(frozen=True)
class ObservabilityOptions:
    """What an execution records about itself.

    Grouped out of :class:`ExecutionOptions` so workload-level options
    can nest the same block instead of repeating the knobs.
    """

    trace: bool = False
    """Record an :class:`~repro.engine.trace.ExecutionTrace` (one event
    per activation) exposed as ``QueryExecution.trace``.  Per query,
    so ``ExecutionOptions`` only: ``WorkloadOptions`` refuses it."""
    observe: bool = False
    """Attach an :class:`~repro.obs.bus.EventBus` to the execution:
    structured events, time-series probes and counters end up on
    ``QueryExecution.obs`` (exportable via :mod:`repro.obs.export`).
    Implies span tracing, so ``QueryExecution.trace`` is also set.
    Virtual-time behaviour is unchanged; only wall clock pays."""
    monitors: tuple = ()
    """Streaming :class:`~repro.obs.monitor.Monitor` rules the workload
    engine evaluates at virtual-time control points (admission,
    regrant, wave barriers, query finish).  A non-empty tuple implies
    workload metrics (the rules read the registry); fired alerts land
    on ``WorkloadResult.alerts`` (:meth:`Executor.execute` evaluates
    them too, but returns no workload result to read them from)."""
    profile: bool = False
    """Self-profile the engine's *wall-clock* hot paths with an
    :class:`~repro.prof.profiler.EngineProfiler` exposed as
    ``WorkloadResult.profile``.  Measures the simulator, not the
    simulated system; virtual-time behaviour is unchanged."""

    def __post_init__(self) -> None:
        # A stray non-Monitor in the tuple used to surface only deep
        # inside the run as an AttributeError on .evaluate; fail at
        # construction instead, and accept any iterable while at it.
        from repro.obs.monitor import Monitor
        monitors = tuple(self.monitors)
        for rule in monitors:
            if not isinstance(rule, Monitor):
                raise ExecutionError(
                    f"monitors must contain Monitor rules, got "
                    f"{type(rule).__name__}: {rule!r}")
        object.__setattr__(self, "monitors", monitors)

    def replace(self, **changes) -> "ObservabilityOptions":
        """Copy with the given fields replaced (ergonomic twin of
        :func:`dataclasses.replace`)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ExecutionOptions:
    """Executor knobs orthogonal to the schedule.

    Observability flags live in the nested ``observability`` block.
    """

    placement: str = PLACEMENT_WARM
    queue_capacity: int | None = None
    seed: int = 0
    observability: ObservabilityOptions = field(
        default_factory=ObservabilityOptions)
    faults: object | None = None
    """Optional :class:`~repro.faults.plan.FaultPlan` to inject into
    the run.  ``None`` (the default) runs under the shared empty-plan
    injector :data:`~repro.faults.injector.NO_FAULTS`, so no plan and
    an empty plan take one path and give the same run bit for bit."""

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ExecutionError(
                f"unknown placement {self.placement!r}; expected "
                f"{PLACEMENTS}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ExecutionError(
                f"queue capacity must be >= 1, got {self.queue_capacity}")

    # Read-only views of the nested block, so call sites can keep
    # asking ``options.observe`` (non-annotated, hence not fields).
    @property
    def trace(self) -> bool:
        return self.observability.trace

    @property
    def observe(self) -> bool:
        return self.observability.observe

    def replace(self, **changes) -> "ExecutionOptions":
        """Copy with the given fields replaced (ergonomic twin of
        :func:`dataclasses.replace`)."""
        return replace(self, **changes)


class Executor:
    """Executes Lera-par plans on a machine model."""

    def __init__(self, machine: Machine | None = None,
                 options: ExecutionOptions | None = None) -> None:
        self.machine = machine or Machine.uniform()
        self.options = options or ExecutionOptions()

    # -- public API -------------------------------------------------------------

    def execute(self, plan: LeraGraph, schedule: QuerySchedule) -> QueryExecution:
        """Run *plan* under *schedule*; returns results plus metrics.

        A one-query workload under this executor's options: a lone
        query is granted its full demand, so *schedule* applies as
        written.  Raises :class:`~repro.errors.ExecutionFaultError`
        when an activation exhausts its fault retries.
        """
        from repro.workload.engine import QuerySubmission, WorkloadExecutor
        result = WorkloadExecutor(self.machine, self.options).execute(
            [QuerySubmission("q0", CompiledQuery.of_plan(plan), schedule)])
        if "q0" in result.errors:
            raise ExecutionFaultError(result.errors["q0"])
        return result.executions["q0"]

    # -- construction helpers (shared with the workload engine) -----------------

    def build_runtimes(self, plan: LeraGraph, schedule: QuerySchedule,
                       skip=()) -> dict[str, OperationRuntime]:
        """Instantiate the extended view for *plan*.

        ``skip`` names the nodes to leave out — the workload engine
        passes a query's fold set, so runtimes exist for just the nodes
        it executes privately (folded nodes ride on another query's
        runtimes).
        """
        runtimes: dict[str, OperationRuntime] = {}
        for node in plan.nodes:
            if node.name in skip:
                continue
            op_schedule = schedule.of(node.name)
            cache_size = op_schedule.cache_size
            if cache_size is None:
                cache_size = (DEFAULT_PIPELINED_CACHE
                              if node.trigger_mode == PIPELINED
                              else DEFAULT_TRIGGERED_CACHE)
            runtimes[node.name] = OperationRuntime(
                node=node,
                dbfunc=make_dbfunc(node.spec, self.machine.costs),
                strategy=make_strategy(op_schedule.strategy),
                cache_size=cache_size,
                queue_capacity=self.options.queue_capacity,
                allow_secondary=op_schedule.allow_secondary,
            )
        return runtimes

    def attach_observability(self, runtimes: dict[str, OperationRuntime],
                             bus: EventBus | None,
                             tracer: ExecutionTrace | None) -> None:
        """Point every runtime (and its queues) at *bus*/*tracer*.

        Must run before any trigger seeding so the queue-depth probe
        sees the seeding enqueues.  In a workload each query gets its
        own bus/tracer, which is what keeps per-query attribution
        intact inside the shared simulation.
        """
        for runtime in runtimes.values():
            runtime.bus = bus
            runtime.tracer = tracer
            if bus is not None:
                for queue in runtime.queues:
                    queue.obs = bus

    def prepare_wave(self, wave_ops: list[OperationRuntime],
                     counts: dict[str, int], start_time: float,
                     next_thread_id: int) -> tuple[int, int]:
        """Build pools and seed triggers for one wave of operations.

        ``counts`` maps operation name to pool size (the scheduler's
        per-operation allocation, possibly rescaled by a workload
        grant).  Thread ids are handed out sequentially starting at
        ``next_thread_id``; returns ``(next_thread_id, wave_threads)``.
        """
        wave_threads = 0
        for operation in wave_ops:
            count = counts[operation.name]
            thread_ids = list(range(next_thread_id, next_thread_id + count))
            next_thread_id += count
            wave_threads += count
            operation.build_pool(thread_ids, start_time)
            bus = operation.bus
            if bus is not None:
                if operation.ready_index is not None:
                    operation.ready_index.obs = bus
                bus.emit(OP_START, start_time, operation.name,
                         threads=count, instances=operation.instances,
                         strategy=operation.strategy.name,
                         cache_size=operation.cache_size)
            if operation.node.trigger_mode == TRIGGERED:
                operation.seed_triggers(start_time)
                if bus is not None:
                    bus.emit(OP_SEED, start_time, operation.name,
                             count=operation.pending_activations)
            self._place_segments(operation)
        return next_thread_id, wave_threads

    def wire_pipelines(self, plan: LeraGraph,
                       runtimes: dict[str, OperationRuntime]) -> None:
        """Connect the pipeline edges that have both ends in *runtimes*
        (an end left out of the build is another query's: it is tapped).
        The consumer's edge becomes the producer's own output edge."""
        for edge in plan.edges:
            if (edge.kind != PIPELINE or edge.producer not in runtimes
                    or edge.consumer not in runtimes):
                continue
            producer = runtimes[edge.producer]
            consumer = runtimes[edge.consumer]
            if producer.outputs[0].consumer is not None:
                raise PlanError(
                    f"operation {edge.producer!r} has two pipeline consumers")
            producer.outputs[0] = DeliveryTap(consumer,
                                              _router_for(consumer.node))
            consumer.producers_remaining += 1

    def check_buildable(self, plan: LeraGraph,
                        schedule: QuerySchedule) -> None:
        """Raise what :meth:`build_runtimes` and :meth:`wire_pipelines`
        would for this pair, building nothing: the workload engine builds
        at admission, but must refuse a pair before the first event."""
        for node in plan.nodes:
            op_schedule = schedule.of(node.name)
            make_dbfunc(node.spec, self.machine.costs)
            make_strategy(op_schedule.strategy)
        for edge in plan.edges:
            if edge.kind == PIPELINE:
                _router_for(plan.node(edge.consumer))

    def startup_time(self, runtimes: dict[str, OperationRuntime],
                     schedule: QuerySchedule) -> float:
        """:meth:`plan_startup` of the nodes *runtimes* were built for."""
        return self.plan_startup(
            [runtime.node for runtime in runtimes.values()], schedule)

    def plan_startup(self, nodes, schedule: QuerySchedule, skip=()) -> float:
        """Sequential initialization: create threads and queues.

        "Before the execution takes place, a sequential initialization
        step is necessary.  The duration of this step is proportional
        to the degree of parallelism."  Queue creation is also where
        the degree-of-partitioning overhead of Figure 16 originates.
        Needs the plan's *nodes* (less *skip*) and the schedule, nothing built.
        """
        costs = self.machine.costs
        total = 0.0
        for node in nodes:
            if node.name in skip:
                continue
            total += schedule.of(node.name).threads * costs.thread_create
            per_queue = (costs.queue_create_pipelined
                         if node.trigger_mode == PIPELINED
                         else costs.queue_create_triggered)
            total += node.instances * per_queue
        return total

    def _place_segments(self, operation: OperationRuntime) -> None:
        """Pre-place stored fragments in local caches per the policy."""
        if not self.machine.models_memory:
            return
        placement = self.options.placement
        if placement == PLACEMENT_NONE:
            return
        pool_size = len(operation.threads)
        for instance in range(operation.instances):
            if placement == PLACEMENT_WARM:
                owner = operation.threads[instance % pool_size].thread_id
            else:
                owner = REMOTE_HOME
            for key, size in operation.dbfunc.segments(instance):
                self.machine.place_segment(key, size, owner)


def _router_for(consumer: LeraNode):
    """Rows -> consumer-instance routing for a pipeline edge into the
    operation of node *consumer*: the router maps one activation's
    emitted rows to their instance numbers, in order.

    Uses the same stable hash as static partitioning, so a transmitted
    stream lines up with the statically partitioned stored operand (or
    the target fragments of a Store, or the group hash of an
    Aggregate).
    """
    spec = consumer.spec
    if isinstance(spec, PipelinedJoinSpec):
        position = spec.stream_key_position
    elif isinstance(spec, StoreSpec):
        position = spec.key_position
    elif isinstance(spec, AggregateSpec):
        if spec.group_position is None:
            return lambda rows: [0] * len(rows)  # global: one instance
        position = spec.group_position
    else:
        raise PlanError(
            f"operation {consumer.name!r} of type {type(spec).__name__} "
            f"cannot consume a pipeline")
    degree = spec.instances

    def route(rows, _key=itemgetter(position), _deg=degree) -> list[int]:
        return hash_partitions(map(_key, rows), _deg)

    return route

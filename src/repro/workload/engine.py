"""The multi-query workload engine.

Admits several compiled queries into **one** shared virtual-time
simulation.  Each query keeps its own plan, schedule and
observability bus; the machine — processors, dilation, the event heap —
is shared, so concurrent queries contend exactly the way the paper's
threads do inside one query.

Life of a query here:

1. **submit** at its arrival offset; it enters the wait queue, a
   :class:`~repro.serve.policies.WaitQueue` keyed by arrival unless a
   ``serving`` block picks priority or EDF order.
2. **admit** while fewer than ``max_concurrent`` queries run, head of
   the policy's order or nobody; only now are its runtimes
   built, and its sequential initialization is charged on the single
   init thread (start-ups of co-arriving queries serialize).
3. **grant**: "step 0" — :func:`~repro.scheduler.allocation
   .allocate_to_queries` splits the machine's thread budget across
   running queries by estimated complexity, capped at each query's
   own demand.  A lone query gets its full demand, so its schedule
   applies as written — :meth:`~repro.engine.executor.Executor.execute`
   is exactly that run.
4. **waves** run through the shared simulator; each wave's
   per-operation split rescales the query's own schedule to its
   current grant (largest-remainder, the paper's step-3 rule).
5. **re-grant**: when a query completes, its runtimes are let go and
   the freed capacity is redistributed, and still-running queries
   grow their *current* wave mid-flight with helper threads (pure
   secondary consumers — the paper's dynamic allocation generalized
   across queries).

Each of those instants is a named *control point* that
:class:`_WorkloadRun` fires exactly once, with the query and the facts
it has: the workload-bus kinds, the four monitor points, the ``fold``
pass, and ``wave.start``, whose consumer may rewrite the wave's thread
shares.  Telemetry, monitor rules and the adaptive controller
subscribe at run construction (:mod:`repro.workload.consumers`); a
feature that is off is not subscribed, so the core below carries no
per-feature tests.  The self-profiler wraps the methods it times, also
once at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import ExecutionOptions, Executor, QuerySchedule
from repro.engine.metrics import (
    STATUS_CANCELLED,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
    OperationMetrics,
    QueryExecution,
)
from repro.engine.operation import DeliveryTap, OperationRuntime
from repro.engine.simulator import Simulator
from repro.errors import ExecutionFaultError, WorkloadError
from repro.faults.injector import NO_FAULTS, FaultInjector
from repro.lera.operators import StoreSpec
from repro.machine.machine import Machine
from repro.obs.alerts import AlertBus
from repro.obs.bus import (
    QUERY_ABORT,
    QUERY_ADMIT,
    QUERY_CANCEL,
    QUERY_FINISH,
    QUERY_GRANT,
    QUERY_REJECT,
    QUERY_SUBMIT,
    SERVE_BACKPRESSURE,
    WAVE_END,
    WAVE_START,
    EventBus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    POINT_ADMISSION,
    POINT_FINISH,
    POINT_REGRANT,
    POINT_WAVE,
    MonitorEngine,
)
from repro.obs.explain import ScheduleExplanation
from repro.obs.spans import SpanSet, assemble_spans
from repro.adapt.controller import AdaptiveController
from repro.prof.profiler import EngineProfiler, active_profiler
from repro.scheduler.allocation import _largest_remainder, allocate_to_queries
from repro.scheduler.complexity import operator_complexity, query_complexity
from repro.serve.policies import (
    SHED_DEADLINE_INFEASIBLE,
    SHED_QUEUE_FULL,
    ServingPolicy,
    WaitQueue,
    provably_infeasible,
)
from repro.workload.consumers import POINT_FOLD, _MonitorFeed, _Telemetry
from repro.workload.options import POLICY_ADAPTIVE, WorkloadOptions
from repro.workload.sharing import FoldRegistry, SharedOperator, plan_folds

#: Job states.  The terminal ones reuse the ``QueryExecution`` status
#: strings, so a job's final state doubles as its execution's status.
QUEUED = "queued"
RUNNING = "running"
CANCELLING = "cancelling"    # drain requested, threads still unwinding
DONE = STATUS_DONE
CANCELLED = STATUS_CANCELLED
TIMED_OUT = STATUS_TIMED_OUT
FAILED = STATUS_FAILED
SHED = STATUS_SHED           # pre-admission: dropped under overload

#: States a job can legally end the run in.
TERMINAL_STATES = (DONE, CANCELLED, TIMED_OUT, FAILED, SHED)


@dataclass(frozen=True)
class QuerySubmission:
    """One query handed to the workload engine.

    Attributes:
        tag: Unique name; events and results are keyed by it.
        compiled: The compiled query (plan + result shaping).
        schedule: Its own four-step schedule — the per-operation
            thread demands step 0 rescales.
        arrival: Virtual-time submission offset (>= 0).
        timeout: Abort the query ``timeout`` virtual seconds after
            arrival (terminal state ``timed_out``), if it has not
            finished by then.
        cancel_at: Cancel the query at this absolute virtual time
            (terminal state ``cancelled``).  Must be >= ``arrival``;
            at exactly ``arrival`` the query is withdrawn before
            admission and never runs.
        priority: Serving priority class (higher is more important);
            read by the ``priority`` admission policy and the
            per-class latency labels.  Ignored without ``serving``.
        tenant: Serving tenant name; labels the per-tenant latency
            tails (:mod:`repro.workload.consumers`).  Ignored without
            ``serving``.
    """

    tag: str
    compiled: CompiledQuery
    schedule: QuerySchedule
    arrival: float = 0.0
    timeout: float | None = None
    cancel_at: float | None = None
    priority: int = 0
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise WorkloadError(
                f"arrival must be >= 0, got {self.arrival} for {self.tag!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise WorkloadError(
                f"timeout must be > 0, got {self.timeout} for {self.tag!r}")
        if self.cancel_at is not None and self.cancel_at < self.arrival:
            raise WorkloadError(
                f"cancel_at ({self.cancel_at}) must be >= arrival "
                f"({self.arrival}) for {self.tag!r}")
        if not self.tenant:
            raise WorkloadError(f"empty tenant for {self.tag!r}")


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of one executed workload."""

    executions: dict[str, QueryExecution]
    """Per-query execution (metrics, rows, obs), keyed by tag."""
    order: tuple[str, ...]
    """Tags in submission order."""
    makespan: float
    """Virtual time at which the last query finished."""
    bus: EventBus
    """Workload-level event stream: query.submit / query.admit /
    query.grant / query.finish (plus query.cancel / query.abort when
    faults or cancellation are in play), tagged with query names."""
    errors: dict[str, str] = field(default_factory=dict)
    """Abort messages for queries that ended ``failed``, keyed by tag."""
    metrics: MetricsRegistry | None = None
    """Workload telemetry registry (counters / gauges / latency
    histograms), populated when workload observability is on —
    ``WorkloadOptions(observability=ObservabilityOptions(observe=True))``
    or per-query ``observe``.  ``None`` when disabled: the telemetry
    consumer is then not subscribed to any control point."""
    spans: SpanSet | None = None
    """Per-query lifecycle spans assembled from :attr:`bus` after the
    run (same gating as :attr:`metrics`)."""
    alerts: AlertBus | None = None
    """Alerts fired by the streaming monitor rules, populated when
    ``ObservabilityOptions(monitors=...)`` is non-empty.  ``None`` when
    no rules are installed (nothing listens at the monitor points)."""
    profile: EngineProfiler | None = None
    """Wall-clock self-profile of the engine's own hot paths,
    populated when ``ObservabilityOptions(profile=True)``.  Measures
    the simulator, not the simulated system."""
    decisions: ScheduleExplanation | None = None
    """Mid-flight decision log of the adaptive controller (resplits
    and strategy switches with their evidence), populated when
    ``WorkloadOptions(scheduling="adaptive")``.  ``None`` under the
    static policy — the controller does not exist then."""

    def __post_init__(self) -> None:
        if self.makespan < 0:
            raise WorkloadError(f"negative makespan {self.makespan}")

    def report(self):
        """Aggregate telemetry as a
        :class:`~repro.obs.report.WorkloadReport` (requires the run to
        have been observed)."""
        from repro.obs.report import build_workload_report
        return build_workload_report(self)

    def render(self) -> str:
        """The workload as text: the event stream off :attr:`bus`
        (submissions, admissions, thread grants, finishes), one line
        per query, and the makespan."""
        lines = ["timeline (virtual time):"]
        for event in self.bus.events:
            detail = ", ".join(
                f"{k}={v}" for k, v in (event.data or {}).items())
            lines.append(f"  t={event.t:8.4f}  {event.kind:<13} "
                         f"{event.operation or '':<9} {detail}")
        lines.append("\nper query (response time from submission):")
        for tag in self.order:
            execution = self.executions[tag]
            folded = sum(1 for op in execution.operations.values()
                         if op.cost_share < 1.0)
            lines.append(
                f"  {tag:<9} {execution.status:<9} "
                f"rows={execution.result_cardinality:<6} "
                f"response={execution.response_time:.4f}s "
                f"peak {execution.total_threads} threads"
                + (f", {folded} shared op{'s' * (folded != 1)}"
                   if folded else ""))
        lines.append(f"\nmakespan     : {self.makespan:.4f}s virtual")
        return "\n".join(lines)

    @property
    def throughput(self) -> float:
        """Successfully completed queries per virtual second."""
        if self.makespan <= 0:
            raise WorkloadError("zero makespan")
        done = sum(1 for e in self.executions.values()
                   if e.status == STATUS_DONE)
        return done / self.makespan

    def status_of(self, tag: str) -> str:
        """Terminal status of one query: ``done`` / ``cancelled`` /
        ``timed_out`` / ``failed`` / ``shed``."""
        return self.execution(tag).status

    @property
    def mean_response_time(self) -> float:
        if not self.executions:
            raise WorkloadError("empty workload result")
        return (sum(e.response_time for e in self.executions.values())
                / len(self.executions))

    def execution(self, tag: str) -> QueryExecution:
        try:
            return self.executions[tag]
        except KeyError:
            raise WorkloadError(f"no query tagged {tag!r}") from None


class _JobShape:
    """What ``(plan, schedule, costs)`` alone decide about a job, its
    nodes' blueprints included; a run computes it once per pair it sees.
    A pair that could not be built raises here, before the first event.
    """

    def __init__(self, plan, schedule, executor: Executor,
                 shared: bool) -> None:
        self.plan, self.schedule, self.executor = plan, schedule, executor
        costs = executor.machine.costs
        plan.validate()
        self.waves = plan.chain_waves()
        self.wave_names = [[node.name for chain in wave
                            for node in chain.nodes] for wave in self.waves]
        self.stores = any(isinstance(node.spec, StoreSpec)
                          for node in plan.nodes)
        self.complexity = query_complexity(plan, costs)
        self.startup, self.wave_totals, self.demand = self.without(())
        self.blueprints = executor.blueprint(plan, schedule)
        #: Read only to price shared operators fractionally.
        self.node_complexities = {
            node.name: operator_complexity(node.spec, costs)
            for node in plan.nodes} if shared else None

    def without(self, folds) -> tuple[float, list[int], int]:
        """Start-up, per-wave thread totals and step-0 demand (more
        threads than the widest wave asks for could never be used) of
        the nodes outside *folds*: what folded rides free."""
        startup = self.executor.plan_startup(self.plan.nodes, self.schedule,
                                             skip=folds)
        totals = [sum([self.schedule.of(name).threads for name in names
                       if name not in folds]) for names in self.wave_names]
        return startup, totals, max(1, max(totals))


class _QueryJob:
    """Mutable per-query execution state inside one workload run.

    One lifecycle: *submitted* — it holds its shape's numbers and no
    runtime; *admitted* — :meth:`materialize` builds runtimes, wiring
    and observability for its fold set; *finished* — its metrics are
    frozen into ``execution`` and the run drops the runtimes again.
    """

    __slots__ = ("tag", "plan", "schedule", "arrival", "priority", "tenant",
                 "order", "deadline", "shape", "waves", "complexity",
                 "wave_totals", "demand", "startup", "runtimes", "folds",
                 "subscriptions", "hosted", "shared_results",
                 "current_wave_shared", "bus", "state", "wave_started_at",
                 "grant", "wave_index", "current_wave_ops", "wave_threads",
                 "max_threads", "max_dilation", "finished_at", "execution",
                 "outcome", "error", "cancel_requested_at", "__weakref__")

    def __init__(self, submission: QuerySubmission, order: int,
                 shape: _JobShape, exec_options: ExecutionOptions,
                 shared: bool) -> None:
        self.tag = submission.tag
        self.plan = submission.compiled.plan
        self.schedule = submission.schedule
        self.arrival = submission.arrival
        self.priority = submission.priority
        self.tenant = submission.tenant
        self.order = order
        candidates = []
        if submission.cancel_at is not None:
            candidates.append((submission.cancel_at, CANCELLED))
        if submission.timeout is not None:
            candidates.append((self.arrival + submission.timeout, TIMED_OUT))
        #: Earliest scheduled cancellation instant ``(t, outcome)``.
        self.deadline = min(candidates) if candidates else None
        self.shape = shape
        self.waves = shape.waves
        self.complexity = shape.complexity
        self.wave_totals = shape.wave_totals
        self.demand = shape.demand
        #: A shared-mode job learns its start-up with its fold set.
        self.startup = 0.0 if shared else shape.startup
        self.runtimes: dict[str, OperationRuntime] = {}
        #: Shared-work state.  All empty on the private path, so every
        #: sharing branch below reduces to the private behaviour.
        self.folds: dict[str, SharedOperator] = {}
        #: The distinct shared operators of ``folds``, first seen first.
        self.subscriptions: tuple[SharedOperator, ...] = ()
        self.hosted: list[SharedOperator] = []
        self.shared_results: dict[str, list] = {}
        self.current_wave_shared: list[SharedOperator] = []
        self.bus = EventBus() if exec_options.observe else None
        self.state = QUEUED
        self.wave_started_at = 0.0
        self.grant = 0
        self.wave_index = -1
        self.current_wave_ops: list[OperationRuntime] = []
        self.wave_threads = 0
        self.max_threads = 0
        self.max_dilation = 1.0
        self.finished_at: float | None = None
        self.execution: QueryExecution | None = None
        #: Terminal state this job is headed for while CANCELLING.
        self.outcome = DONE
        self.error: ExecutionFaultError | None = None
        self.cancel_requested_at: float | None = None

    def materialize(self, executor: Executor, registry: FoldRegistry | None,
                    folds: dict[str, SharedOperator], now: float) -> None:
        """Admission: build this query's private runtimes given its
        fold set — empty for a private job, which also offers no fold
        targets (*registry* is ``None``).

        Folded nodes get no runtimes — instead the host operator gains
        a delivery edge at each *frontier* folded node (one whose
        pipeline consumer is private, or which is terminal here).  An
        interior folded node needs no edge, its data flows inside the
        host's own wiring, but it subscribes all the same: the host's
        departure must not stop work a survivor still rides.  The
        query's start-up and demand are those of the private remainder.
        """
        plan = self.plan
        self.folds = folds
        if folds:
            self.subscriptions = tuple(dict.fromkeys(folds.values()))
        self.runtimes = executor.build_runtimes(self.shape.blueprints,
                                                skip=folds)
        executor.wire_pipelines(plan, self.runtimes)
        for name, shared in folds.items():
            consumer_name = plan.pipeline_consumer(name)
            if consumer_name is None:
                collector: list = []
                self.shared_results[name] = collector
                edge = DeliveryTap(collector=collector)
            elif consumer_name in folds:
                edge = None  # interior fold
            else:
                consumer = self.runtimes[consumer_name]
                edge = DeliveryTap(consumer, consumer.blueprint.router)
                consumer.producers_remaining += 1
            shared.attach(self.tag, edge)
        self.startup = self.shape.startup
        if folds:
            self.startup, self.wave_totals, self.demand = (
                self.shape.without(folds))
        executor.attach_observability(self.runtimes, self.bus)
        if registry is None:
            return
        # Offer this query's own shareable first-wave operators as fold
        # targets for later arrivals (first live entry wins; duplicate
        # subplans within one plan stay private).
        wave0 = {node.name for chain in self.waves[0] for node in chain.nodes}
        fingerprints = plan.fingerprints()
        for name, runtime in self.runtimes.items():
            fingerprint = fingerprints[name]
            if fingerprint is None or name not in wave0:
                continue
            shared = SharedOperator(
                runtime=runtime, host_tag=self.tag, fingerprint=fingerprint,
                complexity=self.shape.node_complexities[name])
            if registry.register(shared, now):
                self.hosted.append(shared)

    @property
    def effective_complexity(self) -> float:
        """Step-0 weight with shared operators priced fractionally.

        A subscriber pays ``complexity/len(active_tags)`` for each
        operator it folded onto; a host's own shared operators shrink
        the same way once they gain subscribers.  Without any sharing
        this is exactly :attr:`complexity`, keeping the private path
        bit-identical.
        """
        if not self.folds and not self.hosted:
            return self.complexity
        total = self.complexity
        # Each subscription is priced at its first fold, keeping the
        # sum's order.
        firsts = iter(self.subscriptions)
        upcoming = next(firsts, None)
        for name, shared in self.folds.items():
            total -= self.shape.node_complexities[name]
            if shared is upcoming:
                total += shared.complexity / max(1, len(shared.active_tags))
                upcoming = next(firsts, None)
        for shared in self.hosted:
            count = len(shared.active_tags)
            if count > 1:
                total -= shared.complexity * (count - 1) / count
        return max(total, 1e-9)

    def _share_of(self, runtime: OperationRuntime) -> float:
        """Metrics cost share of one of this query's own runtimes."""
        for shared in self.hosted:
            if shared.runtime is runtime and len(shared.all_tags) > 1:
                return 1.0 / len(shared.all_tags)
        return 1.0

    def build_execution(self, status: str = STATUS_DONE) -> QueryExecution:
        """Freeze metrics once the last wave finished.

        ``response_time`` is measured from *submission*, so it
        includes any admission-queue wait — for a query submitted at
        t=0 and admitted immediately (every ``Executor.execute`` run)
        it equals the absolute finish time.

        A non-``done`` status freezes a *partial* execution: only the
        operations that actually finished (normally or via a drain)
        contribute metrics, and ``result_rows`` holds whatever the
        final operator emitted before the query was stopped.

        With shared work in play, folded operators appear here under
        this query's node names, carrying the host runtime's raw
        counters at ``cost_share = 1/len(all subscribers)``; a host's
        own shared operators get the same fractional share.  Result
        rows of a folded terminal node come from its delivery edge's
        collector.
        """
        assert self.finished_at is not None
        operations: dict[str, OperationMetrics] = {}
        result_rows: list = []
        for node in self.plan.nodes:
            name = node.name
            shared = self.folds.get(name)
            if shared is not None:
                rt = shared.runtime
                if rt.finished_at is not None:
                    operations[name] = OperationMetrics.of(
                        rt, cost_share=1.0 / len(shared.all_tags), name=name)
                if name in self.shared_results:
                    result_rows.extend(self.shared_results[name])
            elif name in self.runtimes:  # else: left before admission
                rt = self.runtimes[name]
                if rt.finished_at is not None:
                    operations[name] = OperationMetrics.of(
                        rt, cost_share=self._share_of(rt))
                if rt.outputs[0].consumer is None:
                    result_rows.extend(rt.result_rows)
        return QueryExecution(
            response_time=self.finished_at - self.arrival,
            startup_time=self.startup,
            total_threads=self.max_threads,
            dilation=self.max_dilation,
            operations=operations,
            result_rows=result_rows,
            obs=self.bus,
            status=status,
        )


class WorkloadExecutor:
    """Executes a batch of submissions in one shared simulation."""

    def __init__(self, machine: Machine | None = None,
                 options: ExecutionOptions | None = None,
                 workload: WorkloadOptions | None = None) -> None:
        self.machine = machine or Machine.uniform()
        self.options = options or ExecutionOptions()
        self.workload = workload or WorkloadOptions()

    def execute(self, submissions: list[QuerySubmission]) -> WorkloadResult:
        """Run every submission; returns per-query executions + events."""
        tags = [s.tag for s in submissions]
        if len(set(tags)) != len(tags):
            raise WorkloadError(f"duplicate query tags in workload: {tags}")
        run = _WorkloadRun(self.machine, self.options, self.workload,
                           submissions)
        return run.run()


#: What a run without a ``serving`` block serves under: FIFO deque, no
#: queue bound.
_DEFAULT_SERVING = ServingPolicy()

#: Methods of a run the self-profiler times, by section name.  Applied
#: once at construction when a profiler is present (see
#: :meth:`~repro.prof.profiler.EngineProfiler.instrument`); an
#: unprofiled run has nothing wrapped.
_PROFILED_SECTIONS = {
    "_control": "control",
    "_assemble": "assemble",
    "_try_admit": "admission",
    "_plan_folds": "fold",
    "_grants": "allocate",
    "_start_wave": "wave_prep",
    "_advance_if_wave_done": "wave_barrier",
    "_refresh_grants": "regrant",
}


class _WorkloadRun:
    """One workload execution in flight (all mutable run state)."""

    def __init__(self, machine: Machine, exec_options: ExecutionOptions,
                 workload: WorkloadOptions,
                 submissions: list[QuerySubmission]) -> None:
        self.machine = machine
        self.workload = workload
        self.executor = Executor(machine, exec_options)
        #: Fold targets offered by shared-mode queries; stays empty
        #: (and every fold set with it) when ``shared`` is off.
        self.sharing = FoldRegistry()
        #: Computed once per input and kept on the run, to die with it:
        #: a job's shape per ``(plan, schedule)`` identity (one pair per
        #: template from ``build_submissions``), step 0 per running set.
        self._shapes: dict[tuple[int, int], _JobShape] = {}
        self._allocations: dict[tuple, list[int]] = {}
        self.jobs: list[_QueryJob] = []
        for order, s in enumerate(submissions):
            plan, pair = s.compiled.plan, (id(s.compiled.plan), id(s.schedule))
            if pair not in self._shapes:
                self._shapes[pair] = _JobShape(plan, s.schedule, self.executor,
                                               workload.shared)
            self.jobs.append(_QueryJob(s, order, self._shapes[pair],
                                       exec_options, workload.shared))
        self.bus = EventBus()
        #: Control point -> subscribed consumers, in registration
        #: order.  A feature that is off registers nothing.
        self._listeners: dict[str, list] = {}
        #: Monitor rules are a workload setting; non-empty rules
        #: imply metrics (the rules read the registry).
        rules = workload.observability.monitors
        self.metrics = (MetricsRegistry()
                        if exec_options.observe
                        or workload.observability.observe
                        or rules else None)
        if self.metrics is not None:
            _Telemetry(self, self.metrics)
        self.alerts: AlertBus | None = None
        if rules:
            monitors = MonitorEngine(rules, self.metrics)
            self.alerts = monitors.alerts
            _MonitorFeed(self, monitors)
        self.decisions: ScheduleExplanation | None = None
        if workload.scheduling == POLICY_ADAPTIVE:
            controller = AdaptiveController(self.bus)
            self.decisions = controller.explanation
            self.subscribe(POINT_WAVE, controller.observe_wave)
            self.subscribe(WAVE_START, controller.before_wave)
        self.budget = workload.thread_budget or machine.processors
        #: Self-profiling: an explicit ``profile=True`` option makes
        #: the run own a fresh profiler (started/stopped around
        #: :meth:`run`, so coverage is structural); an enclosing
        #: ``profile()`` block is picked up without owning it.
        self._profile_requested = workload.observability.profile
        ambient = active_profiler()
        self._own_profiler = self._profile_requested and ambient is None
        self.profiler = EngineProfiler() if self._own_profiler else ambient
        if self.profiler is not None:
            self.profiler.instrument(self, _PROFILED_SECTIONS)
        #: A run without a fault plan shares the empty plan's injector.
        faults = workload.faults
        injector = (NO_FAULTS if faults is None else
                    FaultInjector(faults, bus=self.bus, metrics=self.metrics))
        self.simulator = Simulator(machine, exec_options.seed, injector,
                                   self.profiler,
                                   self._on_operation_complete,
                                   self._on_query_abort)
        self.running: list[_QueryJob] = []
        #: That the caller asked for the serving layer is kept for the
        #: two outputs pinned to differ: priority/tenant on
        #: ``query.submit``, and the per-class latency labels.
        self.serving_requested = workload.serving is not None
        self.serving = workload.serving or _DEFAULT_SERVING
        self.queue = WaitQueue(self.serving)
        self._backpressure = False
        self.next_thread_id = 0
        #: The single sequential-initialization thread: start-ups of
        #: co-admitted queries serialize behind each other.
        self.startup_free_at = 0.0

    # -- control points ---------------------------------------------------------

    def subscribe(self, point: str, listener) -> None:
        """Call *listener* every time control point *point* fires."""
        self._listeners.setdefault(point, []).append(listener)

    def _notify(self, point: str, now: float, job: _QueryJob | None = None,
                **facts) -> None:
        """Fire one control point: ``listener(now, job, **facts)``."""
        for listener in self._listeners.get(point, ()):
            listener(now, job, **facts)

    def _emit(self, kind: str, now: float, job: _QueryJob | None = None,
              **facts) -> None:
        """Fire a workload-bus control point: record the event (tagged
        with the query, payload = *facts*), then tell its consumers."""
        self.bus.emit(kind, now, job.tag if job is not None else None,
                      **facts)
        for listener in self._listeners.get(kind, ()):
            listener(now, job, **facts)

    # -- outer loop -----------------------------------------------------------

    def run(self) -> WorkloadResult:
        if self._own_profiler:
            self.profiler.start()
        try:
            # Query arrivals plus scheduled cancellation / timeout
            # deadlines, in one merged timeline.  Arrivals sort before
            # deadlines at the same instant (a query cancelled at its
            # own arrival must exist before it can be withdrawn).
            timeline: list[tuple[float, int, int, str | None]] = []
            for job in self.jobs:
                timeline.append((job.arrival, 0, job.order, None))
                deadline = job.deadline
                if deadline is not None:
                    timeline.append((deadline[0], 1, job.order, deadline[1]))
            timeline.sort()
            for now, batch in groupby(timeline, key=itemgetter(0)):
                # Drain the simulation up to (and including) the
                # control instant, so admission sees the machine state
                # at that virtual time — completions at t <= now
                # already applied.
                self.simulator.run(until=now)
                self._control(now, batch)
            self.simulator.run()
            return self._assemble()
        finally:
            if self._own_profiler:
                self.profiler.stop()
            # Drop what points back at the run (the simulator's
            # callbacks, the consumers' subscriptions, the profiler's
            # wrappers), so reference counting frees it once its
            # caller lets go.
            if self.profiler is not None:
                self.profiler.restore()
            self.simulator.on_operation_complete = None
            self.simulator.on_query_abort = None
            self._listeners = {}

    def _control(self, now: float, batch) -> None:
        """Apply one instant's arrivals, then its deadlines, then admit.

        Deadlines apply before admission: a query cancelled at its
        arrival instant is withdrawn from the wait queue and never
        touches the machine.
        """
        self._maybe_recycle_thread_ids()
        arrived = False
        for _, _, order, outcome in batch:
            job = self.jobs[order]
            if outcome is None:
                self._submit(job, now)
                arrived = True
            else:
                self._apply_deadline(job, now, outcome)
        if arrived:
            self._try_admit(now)

    def _assemble(self) -> WorkloadResult:
        stuck = {job.tag: [op.name for op in job.current_wave_ops
                           if not op.complete]
                 for job in self.jobs if job.state not in TERMINAL_STATES}
        if stuck:
            raise WorkloadError(
                f"workload did not complete: queries {list(stuck)} never "
                f"finished (deadlock or admission starvation); unfinished "
                f"operations per query: {stuck}")
        executions = {job.tag: job.execution for job in self.jobs}
        return WorkloadResult(
            executions=executions,
            order=tuple(job.tag for job in self.jobs),
            makespan=max((job.finished_at for job in self.jobs),
                         default=0.0),
            bus=self.bus,
            errors={job.tag: str(job.error) for job in self.jobs
                    if job.error is not None},
            metrics=self.metrics,
            spans=(assemble_spans(self.bus, executions)
                   if self.metrics is not None else None),
            alerts=self.alerts,
            profile=self.profiler if self._profile_requested else None,
            decisions=self.decisions,
        )

    def _maybe_recycle_thread_ids(self) -> None:
        """Reset thread-id allocation when the machine is quiescent.

        With nothing running and nothing queued, every prior thread
        has terminated, so a query arriving now can reuse ids from 0 —
        giving it the *same* thread ids (hence bit-identical events
        and spans) as if the earlier queries had never been submitted.
        That is what makes cancellation side-effect-free for late
        survivors.  Allcache machines are exempt: thread ids name
        per-processor local caches there, and reusing an id would
        alias warmed cache state that a fresh run would not have.
        """
        if (self.next_thread_id and not self.running and not self.queue
                and self.machine.directory is None):
            self.next_thread_id = 0
            self.startup_free_at = 0.0

    # -- arrival and pre-admission exits ---------------------------------------

    def _submit(self, job: _QueryJob, now: float) -> None:
        """One arrival: into the wait queue."""
        facts = {"demand": job.demand}
        if self.serving_requested:
            facts.update(priority=job.priority, tenant=job.tenant)
        self.queue.push(job)
        self._emit(QUERY_SUBMIT, now, job, **facts)

    def _leave_unadmitted(self, job: _QueryJob, now: float, outcome: str,
                          kind: str, **facts) -> None:
        """Terminal path of a query that never ran (withdrawn or shed):
        it freezes an empty execution carrying *outcome*,
        fires the terminal event *kind*, and reaches the same
        ``finish`` point as every other outcome — so conservation
        (every submission reaches exactly one terminal state) holds by
        construction.  The caller has already taken the job off the
        wait queue."""
        job.state = outcome
        job.finished_at = now
        job.execution = job.build_execution(status=outcome)
        self._emit(kind, now, job, **facts)
        self._notify(POINT_FINISH, now, job, status=outcome)

    def _shed(self, job: _QueryJob, now: float, reason: str) -> None:
        """Terminate a never-admitted query as ``shed``."""
        self._leave_unadmitted(job, now, SHED, QUERY_REJECT,
                               status=SHED, reason=reason)

    # -- cancellation / abort --------------------------------------------------

    def _apply_deadline(self, job: _QueryJob, now: float,
                        outcome: str) -> None:
        """Cancel or time out one query at its requested instant.

        A queued query is withdrawn immediately.  A running one enters
        ``CANCELLING``: its pending activations are discarded *now*,
        but threads are cooperative — each finishes its in-flight
        activation and then terminates, so the terminal bookkeeping
        happens in :meth:`_on_operation_complete` when the truncated
        wave reaches its forced boundary.
        """
        if job.state not in (QUEUED, RUNNING):
            return  # already finished, failed, or being drained
        reason = "timeout" if outcome == TIMED_OUT else "cancel"
        if job.state == QUEUED:
            self.queue.pop(job)
            self._leave_unadmitted(job, now, outcome, QUERY_CANCEL,
                                   reason=reason, admitted=False,
                                   discarded=0)
            return
        job.state = CANCELLING
        job.outcome = outcome
        job.cancel_requested_at = now
        self._release_shared(job, now)
        discarded = self.simulator.drain_operations(job.current_wave_ops, now)
        self._emit(QUERY_CANCEL, now, job, reason=reason, admitted=True,
                   discarded=discarded)
        self._finish_if_unwound(job)

    def _on_query_abort(self, operation: OperationRuntime,
                        error: ExecutionFaultError, at: float) -> None:
        """Simulator callback: an activation exhausted its retries.

        The owning query fails cleanly — its wave is drained and its
        capacity eventually regranted to survivors — instead of the
        fault tearing down the whole workload.
        """
        job, shared = operation.job, operation.shared
        if job is None and shared is None:
            raise error
        cohort: list[_QueryJob] = []
        if job is not None and job.state != CANCELLING:
            cohort.append(job)
        if shared is not None:
            # A shared operator failed: every live subscriber loses the
            # rows it was counting on, so the whole cohort aborts.
            shared.dead = True
            for other in self.jobs:
                if (other is not job and other.tag in shared.active_tags
                        and other.state == RUNNING):
                    cohort.append(other)
        if not cohort:
            return  # already draining; the failing thread just winds down
        for member in cohort:
            member.state = CANCELLING
            member.outcome = FAILED
            member.error = error if member is job else ExecutionFaultError(
                f"shared operation {operation.name!r} (hosted by "
                f"{shared.host_tag!r}) aborted: {error}")
            member.cancel_requested_at = at
        for member in cohort:
            self._release_shared(member, at, detach=False)
        for member in cohort:
            discarded = self.simulator.drain_operations(
                member.current_wave_ops, at)
            self._emit(QUERY_ABORT, at, member, error=str(member.error),
                       failed_operation=operation.name, discarded=discarded)
        for member in cohort:
            self._finish_if_unwound(member)

    def _release_shared(self, job: _QueryJob, now: float,
                        detach: bool = True) -> None:
        """Unsubscribe *job* from every shared operator it touches.

        Subscriptions: this query's edges deactivate (the host stops
        delivering to it) and the reference count drops; an operator
        whose host already detached and whose last subscriber just
        left is an orphan and is drained.  Hosted operators: with
        surviving subscribers the runtime is *detached* — it leaves the
        host's drain set and keeps running for the survivors, and its
        own edge (with its enqueue charge) stops unless that edge feeds
        another operator the survivors ride; without survivors it stays
        in the host's wave and is drained with it.  Idempotent, and a
        no-op for a query that folded and hosts nothing.

        A detached runtime's records (its queues' too) move to the
        event stream of its first-submitted survivor, what it emitted
        before the detach included: that query's execution reports the
        operator, so all its threads' finishes land on one appearance.
        """
        detached: list[OperationRuntime] = []
        for shared in job.hosted:
            shared.active_tags.discard(job.tag)
            shared.dead = True
            runtime = shared.runtime
            if (detach and shared.active_tags and runtime.threads
                    and not runtime.complete):
                shared.detached = True
                detached.append(runtime)
                carrier = next(other for other in self.jobs
                               if other.tag in shared.active_tags)
                if runtime.bus is not None:
                    runtime.bus.hand_over(runtime.name, carrier.bus)
                runtime.bus = carrier.bus
                for queue in runtime.queues:
                    queue.obs = carrier.bus
        for runtime in detached:
            own = runtime.outputs[0]
            own.active = own.consumer in detached
            if runtime in job.current_wave_ops:
                job.current_wave_ops.remove(runtime)
        for shared in job.subscriptions:
            shared.active_tags.discard(job.tag)
            for edge in shared.edges.pop(job.tag, ()):
                # An edge into an operator the survivors ride keeps
                # feeding it, or its input would never close.
                edge.active = edge.consumer in detached
            if job in shared.waiters:
                shared.waiters.remove(job)
            runtime = shared.runtime
            if (not shared.active_tags and shared.detached
                    and not runtime.complete):
                self.simulator.drain_operations([runtime], now)

    def _finish_if_unwound(self, job: _QueryJob) -> None:
        """Terminate a CANCELLING query whose truncated wave has nothing
        left to unwind.  A drained wave completes operation by
        operation as each thread finishes its in-flight activation;
        a wave emptied by detaching shared operators (or one that was
        only waiting on shared work) has no thread left at all."""
        if (job.state != CANCELLING
                or any(not op.complete for op in job.current_wave_ops)):
            return
        finish = max((op.finished_at for op in job.current_wave_ops),
                     default=job.cancel_requested_at)
        self._finish(job, max(finish, job.cancel_requested_at))

    # -- serving / overload protection ----------------------------------------

    def _enforce_queue_bound(self, now: float) -> None:
        """Shed down to the bounded queue and signal backpressure.

        Runs after every admission pass (arrivals are the only thing
        that grows the queue, and they always trigger one).  The
        victim is the waiter the policy would admit last — youngest,
        lowest-priority/youngest, or least urgent — and only QUEUED
        queries are shed, which is what keeps shedding cohort-safe
        under shared-work execution: folds happen at admission, so a
        waiter holds no shared subscriptions yet.
        """
        limit = self.serving.queue_limit
        if limit is None:
            return
        while len(self.queue) > limit:
            victim = self.queue.victim()
            self.queue.pop(victim)
            self._shed(victim, now, SHED_QUEUE_FULL)
        engaged = len(self.queue) >= limit
        if engaged != self._backpressure:
            self._backpressure = engaged
            self._emit(SERVE_BACKPRESSURE, now, engaged=engaged,
                       depth=len(self.queue), limit=limit)

    # -- admission ------------------------------------------------------------

    def _try_admit(self, now: float) -> None:
        """Admit as many queued queries as capacity allows, in the
        admission policy's order, then enforce the queue bound.

        Co-admissible queries (e.g. simultaneous arrivals at t=0)
        are admitted as one *batch*: grants are computed once over
        the whole new running set before any of their first waves
        launch, so step 0's proportional split applies to all of
        them — the first arrival does not grab its full demand just
        because it was popped first.
        """
        shared = self.workload.shared
        admitted: list[_QueryJob] = []
        while True:
            job = self.queue.peek()
            if job is None:
                break
            folds = self._plan_folds(job, now) if shared else {}
            if self.queue.sheds_infeasible:
                if shared:
                    # The start-up its fold set leaves, as a private
                    # job knows it from submission.
                    job.startup = job.shape.without(folds)[0]
                if provably_infeasible(job, now):
                    # EDF: the head's sequential start-up alone already
                    # overruns its deadline — admitting it would only
                    # burn machine time on work guaranteed to time out.
                    self.queue.pop(job)
                    self._shed(job, now, SHED_DEADLINE_INFEASIBLE)
                    continue
            if len(self.running) >= self.workload.max_concurrent:
                # Something runs: its completion admits again.
                break
            if job.shape.stores and any(other.plan is job.plan
                                        for other in self.running):
                raise WorkloadError(
                    f"query {job.tag!r} would interleave Store targets with a "
                    f"running execution of its plan; build one plan per query")
            self.queue.pop(job)
            job.materialize(self.executor, self.sharing if shared else None,
                            folds, now)
            if shared:
                self._notify(POINT_FOLD, now, job, folds=folds)
            job.state = RUNNING
            self.running.append(job)
            admitted.append(job)
        if admitted:
            self._launch(admitted, now)
        self._enforce_queue_bound(now)

    def _plan_folds(self, job: _QueryJob,
                    now: float) -> dict[str, SharedOperator]:
        """Fold pass of a shared-mode query: which subplans ride on
        running work."""
        return plan_folds(job.plan, self.sharing, now)

    def _launch(self, admitted: list[_QueryJob], now: float) -> None:
        """Grant the just-admitted batch and start its first waves."""
        grants = self._grants()
        for job in admitted:
            job.grant = grants[job.tag]
            # The folds payload names the hosting query of every folded
            # node — the span model's subscriber->host link.  Only
            # attached when non-empty, so unfolded admissions keep the
            # plain payload.
            extra = ({"folds": {name: shared.host_tag
                                for name, shared in job.folds.items()}}
                     if job.folds else {})
            self._emit(QUERY_ADMIT, now, job, running=len(self.running),
                       queued=len(self.queue), **extra)
            self._emit(QUERY_GRANT, now, job, threads=job.grant,
                       budget=self.budget, reason="admission")
        self._notify(POINT_ADMISSION, now, admitted=admitted)
        # Queries admitted earlier shrink to their new fair share —
        # applied at their next wave boundary (running pools are never
        # revoked mid-wave).  Growth (an admission triggered by a
        # completion can leave a survivor with a *larger* share) is
        # left to the _refresh_grants pass that follows every
        # completion, which also recruits helper threads.
        for job in self.running:
            if job in admitted or grants[job.tag] >= job.grant:
                continue
            job.grant = grants[job.tag]
            self._emit(QUERY_GRANT, now, job, threads=job.grant,
                       budget=self.budget, reason="shrink")
        for job in admitted:
            # A query with nothing of its own to start (every operator
            # folded) does not queue for the initialization thread:
            # waiting there, it could finish past the event loop's
            # clock and the workload bus would run backwards.
            begin = now
            if job.startup:
                begin = max(now, self.startup_free_at)
                self.startup_free_at = begin + job.startup
            self._start_wave(job, begin + job.startup)

    def _grants(self) -> dict[str, int]:
        """Step 0 over the currently running set.

        Weights are :attr:`_QueryJob.effective_complexity`: shared
        operators count fractionally toward every subscriber, so a
        query riding mostly on folded work asks for (and is granted)
        proportionally less of the machine.  Without sharing the
        property degenerates to the plain complexity.
        """
        demands = [job.demand for job in self.running]
        weights = [job.effective_complexity for job in self.running]
        # A pure function of these (the budget is the run's).
        key = (*demands, *weights)
        grants = self._allocations.get(key)
        if grants is None:
            grants = self._allocations[key] = allocate_to_queries(
                self.budget, demands, weights)
        return {job.tag: grant
                for job, grant in zip(self.running, grants)}

    # -- waves ---------------------------------------------------------------

    def _start_wave(self, job: _QueryJob, at: float) -> None:
        """Start the next wave of *job*.

        Only the query's *own* (unfolded) operations get pools and
        threads; each wave's per-operation split rescales the query's
        schedule to its current grant, and a ``wave.start`` consumer
        (the adaptive controller) may rewrite it.  Shared operators the
        query rides on are tracked in ``current_wave_shared`` and the
        wave completes when both sets do (a pending shared runtime
        registers this job as a waiter).  A wave whose work is
        entirely folded-and-finished advances immediately — possibly
        through several waves, or straight to completion for a fully
        duplicate query.
        """
        while True:
            job.wave_index += 1
            job.wave_started_at = at
            names = job.shape.wave_names[job.wave_index]
            own_ops = [job.runtimes[name] for name in names
                       if name not in job.folds]
            shared_list = list(dict.fromkeys(
                job.folds[name] for name in names
                if name in job.folds)) if job.folds else []
            job.current_wave_shared = shared_list
            wave_threads = 0
            if own_ops:
                base = [job.schedule.of(op.name).threads for op in own_ops]
                base_total = sum(base)
                wave_total = min(base_total, max(job.grant, len(own_ops)))
                # A grant covering the demand applies the schedule
                # verbatim (largest-remainder over integer weights is
                # exact, but skipping it keeps the fact obvious).
                shares = (base if wave_total == base_total
                          else _largest_remainder(wave_total, base))
                for rewrite in self._listeners.get(WAVE_START, ()):
                    shares = rewrite(at, job, own_ops, shares)
                self.next_thread_id, wave_threads = self.executor.prepare_wave(
                    own_ops, shares, at, self.next_thread_id)
                job.max_dilation = max(job.max_dilation,
                                       self.machine.dilation(wave_threads))
            job.current_wave_ops = own_ops
            job.wave_threads = wave_threads
            job.max_threads = max(job.max_threads, wave_threads)
            for op in own_ops:
                op.job = job
            if job.bus is not None:
                # ``shared`` names the operators ridden this wave; the
                # key exists only for a query that folded something.
                extra = ({"shared": [s.runtime.name for s in shared_list]}
                         if job.folds else {})
                job.bus.emit(WAVE_START, at, wave=job.wave_index,
                             operations=[op.name for op in own_ops],
                             **extra, threads=wave_threads)
            if own_ops:
                self.simulator.add_operations(own_ops)
            pending = [s for s in shared_list if not s.runtime.complete]
            for shared in pending:
                shared.waiters.append(job)
            if own_ops or pending:
                return
            # Everything in this wave folded onto already-finished
            # work: close it and move on (or finish the query).
            finish = max((s.runtime.finished_at for s in shared_list),
                         default=at)
            finish = max(finish, at)
            if job.bus is not None:
                job.bus.emit(WAVE_END, finish, wave=job.wave_index)
            if job.wave_index + 1 >= len(job.waves):
                self._finish(job, finish)
                return
            at = finish

    def _on_operation_complete(self, operation: OperationRuntime) -> None:
        shared = operation.shared
        if shared is not None and shared.waiters:
            waiters, shared.waiters = shared.waiters, []
            for waiter in waiters:
                self._advance_if_wave_done(waiter)
        job = operation.job
        if job is None:
            return
        self._advance_if_wave_done(job)

    def _advance_if_wave_done(self, job: _QueryJob) -> None:
        """Advance (or terminate) *job* if its current wave is done.

        A wave is done when every own operation is complete and — for
        shared-work queries — every shared operator it rides on in
        this wave is too.
        """
        if job.state != RUNNING:
            self._finish_if_unwound(job)
            return
        if any(not op.complete for op in job.current_wave_ops):
            return
        for shared in job.current_wave_shared:
            if not shared.runtime.complete:
                return
        finishes = [op.finished_at for op in job.current_wave_ops]
        finishes.extend(s.runtime.finished_at
                        for s in job.current_wave_shared)
        finish = max(max(finishes), job.wave_started_at)
        if job.bus is not None:
            job.bus.emit(WAVE_END, finish, wave=job.wave_index)
        self._notify(POINT_WAVE, finish, job)
        if job.wave_index + 1 < len(job.waves):
            self._start_wave(job, finish)
        else:
            self._finish(job, finish)

    def _finish(self, job: _QueryJob, finish: float) -> None:
        """The terminal path of every admitted query, whatever its
        outcome: ``done`` after its last wave, or the outcome it was
        stopped for once the truncated wave has unwound."""
        outcome = job.outcome
        job.state = outcome
        job.finished_at = finish
        status = {}
        if outcome == DONE:
            self._release_shared(job, finish)
        else:
            # A stopped query released its shared work when it was
            # stopped; its finish event says what it ended as.
            status = {"status": outcome}
        job.execution = job.build_execution(status=outcome)
        # Metrics are frozen: let the runtimes and the shared operators
        # go (a hosted operator with live subscribers lives on through
        # their jobs).
        for runtime in job.runtimes.values():
            runtime.job = None
        job.runtimes = {}
        job.current_wave_ops = []
        job.folds = {}
        job.subscriptions = ()
        job.hosted = []
        job.current_wave_shared = []
        job.shared_results = {}
        self.running.remove(job)
        self._emit(QUERY_FINISH, finish, job,
                   response_time=finish - job.arrival,
                   threads=job.max_threads, **status)
        self._notify(POINT_FINISH, finish, job, status=outcome)
        # Freed capacity: first let queued queries in, then re-grant
        # the remaining budget across everyone still running.  With
        # zero survivors there is nothing to re-grant and no event to
        # emit — the workload bus ends on this query.finish.
        self._try_admit(finish)
        if self.running:
            self._refresh_grants(finish)

    # -- dynamic reallocation ---------------------------------------------------

    def _refresh_grants(self, now: float) -> None:
        grants = self._grants()
        for job in self.running:
            new = grants[job.tag]
            if new == job.grant:
                continue
            grew = new > job.grant
            job.grant = new
            self._emit(QUERY_GRANT, now, job, threads=new, budget=self.budget,
                       reason="regrant" if grew else "shrink")
            if grew and job.current_wave_ops:
                self._grow_current_wave(job, now)
        self._notify(POINT_REGRANT, now)

    def _grow_current_wave(self, job: _QueryJob, now: float) -> None:
        """Add helper threads to the job's in-flight wave.

        The wave was sized under an older, smaller grant; the deficit
        is covered by fresh threads joining the pools of still-running
        operations as pure secondary consumers (they own no main
        queues), weighted toward the operations with the most pending
        work — the inter-query version of the paper's "threads of an
        idle pool help the busy ones".
        """
        eligible = [op for op in job.current_wave_ops
                    if not op.complete and op.allow_secondary]
        if not eligible:
            return
        base_total = job.wave_totals[job.wave_index]
        deficit = min(job.grant, base_total) - job.wave_threads
        if deficit <= 0:
            return
        weights = [op.pending_activations + 1.0 for op in eligible]
        shares = _largest_remainder(deficit, weights, minimum=0)
        granted = 0
        for op, share in zip(eligible, shares):
            if share <= 0:
                continue
            thread_ids = list(range(self.next_thread_id,
                                    self.next_thread_id + share))
            self.next_thread_id += share
            helpers = op.add_threads(thread_ids, now)
            self.simulator.add_threads(op, helpers)
            granted += share
            self._emit(QUERY_GRANT, now, job, threads=share, pool=op.name,
                       reason="helpers")
        job.wave_threads += granted
        job.max_threads = max(job.max_threads, job.wave_threads)
        job.max_dilation = max(job.max_dilation,
                               self.machine.dilation(job.wave_threads))

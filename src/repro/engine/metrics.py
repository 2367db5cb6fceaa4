"""Execution metrics.

Everything the experiments report is derived from here: response
times, per-operation activation-cost profiles (which plug straight
into the Section 4.1 analytical model via
:class:`~repro.analysis.formulas.OperatorProfile`), thread
utilization, queue-machinery counters and Allcache penalties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.formulas import OperatorProfile
from repro.engine.operation import OperationRuntime
from repro.engine.trace import ExecutionTrace
from repro.errors import ExecutionError
from repro.obs.bus import EventBus
from repro.storage.tuples import Row

#: Terminal states of a query execution.  ``STATUS_DONE`` is the only
#: one ``Executor.execute`` returns (a failed run raises); the others
#: come from the workload layer's cancellation/timeout/fault-abort
#: paths — ``rejected`` / ``shed`` from the serving layer's admission and
#: overload-protection decisions (the query never touched the machine).
STATUS_DONE = "done"
STATUS_CANCELLED = "cancelled"
STATUS_TIMED_OUT = "timed_out"
STATUS_FAILED = "failed"
STATUS_REJECTED = "rejected"
STATUS_SHED = "shed"


@dataclass(frozen=True)
class OperationMetrics:
    """Measured behaviour of one operation."""

    name: str
    trigger_mode: str
    instances: int
    threads: int
    strategy: str
    started_at: float
    finished_at: float
    activation_costs: tuple[float, ...]
    activation_outputs: tuple[int, ...]
    queue_activations: tuple[int, ...]
    busy_time: float
    idle_time: float
    polls: int
    enqueues: int
    dequeue_batches: int
    secondary_accesses: int
    memory_penalty: float
    result_count: int
    #: Fault-layer accounting (all zero on fault-free runs): failed
    #: attempts injected, retries re-enqueued, attempts that aborted
    #: the query, activations discarded by a cancellation/abort drain,
    #: and virtual time frozen by injected stalls.
    faults_injected: int = 0
    fault_retries: int = 0
    fault_aborts: int = 0
    discarded: int = 0
    stalled_time: float = 0.0
    cost_share: float = 1.0
    """Fraction of this operation's cost attributed to the owning
    query.  1.0 for private operations; a shared (folded) operation
    appears in every subscriber's execution with the same raw
    counters but ``cost_share = 1/len(subscribers)``, so that
    :attr:`work` sums to the work actually performed."""

    @classmethod
    def of(cls, runtime: OperationRuntime, cost_share: float = 1.0,
           name: str | None = None) -> "OperationMetrics":
        if runtime.finished_at is None:
            raise ExecutionError(
                f"operation {runtime.name!r} did not finish")
        return cls(
            name=runtime.name if name is None else name,
            trigger_mode=runtime.node.trigger_mode,
            instances=runtime.instances,
            threads=len(runtime.threads),
            strategy=runtime.strategy.name,
            started_at=runtime.started_at,
            finished_at=runtime.finished_at,
            activation_costs=tuple(runtime.activation_costs),
            activation_outputs=tuple(runtime.activation_outputs),
            queue_activations=tuple(q.enqueued for q in runtime.queues),
            busy_time=sum(t.busy_time for t in runtime.threads),
            idle_time=sum(t.idle_time for t in runtime.threads),
            polls=runtime.polls,
            enqueues=runtime.enqueues,
            dequeue_batches=runtime.dequeue_batches,
            secondary_accesses=runtime.secondary_accesses,
            memory_penalty=runtime.memory_penalty,
            result_count=len(runtime.result_rows),
            faults_injected=runtime.faults_injected,
            fault_retries=runtime.fault_retries,
            fault_aborts=runtime.fault_aborts,
            discarded=runtime.discarded,
            stalled_time=sum(t.stalled_time for t in runtime.threads),
            cost_share=cost_share,
        )

    @property
    def response_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def activations(self) -> int:
        return len(self.activation_costs)

    @property
    def work(self) -> float:
        """Sequential (un-dilated) activation cost attributed to the
        owning query (raw cost scaled by :attr:`cost_share`)."""
        return sum(self.activation_costs) * self.cost_share

    @property
    def emitted(self) -> int:
        """Total rows emitted across activations (routed or results)."""
        return sum(self.activation_outputs)

    def queue_imbalance(self) -> float:
        """Max/mean activations per queue (1.0 = even placement).

        The redistribution-skew (RS) signature of Walton's taxonomy:
        a transmit that floods few consumer queues shows up here.
        """
        total = sum(self.queue_activations)
        if total == 0 or not self.queue_activations:
            return 1.0
        mean = total / len(self.queue_activations)
        return max(self.queue_activations) / mean

    def profile(self) -> OperatorProfile:
        """Cost profile for the Section 4.1 analytical model."""
        return OperatorProfile.of(self.activation_costs)

    @property
    def utilization(self) -> float:
        """Busy fraction of the pool over the operation's lifetime."""
        span = self.response_time * self.threads
        if span <= 0:
            return 0.0
        return self.busy_time / span


@dataclass(frozen=True)
class QueryExecution:
    """Full outcome of one query execution.

    ``result_rows`` is the real relational result; ``response_time``
    is the virtual wall clock from query submission to the last
    operation finishing, including the sequential start-up phase.
    """

    response_time: float
    startup_time: float
    total_threads: int
    dilation: float
    operations: dict[str, OperationMetrics]
    result_rows: list[Row] = field(repr=False)
    trace: ExecutionTrace | None = field(default=None, repr=False)
    """Per-activation events, present when tracing was enabled."""
    obs: EventBus | None = field(default=None, repr=False)
    """Structured events, probe series and counters, present when the
    execution ran with ``ObservabilityOptions(observe=True)``; export via
    :mod:`repro.obs.export`."""
    status: str = STATUS_DONE
    """Terminal state: ``done``, or — for workload queries —
    ``cancelled`` / ``timed_out`` / ``failed``.  Non-done executions
    carry partial metrics (only the operations that ran)."""

    @property
    def result_cardinality(self) -> int:
        return len(self.result_rows)

    def operation(self, name: str) -> OperationMetrics:
        try:
            return self.operations[name]
        except KeyError:
            raise ExecutionError(f"no metrics for operation {name!r}") from None

    @property
    def work(self) -> float:
        """Total sequential work across operations (un-dilated).

        This is the perfect-sequential execution time — the ``Tseq``
        baseline of the speed-up figures (no queue machinery, no
        start-up, no idling).
        """
        return sum(op.work for op in self.operations.values())

    @property
    def total_activations(self) -> int:
        return sum(op.activations for op in self.operations.values())

    def speedup_against(self, sequential_time: float) -> float:
        """``Tseq / response_time``."""
        if self.response_time <= 0:
            raise ExecutionError("response time is zero")
        return sequential_time / self.response_time

    def summary(self) -> str:
        """A human-readable execution report (one block per operation)."""
        lines = [
            f"response time : {self.response_time:.3f}s virtual "
            f"(start-up {self.startup_time:.3f}s)",
            f"threads       : {self.total_threads} "
            f"(dilation {self.dilation:.2f})",
            f"result rows   : {self.result_cardinality}",
            f"total work    : {self.work:.3f}s over "
            f"{self.total_activations} activations",
        ]
        for name, op in self.operations.items():
            profile = op.profile()
            lines.append(
                f"  {name:<12} {op.trigger_mode:<9} x{op.instances:<5} "
                f"{op.threads:>3} threads  {op.strategy:<11} "
                f"acts={op.activations:<7} skew={profile.skew_factor:5.2f}  "
                f"util={op.utilization:5.1%}")
        return "\n".join(lines)

"""Workload-level execution knobs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.adapt.policy import SchedulingPolicy
from repro.engine.executor import ObservabilityOptions
from repro.errors import WorkloadError
from repro.serve.policies import ServingPolicy


@dataclass(frozen=True)
class WorkloadOptions:
    """Knobs of the multi-query execution layer.

    Per-query execution knobs (placement, seed, per-query
    observability) stay in :class:`~repro.engine.executor
    .ExecutionOptions`; this block only holds what exists *between*
    queries.

    Scheduling behaviour (including the mid-wave ``rebalance``
    toggle) lives in the nested
    :class:`~repro.adapt.policy.SchedulingPolicy` block
    (``scheduling=``).
    """

    max_concurrent: int = 4
    """Admission bound: at most this many queries execute at once;
    later arrivals queue (FIFO) until a running query completes."""
    memory_limit_bytes: int | None = None
    """Admission memory gate: a query is only admitted while the
    estimated stored-data footprint of all running queries plus its
    own stays within this budget.  ``None`` disables the gate."""
    thread_budget: int | None = None
    """Machine thread budget "step 0" distributes across running
    queries; defaults to the machine's processor count."""
    shared: bool = False
    """Shared-work execution: at admission time, fold an incoming
    query's subplans onto identical subplans of already-admitted
    queries (canonical fingerprints over the Lera-par graph), so one
    shared operator's output fans out to every subscriber.  Off (the
    default), nothing folds and the run is bit-identical to the
    pre-sharing engine."""
    scheduling: SchedulingPolicy = field(default_factory=SchedulingPolicy)
    """The :class:`~repro.adapt.policy.SchedulingPolicy` block:
    ``policy="static"`` (default, bit-identical to the pre-controller
    engine) or ``policy="adaptive"``, plus the mid-wave ``rebalance``
    toggle and the adaptive decision thresholds."""
    observability: ObservabilityOptions = field(
        default_factory=ObservabilityOptions)
    """Workload-level telemetry knobs.  ``observe=True`` turns on the
    :class:`~repro.obs.metrics.MetricsRegistry` and per-query
    :class:`~repro.obs.spans.QuerySpan` assembly for this run
    (``result.metrics`` / ``result.spans`` / ``result.report()``);
    per-query ``ExecutionOptions.observability.observe`` implies it.
    ``trace`` is per query and refused here.  The raw workload event
    stream (submit/admit/grant/finish) is always collected — it is
    O(queries), not O(activations)."""
    faults: object | None = None
    """Optional :class:`~repro.faults.FaultPlan` applied to the whole
    workload's shared simulation.  ``None`` (the default) runs under
    the shared empty-plan injector
    :data:`~repro.faults.injector.NO_FAULTS`: no plan and an empty
    plan are one path through the simulator."""
    serving: ServingPolicy | None = None
    """The :class:`~repro.serve.policies.ServingPolicy` block:
    overload protection for open-loop serving — pluggable admission
    order (FIFO / priority / fair-share / EDF), a bounded wait queue
    with backpressure and load shedding, and brownout degradation.
    ``None`` (the default) runs under the default policy — FIFO order,
    unbounded queue, no brownout — with queries that cannot ever be
    admitted *raising* instead of being rejected: bit-identical to
    the pre-serving engine."""

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise WorkloadError(
                f"max_concurrent must be >= 1, got {self.max_concurrent} "
                f"(a zero-capacity workload could never admit a query)")
        if self.memory_limit_bytes is not None and self.memory_limit_bytes <= 0:
            raise WorkloadError(
                f"memory_limit_bytes must be positive, got "
                f"{self.memory_limit_bytes}")
        if self.thread_budget is not None and self.thread_budget < 1:
            raise WorkloadError(
                f"thread_budget must be >= 1, got {self.thread_budget}")
        if not isinstance(self.scheduling, SchedulingPolicy):
            raise WorkloadError(
                f"scheduling must be a SchedulingPolicy, got "
                f"{type(self.scheduling).__name__}")
        if not isinstance(self.observability, ObservabilityOptions):
            raise WorkloadError(
                f"observability must be an ObservabilityOptions, got "
                f"{type(self.observability).__name__}")
        if self.observability.trace:
            raise WorkloadError(
                "trace records one query's activations; set it on "
                "ExecutionOptions(observability=...), not on WorkloadOptions")
        if (self.serving is not None
                and not isinstance(self.serving, ServingPolicy)):
            raise WorkloadError(
                f"serving must be a ServingPolicy (or None), got "
                f"{type(self.serving).__name__}")

    def replace(self, **changes) -> "WorkloadOptions":
        """Copy with the given fields replaced (ergonomic twin of
        :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

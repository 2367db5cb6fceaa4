"""Workload-level execution knobs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.executor import ObservabilityOptions
from repro.errors import WorkloadError
from repro.faults.plan import FaultPlan
from repro.serve.policies import ServingPolicy

#: The two scheduling modes (``WorkloadOptions.scheduling``).
POLICY_STATIC = "static"
POLICY_ADAPTIVE = "adaptive"
POLICIES = (POLICY_STATIC, POLICY_ADAPTIVE)


@dataclass(frozen=True)
class WorkloadOptions:
    """Knobs of the multi-query execution layer.

    Per-query execution knobs (placement, seed, per-query
    observability) stay in :class:`~repro.engine.executor
    .ExecutionOptions`; this block only holds what exists *between*
    queries.
    """

    max_concurrent: int = 4
    """Admission bound: at most this many queries execute at once;
    later arrivals queue (FIFO) until a running query completes."""
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
    scheduling: str = POLICY_STATIC
    """One of :data:`POLICIES`.  ``"static"`` freezes the four-step
    schedule at submit time (bit-identical to the pre-controller
    engine); ``"adaptive"`` arms the
    :class:`~repro.adapt.controller.AdaptiveController`, which
    re-decides at wave boundaries from observed virtual-time state:
    it re-splits a wave's grant toward the blamed producers and
    switches Random consumers to LPT on the Fig 12 signature.  Its
    decisions are pure functions of virtual-time state, so runs stay
    byte-reproducible per seed either way."""
    observability: ObservabilityOptions = field(
        default_factory=ObservabilityOptions)
    """Workload-level telemetry knobs.  ``observe=True`` turns on the
    :class:`~repro.obs.metrics.MetricsRegistry` and per-query
    :class:`~repro.obs.spans.QuerySpan` assembly for this run
    (``result.metrics`` / ``result.spans`` / ``result.report()``);
    per-query ``ExecutionOptions.observability.observe`` implies it.
    The raw workload event
    stream (submit/admit/grant/finish) is always collected — it is
    O(queries), not O(activations)."""
    faults: FaultPlan | None = None
    """Optional :class:`~repro.faults.FaultPlan` applied to the whole
    workload's shared simulation.  ``None`` (the default) runs under
    the shared empty-plan injector
    :data:`~repro.faults.injector.NO_FAULTS`: no plan and an empty
    plan are one path through the simulator."""
    serving: ServingPolicy | None = None
    """The :class:`~repro.serve.policies.ServingPolicy` block:
    overload protection for open-loop serving — admission order
    (FIFO / priority / EDF) and a bounded wait queue
    with backpressure and load shedding.
    ``None`` (the default) runs under the default policy — FIFO order,
    unbounded queue: bit-identical to the pre-serving engine."""

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise WorkloadError(
                f"max_concurrent must be >= 1, got {self.max_concurrent} "
                f"(a zero-capacity workload could never admit a query)")
        if self.thread_budget is not None and self.thread_budget < 1:
            raise WorkloadError(
                f"thread_budget must be >= 1, got {self.thread_budget}")
        if self.scheduling not in POLICIES:
            raise WorkloadError(
                f"unknown scheduling policy {self.scheduling!r}; "
                f"expected one of {POLICIES}")
        if not isinstance(self.observability, ObservabilityOptions):
            raise WorkloadError(
                f"observability must be an ObservabilityOptions, got "
                f"{type(self.observability).__name__}")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise WorkloadError(
                f"faults must be a FaultPlan (or None), got "
                f"{type(self.faults).__name__}")
        if (self.serving is not None
                and not isinstance(self.serving, ServingPolicy)):
            raise WorkloadError(
                f"serving must be a ServingPolicy (or None), got "
                f"{type(self.serving).__name__}")

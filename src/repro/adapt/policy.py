"""The :class:`SchedulingPolicy` block — one frozen dataclass naming
every knob of the scheduling loop.

The paper's four-step scheduler is *static*: parallelism degree,
thread split, placement and consumption strategy are all fixed before
the first activation runs.  PRs 7–8 made the engine observe exactly
the signals (queue-wait blame, the Fig 12 straggler signature) that
Section 5.4's diagnosis implies we should act on; this block decides
whether the engine *does* act on them.

``policy="static"`` (the default) keeps every decision frozen at
submit time — bit-identical to the engine before the adaptive
controller existed.  ``policy="adaptive"`` arms the
:class:`~repro.adapt.controller.AdaptiveController` at the workload
engine's deterministic control points.  All adaptive decisions are
pure functions of virtual-time state, so runs stay byte-reproducible
per seed either way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import WorkloadError

#: The two scheduling modes.
POLICY_STATIC = "static"
POLICY_ADAPTIVE = "adaptive"
POLICIES = (POLICY_STATIC, POLICY_ADAPTIVE)


@dataclass(frozen=True)
class SchedulingPolicy:
    """How the workload engine schedules threads, statically or not.

    Nested in :class:`~repro.workload.options.WorkloadOptions`
    (``scheduling=``).
    """

    policy: str = POLICY_STATIC
    """``"static"`` freezes the four-step schedule at submit time
    (bit-identical to the pre-controller engine); ``"adaptive"``
    re-decides at wave boundaries from observed virtual-time state."""
    resplit: bool = True
    """Adaptive only: at each wave boundary, re-split the query's
    thread grant toward the operators carrying the queue-wait blame —
    the saturated producers whose starved consumers spent the previous
    wave idling on empty queues."""
    strategy_switch: bool = True
    """Adaptive only: switch an operator from Random to LPT
    consumption when the Fig 12 equal-counts/unequal-costs signature
    fires — the estimates said the buckets were even (so step 4 chose
    Random) but the previous wave's straggler shows they are not."""
    multi_resource: bool = False
    """Generalize step 0 from a CPU-only thread count to multi-resource
    (CPU, memory-footprint, disk-bandwidth) vectors, after Garofalakis
    & Ioannidis's malleable-scheduling model: a query's grant is capped
    by its *binding* resource, not just the thread budget."""
    rebalance: bool = True
    """Mid-wave helper threads: when a completion re-grants budget to
    the survivors, fresh threads join their still-running pools as
    secondary consumers.  (Both modes.)"""
    straggler_ratio: float = 2.0
    """Slowest-to-mean relative-finish ratio above which a wave's
    operation counts as straggling (the Fig 12 trigger, same default
    as :class:`~repro.obs.monitor.StragglerMonitor`)."""
    min_threads: int = 2
    """Straggler attribution needs at least this many threads in the
    pool (a one-thread pool has no spread)."""
    idle_threshold: float = 0.5
    """Pool idle share at or above which an operation counts as
    *starved* — its threads spent the wave waiting on empty queues
    (Section 5.4's queue-wait blame)."""
    driver_threshold: float = 0.25
    """Pool idle share at or below which an operation counts as the
    *driver* — the saturated producer carrying the blame for the
    starved pools downstream of it."""
    boost_cap: float = 4.0
    """Upper bound on the resplit weight boost applied to blamed
    producers, so one bad wave can never starve the consumer side of
    the next one outright."""
    switch_skew_threshold: float = 1.5
    """Estimated-cost skew (max/mean over a pool's queues) *below*
    which the estimates count as "equal costs" — the precondition of
    the Fig 12 signature: step 4 saw even buckets and chose Random,
    yet the observed wave straggled on processing skew."""
    disk_bandwidth_bytes: int | None = None
    """Multi-resource only: modeled disk-bandwidth capacity (bytes per
    granted run) the running queries' stored-data footprints share.
    ``None`` leaves the disk axis unbound."""

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise WorkloadError(
                f"unknown scheduling policy {self.policy!r}; "
                f"expected one of {POLICIES}")
        if self.straggler_ratio <= 1.0:
            raise WorkloadError(
                f"straggler_ratio must be > 1, got {self.straggler_ratio}")
        if self.min_threads < 1:
            raise WorkloadError(
                f"min_threads must be >= 1, got {self.min_threads}")
        if not 0.0 < self.idle_threshold <= 1.0:
            raise WorkloadError(
                f"idle_threshold must be in (0, 1], got "
                f"{self.idle_threshold}")
        if not 0.0 <= self.driver_threshold < self.idle_threshold:
            raise WorkloadError(
                f"driver_threshold must be in [0, idle_threshold), got "
                f"{self.driver_threshold} vs {self.idle_threshold}")
        if self.boost_cap < 1.0:
            raise WorkloadError(
                f"boost_cap must be >= 1, got {self.boost_cap}")
        if self.switch_skew_threshold < 1.0:
            raise WorkloadError(
                f"switch_skew_threshold must be >= 1, got "
                f"{self.switch_skew_threshold}")
        if (self.disk_bandwidth_bytes is not None
                and self.disk_bandwidth_bytes <= 0):
            raise WorkloadError(
                f"disk_bandwidth_bytes must be positive, got "
                f"{self.disk_bandwidth_bytes}")

    @property
    def adaptive(self) -> bool:
        """Whether the adaptive controller is armed."""
        return self.policy == POLICY_ADAPTIVE

    def replace(self, **changes) -> "SchedulingPolicy":
        """Copy with the given fields replaced (ergonomic twin of
        :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

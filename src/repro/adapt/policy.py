"""The :class:`SchedulingPolicy` block — one frozen dataclass naming
the four knobs of the scheduling loop that some caller sets.

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
    multi_resource: bool = False
    """Generalize step 0 from a CPU-only thread count to multi-resource
    (CPU, memory-footprint) vectors, after Garofalakis & Ioannidis's
    malleable-scheduling model: a query's grant is capped by its
    *binding* resource, not just the thread budget."""
    rebalance: bool = True
    """Mid-wave helper threads: when a completion re-grants budget to
    the survivors, fresh threads join their still-running pools as
    secondary consumers.  (Both modes.)"""

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise WorkloadError(
                f"unknown scheduling policy {self.policy!r}; "
                f"expected one of {POLICIES}")

    @property
    def adaptive(self) -> bool:
        """Whether the adaptive controller is armed."""
        return self.policy == POLICY_ADAPTIVE

    def replace(self, **changes) -> "SchedulingPolicy":
        """Copy with the given fields replaced (ergonomic twin of
        :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

"""The serving policy block and the keyed wait queue.

The workload engine decides *whether* capacity exists (fewer than
``max_concurrent`` queries running); the :class:`WaitQueue` here
decides *who* is offered that capacity next, and *who* is shed when
the bounded wait queue overflows.

Two layers:

* :class:`ServingPolicy` — the frozen configuration block nested in
  :class:`~repro.workload.options.WorkloadOptions` (``serving=``).
  ``None`` (the default) makes the engine serve under the default
  block — FIFO, unbounded — bit-identical to the
  pre-serving engine.
* :class:`WaitQueue` — one run's waiting queries.  A policy is a sort
  key of the waiting job (:data:`POLICIES` names them), ties broken by
  submission order: admission takes the smallest key, and the
  overflow victim is the largest, the waiter the policy would admit
  last.  Two lazily pruned heaps hold the two ends, so a decision
  costs O(log waiting) however many queries wait.

Policies, by their keys:

* ``fifo`` — ``(arrival,)``: arrival order, head-or-nobody; the
  victim is the youngest waiter.
* ``priority`` — ``(-priority, arrival)``: strict priority classes,
  FIFO within a class; the victim is the lowest-priority, youngest
  waiter, so under sustained overload the high classes keep their
  queue slots.
* ``edf`` — ``(deadline, arrival)``: earliest deadline first, using
  the timeout machinery's per-query deadlines (deadline-free queries
  sort last); the victim is the *least urgent* waiter — deadline-free
  first, then latest deadline.  EDF alone also sheds a provably
  deadline-infeasible head instead of admitting it
  (:func:`provably_infeasible`).

Every decision is a deterministic function of queue state, so the
full admission/shed log is byte-reproducible per seed — the
hypothesis suite holds the queue to that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import WorkloadError

#: Policy names, in documentation order.
POLICY_FIFO = "fifo"
POLICY_PRIORITY = "priority"
POLICY_EDF = "edf"
POLICIES = (POLICY_FIFO, POLICY_PRIORITY, POLICY_EDF)

#: Shed reasons stamped on ``query.reject`` events and the
#: ``queries_shed_total`` counter.
SHED_QUEUE_FULL = "queue_full"
SHED_DEADLINE_INFEASIBLE = "deadline_infeasible"


@dataclass(frozen=True)
class ServingPolicy:
    """The serving/overload-protection configuration block.

    Attached to :class:`~repro.workload.options.WorkloadOptions` as
    ``serving=``.  A ``ServingPolicy()`` with all defaults is the
    layer in its mildest form — FIFO order, unbounded queue — and is
    what the engine runs under when ``serving`` is ``None``; asking
    for it explicitly only changes what is *reported*
    (priority/tenant on ``query.submit``, per-class latency labels),
    which the twin table's ``serving`` row pins at equal virtual
    makespan.
    """

    policy: str = POLICY_FIFO
    """Admission order: one of :data:`POLICIES`."""
    queue_limit: int | None = None
    """Bounded wait queue: when more than this many queries wait, the
    policy's overflow victim is shed (terminal status ``shed``) and a
    backpressure signal is emitted.  ``None`` leaves the queue
    unbounded (no shedding, no backpressure)."""

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise WorkloadError(
                f"unknown admission policy {self.policy!r} "
                f"(expected one of {POLICIES})")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise WorkloadError(
                f"queue_limit must be >= 1, got {self.queue_limit} "
                f"(a zero-slot queue would shed every waiting query)")


def _deadline_of(job) -> float:
    """A job's absolute deadline instant (+inf when it has none)."""
    deadline = job.deadline
    return deadline[0] if deadline is not None else float("inf")


#: Policy -> the admission key of a waiting job (smallest first).
_KEYS = {
    POLICY_FIFO: lambda job: (job.arrival,),
    POLICY_PRIORITY: lambda job: (-job.priority, job.arrival),
    POLICY_EDF: lambda job: (_deadline_of(job), job.arrival),
}


class WaitQueue:
    """One run's wait queue, ordered by its serving policy's key.

    ``push`` a query that arrived (each job once), ``peek`` the one
    admission would take, ``victim`` the one overflow would shed, and
    ``pop`` either of them, or a waiter withdrawn by cancellation.
    A popped job stays in the heaps until it surfaces at the top of
    one, where ``peek`` / ``victim`` skim it off.
    """

    def __init__(self, serving: ServingPolicy) -> None:
        self._key = _KEYS[serving.policy]
        #: EDF sheds provably deadline-infeasible waiters at admission.
        self.sheds_infeasible = serving.policy == POLICY_EDF
        #: ``(*key, order, job)``: the head is the next admission.
        self._admit: list[tuple] = []
        #: The same entries negated: the head is the overflow victim.
        self._shed: list[tuple] = []
        self._live: set = set()

    def push(self, job) -> None:
        key = self._key(job)
        heapq.heappush(self._admit, (*key, job.order, job))
        heapq.heappush(self._shed,
                       (*(-part for part in key), -job.order, job))
        self._live.add(job)

    def _head(self, heap: list[tuple]):
        while heap and heap[0][-1] not in self._live:
            heapq.heappop(heap)
        return heap[0][-1] if heap else None

    def peek(self):
        """The next candidate for admission, or ``None`` when empty."""
        return self._head(self._admit)

    def victim(self):
        """Who to shed when the bounded queue overflows: the waiter
        admission would take last (``None`` when empty)."""
        return self._head(self._shed)

    def pop(self, job) -> None:
        """Take *job* out of the queue (admitted, shed or withdrawn)."""
        if job not in self._live:
            raise WorkloadError(
                f"cannot pop {job.tag!r}: not in the wait queue")
        self._live.remove(job)

    def __len__(self) -> int:
        return len(self._live)


def provably_infeasible(job, now: float) -> bool:
    """Can *job* provably not finish by its deadline?

    The one lower bound that needs no execution model: a query's
    sequential initialization alone takes ``job.startup`` virtual
    seconds after admission, so if ``now + startup`` already overruns
    the deadline the query is doomed no matter how many threads it
    gets.  Conservative by design — EDF must never shed a query that
    could still have made it.
    """
    deadline = _deadline_of(job)
    if deadline == float("inf"):
        return False
    return now + job.startup > deadline

"""Pluggable admission policies and the indexed wait queue.

Grown out of :mod:`repro.workload.admission`: the
:class:`~repro.workload.admission.AdmissionController` keeps deciding
*whether* capacity exists (concurrency bound + memory gate); the
policy objects here decide *who* is offered that capacity next, and
*who* is shed when the bounded wait queue overflows.

Two layers:

* :class:`ServingPolicy` — the frozen configuration block nested in
  :class:`~repro.workload.options.WorkloadOptions` (``serving=``).
  ``None`` (the default) makes the engine serve under the default
  block — FIFO, unbounded — bit-identical to the
  pre-serving engine.
* :class:`AdmissionPolicy` subclasses — the per-run mutable queue
  structures.  Each owns an *indexed* wait queue (deque or
  lazy-deletion heap), so one admission step costs O(log waiting) at
  worst and O(1) amortized — not the O(waiting) list-shift the old
  FIFO gate paid per admitted query, which is what made thousands of
  queued arrivals quadratic.

Policies (names in :data:`POLICIES`):

* ``fifo`` — arrival order, head-or-nobody (the legacy discipline).
* ``priority`` — strict priority classes, FIFO within a class; the
  overflow victim is the lowest-priority, youngest waiter.
* ``edf`` — earliest deadline first, using the timeout machinery's
  per-query deadlines; provably deadline-infeasible waiters (the
  sequential start-up alone already overruns the deadline) are shed
  instead of admitted, and the overflow victim is the *least urgent*
  waiter — latest deadline, deadline-free first.

Every decision is a deterministic function of queue state, so the
full admission/shed log is byte-reproducible per seed — the
hypothesis suite holds the policies to that.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
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

#: Reject reasons (a query that could *never* run, not overload).
REJECT_MEMORY = "memory_infeasible"
REJECT_IDLE = "idle_infeasible"


@dataclass(frozen=True)
class ServingPolicy:
    """The serving/overload-protection configuration block.

    Attached to :class:`~repro.workload.options.WorkloadOptions` as
    ``serving=``.  A ``ServingPolicy()`` with all defaults is the
    layer in its mildest form — FIFO order, unbounded queue — and is
    what the engine runs under when ``serving`` is ``None``; asking
    for it explicitly only changes what is *reported*
    (priority/tenant on ``query.submit``, ``rejected`` instead of a
    raise, per-class latency labels), which the twin table's
    ``serving`` row pins at equal virtual makespan.
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

    def replace(self, **changes) -> "ServingPolicy":
        """Copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def _deadline_of(job) -> float:
    """A job's absolute deadline instant (+inf when it has none)."""
    deadline = job.deadline
    return deadline[0] if deadline is not None else float("inf")


class AdmissionPolicy:
    """One run's wait queue + admission/shed ordering (mutable).

    The engine talks to it through five operations — ``push`` (a query
    arrived), ``peek`` (who would be admitted next), ``pop`` (it was
    admitted or shed), ``remove`` (withdrawn by cancellation) and
    ``victim`` (who to shed on queue overflow).  ``jobs()`` lists the
    live waiters in arrival order for audits and reports.
    """

    name = "policy"
    #: EDF sheds provably deadline-infeasible waiters at admission.
    sheds_infeasible = False

    def push(self, job) -> None:
        raise NotImplementedError

    def peek(self):
        """The next candidate for admission, or ``None`` when empty."""
        raise NotImplementedError

    def pop(self, job) -> None:
        """Remove *job* (the last ``peek``/``victim`` result)."""
        raise NotImplementedError

    def remove(self, job) -> None:
        """Withdraw *job* wherever it sits (cancellation/timeout)."""
        self.pop(job)

    def victim(self, now: float):
        """Who to shed when the bounded queue overflows (never
        ``None`` while the queue is non-empty)."""
        raise NotImplementedError

    def jobs(self) -> list:
        """Live waiting jobs, in arrival order."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(waiting={len(self)})"


class FifoPolicy(AdmissionPolicy):
    """Arrival order, head-or-nobody — the legacy admission queue.

    A deque keeps both admission (``popleft``) and overflow shedding
    (the *newest* waiter, at the right end) O(1); the old list-based
    queue paid an O(n) shift per admitted query.
    """

    name = POLICY_FIFO

    def __init__(self) -> None:
        self._queue: deque = deque()

    def push(self, job) -> None:
        self._queue.append(job)

    def peek(self):
        return self._queue[0] if self._queue else None

    def pop(self, job) -> None:
        if self._queue and self._queue[0] is job:
            self._queue.popleft()
        elif self._queue and self._queue[-1] is job:
            self._queue.pop()
        else:
            self._queue.remove(job)

    def victim(self, now: float):
        return self._queue[-1] if self._queue else None

    def jobs(self) -> list:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class _HeapPolicy(AdmissionPolicy):
    """Lazy-deletion binary heap over a static per-job key.

    ``remove`` tombstones in O(1); dead entries are skimmed off the
    top on the next ``peek``.  Admission work is therefore O(log n)
    per decision regardless of how many queries wait.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        #: Waiting jobs, and popped ones whose heap entry is not yet
        #: skimmed off.
        self._live: set = set()
        self._dead: set = set()

    def _key(self, job) -> tuple:
        raise NotImplementedError

    def push(self, job) -> None:
        heapq.heappush(self._heap, (*self._key(job), job.order, job))
        self._live.add(job)

    def _skim(self) -> None:
        while self._heap and self._heap[0][-1] in self._dead:
            self._dead.discard(heapq.heappop(self._heap)[-1])

    def peek(self):
        self._skim()
        return self._heap[0][-1] if self._heap else None

    def pop(self, job) -> None:
        if job not in self._live:
            raise WorkloadError(
                f"cannot pop {job.tag!r}: not in the wait queue")
        self._live.remove(job)
        self._skim()
        if self._heap and self._heap[0][-1] is job:
            heapq.heappop(self._heap)
        else:
            self._dead.add(job)

    def jobs(self) -> list:
        return sorted(self._live, key=lambda job: job.order)

    def __len__(self) -> int:
        return len(self._live)


class PriorityPolicy(_HeapPolicy):
    """Strict priority classes, FIFO within a class.

    Higher ``priority`` is more important.  Head-or-nobody still
    applies within the ordering (a too-big high-priority head blocks
    lower classes — no convoy re-ordering), and the overflow victim
    is the lowest-priority, youngest waiter, so under sustained
    overload the high classes keep their queue slots.
    """

    name = POLICY_PRIORITY

    def __init__(self) -> None:
        super().__init__()
        #: Shed-side heap: lowest priority first, newest first.
        self._shed_heap: list[tuple] = []

    def _key(self, job) -> tuple:
        return (-job.priority, job.arrival)

    def push(self, job) -> None:
        super().push(job)
        heapq.heappush(self._shed_heap,
                       (job.priority, -job.arrival, -job.order, job))

    def victim(self, now: float):
        while self._shed_heap and self._shed_heap[0][-1] not in self._live:
            heapq.heappop(self._shed_heap)
        return self._shed_heap[0][-1] if self._shed_heap else None


class EdfPolicy(_HeapPolicy):
    """Earliest deadline first, with infeasibility shedding.

    Orders by each query's absolute deadline (the timeout machinery's
    ``arrival + timeout`` or explicit ``cancel_at``; deadline-free
    queries sort last, FIFO among themselves).  Doomed work is culled
    at both ends: the engine asks :attr:`sheds_infeasible` policies
    whether the head is *provably* infeasible before admitting it
    (its start-up alone overruns the deadline — shed, never run), and
    the queue-overflow victim is the *least urgent* waiter — latest
    deadline, deadline-free first, youngest on ties — since under
    sustained overload that is the query most likely to be preempted
    by newer, more urgent arrivals until its turn never comes.
    """

    name = POLICY_EDF
    sheds_infeasible = True

    def __init__(self) -> None:
        super().__init__()
        #: Shed-side heap: latest deadline first, youngest first.
        self._shed_heap: list[tuple] = []

    def _key(self, job) -> tuple:
        return (_deadline_of(job), job.arrival)

    def push(self, job) -> None:
        super().push(job)
        heapq.heappush(self._shed_heap,
                       (-_deadline_of(job), -job.arrival, -job.order, job))

    def victim(self, now: float):
        while self._shed_heap and self._shed_heap[0][-1] not in self._live:
            heapq.heappop(self._shed_heap)
        return self._shed_heap[0][-1] if self._shed_heap else None


def make_admission_policy(serving: ServingPolicy | None) -> AdmissionPolicy:
    """The runtime wait queue for one workload run.

    ``None`` (serving layer off) still gets the :class:`FifoPolicy`
    deque — the admission *order* is identical to the legacy list, it
    just stops paying O(n) per pop.
    """
    if serving is None or serving.policy == POLICY_FIFO:
        return FifoPolicy()
    if serving.policy == POLICY_PRIORITY:
        return PriorityPolicy()
    if serving.policy == POLICY_EDF:
        return EdfPolicy()
    raise WorkloadError(f"unknown admission policy {serving.policy!r}")


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

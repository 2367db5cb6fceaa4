"""The keyed wait queue: admission order, victims, lazy pruning.

The queue only ever reads a job's ``tag`` / ``order`` / ``arrival``
/ ``priority`` / ``deadline`` / ``startup`` attributes, so a small
stub stands in for the engine's ``_QueryJob`` and the tests drive the
queue directly: admission order, overflow-victim choice, lazy pruning,
and the error for popping what was never pushed.
"""

from dataclasses import dataclass, field
from itertools import count

import pytest

from repro.errors import WorkloadError
from repro.serve.policies import (
    POLICIES,
    ServingPolicy,
    WaitQueue,
    provably_infeasible,
)
from repro.workload.engine import _DEFAULT_SERVING

_ORDER = count()


@dataclass(eq=False)
class Job:
    """The attribute surface the queue consumes, hashed by identity
    like the engine's jobs (the queue keys on the job)."""

    tag: str
    arrival: float = 0.0
    priority: int = 0
    startup: float = 0.0
    deadline: tuple | None = None
    order: int = field(default_factory=lambda: next(_ORDER))


class TestServingPolicyConfig:
    def test_defaults_are_the_mildest_form(self):
        config = ServingPolicy()
        assert config.policy == "fifo"
        assert config.queue_limit is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(WorkloadError, match="unknown admission policy"):
            ServingPolicy(policy="lottery")

    def test_queue_limit_must_hold_at_least_one(self):
        with pytest.raises(WorkloadError, match="queue_limit"):
            ServingPolicy(queue_limit=0)


def _queue(policy: str, *jobs: Job) -> WaitQueue:
    queue = WaitQueue(ServingPolicy(policy=policy))
    for job in jobs:
        queue.push(job)
    return queue


def _admitted(queue: WaitQueue) -> list[Job]:
    """Admit until empty: the live waiters in admission order."""
    order = []
    while queue:
        order.append(queue.peek())
        queue.pop(order[-1])
    return order


class TestFifoPolicy:
    def test_admits_in_arrival_order(self):
        a, b, c = Job("a"), Job("b"), Job("c")
        queue = _queue("fifo", a, b, c)
        assert len(queue) == 3 and bool(queue)
        assert queue.peek() is a
        queue.pop(a)
        assert queue.peek() is b
        assert _admitted(queue) == [b, c]

    def test_victim_is_the_newest_waiter(self):
        a, b, c = Job("a"), Job("b"), Job("c")
        assert _queue("fifo", a, b, c).victim() is c

    def test_pop_from_the_middle(self):
        a, b, c = Job("a"), Job("b"), Job("c")
        queue = _queue("fifo", a, b, c)
        queue.pop(b)
        assert queue.victim() is c
        assert _admitted(queue) == [a, c]

    def test_empty_queue(self):
        queue = _queue("fifo")
        assert queue.peek() is None
        assert queue.victim() is None
        assert not queue


class TestPriorityPolicy:
    def test_higher_priority_first_fifo_within_class(self):
        low_old = Job("low-old", arrival=0.0, priority=0)
        high = Job("high", arrival=1.0, priority=5)
        low_new = Job("low-new", arrival=2.0, priority=0)
        queue = _queue("priority", low_old, high, low_new)
        assert _admitted(queue) == [high, low_old, low_new]

    def test_victim_is_lowest_priority_youngest(self):
        high = Job("high", arrival=0.0, priority=5)
        low_old = Job("low-old", arrival=1.0, priority=0)
        low_new = Job("low-new", arrival=2.0, priority=0)
        queue = _queue("priority", high, low_old, low_new)
        assert queue.victim() is low_new
        queue.pop(low_new)
        assert queue.victim() is low_old
        queue.pop(low_old)
        assert queue.victim() is high

    def test_lazy_deletion_skims_both_heaps(self):
        jobs = [Job(f"j{i}", arrival=float(i), priority=i % 3)
                for i in range(9)]
        queue = _queue("priority", *jobs)
        # Pop from the middle of both orderings; neither heap drops
        # the entries eagerly, so peek/victim must skim them.
        for job in jobs[2:7]:
            queue.pop(job)
        assert len(queue) == 4
        assert queue.peek() is jobs[8]     # highest priority live
        assert queue.victim() is jobs[0]   # lowest class, only one
        assert {job.tag for job in _admitted(queue)} == {
            "j0", "j1", "j7", "j8"}

    def test_pop_of_unknown_job_is_an_error(self):
        with pytest.raises(WorkloadError, match="not in the wait queue"):
            _queue("priority").pop(Job("ghost"))


class TestEdfPolicy:
    def test_earliest_deadline_first_deadline_free_last(self):
        loose = Job("loose", arrival=0.0, deadline=(9.0, "timeout"))
        tight = Job("tight", arrival=1.0, deadline=(2.0, "timeout"))
        free = Job("free", arrival=0.5)
        assert _admitted(_queue("edf", loose, tight, free)) == [
            tight, loose, free]

    def test_victim_is_least_urgent_deadline_free_first(self):
        tight = Job("tight", arrival=0.0, deadline=(2.0, "timeout"))
        loose = Job("loose", arrival=1.0, deadline=(9.0, "timeout"))
        free_old = Job("free-old", arrival=0.5)
        free_new = Job("free-new", arrival=1.5)
        queue = _queue("edf", tight, loose, free_old, free_new)
        # Deadline-free first (youngest among them), then latest
        # deadline — the head (earliest deadline) is shed last.
        for expected in (free_new, free_old, loose, tight):
            assert queue.victim() is expected
            queue.pop(expected)

    def test_only_edf_sheds_infeasible(self):
        assert _queue("edf").sheds_infeasible
        assert not _queue("fifo").sheds_infeasible
        assert not _queue("priority").sheds_infeasible


class TestProvablyInfeasible:
    def test_no_deadline_is_never_infeasible(self):
        assert not provably_infeasible(Job("free", startup=100.0), now=50.0)

    def test_startup_overrunning_the_deadline_is_doomed(self):
        doomed = Job("doomed", startup=2.0, deadline=(5.0, "timeout"))
        assert provably_infeasible(doomed, now=4.0)

    def test_exactly_meeting_the_deadline_is_still_feasible(self):
        # Conservative bound: strict overrun only (now + startup >
        # deadline), never shed a query that could still have made it.
        edge = Job("edge", startup=2.0, deadline=(5.0, "timeout"))
        assert not provably_infeasible(edge, now=3.0)
        assert provably_infeasible(edge, now=3.0 + 1e-9)



class TestFactory:
    def test_none_still_gets_the_indexed_fifo(self):
        assert _DEFAULT_SERVING == ServingPolicy()
        late, early = Job("late", arrival=1.0), Job("early", arrival=0.0)
        queue = WaitQueue(_DEFAULT_SERVING)
        queue.push(late)
        queue.push(early)
        assert queue.peek() is early and queue.victim() is late

    def test_registry_is_complete(self):
        assert set(POLICIES) == {"fifo", "priority", "edf"}

"""Admission policies: ordering, victims, and the indexed queues.

The policies only ever read a job's ``tag`` / ``order`` / ``arrival``
/ ``priority`` / ``deadline`` / ``startup`` attributes, so a small
stub stands in for the engine's ``_QueryJob`` and the tests exercise
the queue structures directly:
admission order, overflow-victim choice, lazy deletion, and the
errors for popping what was never pushed.
"""

from dataclasses import dataclass, field
from itertools import count

import pytest

from repro.errors import WorkloadError
from repro.serve.policies import (
    POLICIES,
    EdfPolicy,
    FifoPolicy,
    PriorityPolicy,
    ServingPolicy,
    make_admission_policy,
    provably_infeasible,
)

_ORDER = count()


@dataclass(eq=False)
class Job:
    """The attribute surface the policies consume, hashed by identity
    like the engine's jobs (the heap policies key on the job)."""

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

    def test_replace_copies_with_changes(self):
        config = ServingPolicy(policy="edf", queue_limit=4)
        changed = config.replace(queue_limit=8)
        assert changed.queue_limit == 8
        assert changed.policy == "edf"
        assert config.queue_limit == 4


class TestFifoPolicy:
    def test_admits_in_arrival_order(self):
        policy = FifoPolicy()
        a, b, c = Job("a"), Job("b"), Job("c")
        for job in (a, b, c):
            policy.push(job)
        assert len(policy) == 3 and bool(policy)
        assert policy.peek() is a
        policy.pop(a)
        assert policy.peek() is b
        assert policy.jobs() == [b, c]

    def test_victim_is_the_newest_waiter(self):
        policy = FifoPolicy()
        a, b, c = Job("a"), Job("b"), Job("c")
        for job in (a, b, c):
            policy.push(job)
        assert policy.victim(now=0.0) is c

    def test_pop_from_the_middle(self):
        policy = FifoPolicy()
        a, b, c = Job("a"), Job("b"), Job("c")
        for job in (a, b, c):
            policy.push(job)
        policy.remove(b)
        assert policy.jobs() == [a, c]

    def test_empty_queue(self):
        policy = FifoPolicy()
        assert policy.peek() is None
        assert policy.victim(now=0.0) is None
        assert not policy


class TestPriorityPolicy:
    def test_higher_priority_first_fifo_within_class(self):
        policy = PriorityPolicy()
        low_old = Job("low-old", arrival=0.0, priority=0)
        high = Job("high", arrival=1.0, priority=5)
        low_new = Job("low-new", arrival=2.0, priority=0)
        for job in (low_old, high, low_new):
            policy.push(job)
        assert policy.peek() is high
        policy.pop(high)
        assert policy.peek() is low_old
        policy.pop(low_old)
        assert policy.peek() is low_new

    def test_victim_is_lowest_priority_youngest(self):
        policy = PriorityPolicy()
        high = Job("high", arrival=0.0, priority=5)
        low_old = Job("low-old", arrival=1.0, priority=0)
        low_new = Job("low-new", arrival=2.0, priority=0)
        for job in (high, low_old, low_new):
            policy.push(job)
        assert policy.victim(now=3.0) is low_new
        policy.pop(low_new)
        assert policy.victim(now=3.0) is low_old
        policy.pop(low_old)
        assert policy.victim(now=3.0) is high

    def test_lazy_deletion_skims_both_heaps(self):
        policy = PriorityPolicy()
        jobs = [Job(f"j{i}", arrival=float(i), priority=i % 3)
                for i in range(9)]
        for job in jobs:
            policy.push(job)
        # Remove from the middle of both orderings; neither heap pops
        # eagerly, so peek/victim must skim the tombstones.
        for job in jobs[2:7]:
            policy.remove(job)
        assert len(policy) == 4
        survivors = {job.tag for job in policy.jobs()}
        assert survivors == {"j0", "j1", "j7", "j8"}
        assert policy.peek() is jobs[8]        # highest priority live
        assert policy.victim(now=9.0) is jobs[0]  # lowest class, only one

    def test_pop_of_unknown_job_is_an_error(self):
        policy = PriorityPolicy()
        with pytest.raises(WorkloadError, match="not in the wait queue"):
            policy.pop(Job("ghost"))


class TestEdfPolicy:
    def test_earliest_deadline_first_deadline_free_last(self):
        policy = EdfPolicy()
        loose = Job("loose", arrival=0.0, deadline=(9.0, "timeout"))
        tight = Job("tight", arrival=1.0, deadline=(2.0, "timeout"))
        free = Job("free", arrival=0.5)
        for job in (loose, tight, free):
            policy.push(job)
        assert policy.peek() is tight
        policy.pop(tight)
        assert policy.peek() is loose
        policy.pop(loose)
        assert policy.peek() is free

    def test_victim_is_least_urgent_deadline_free_first(self):
        policy = EdfPolicy()
        tight = Job("tight", arrival=0.0, deadline=(2.0, "timeout"))
        loose = Job("loose", arrival=1.0, deadline=(9.0, "timeout"))
        free_old = Job("free-old", arrival=0.5)
        free_new = Job("free-new", arrival=1.5)
        for job in (tight, loose, free_old, free_new):
            policy.push(job)
        # Deadline-free first (youngest among them), then latest
        # deadline — the head (earliest deadline) is shed last.
        assert policy.victim(now=2.0) is free_new
        policy.pop(free_new)
        assert policy.victim(now=2.0) is free_old
        policy.pop(free_old)
        assert policy.victim(now=2.0) is loose
        policy.pop(loose)
        assert policy.victim(now=2.0) is tight

    def test_only_edf_sheds_infeasible(self):
        assert EdfPolicy.sheds_infeasible
        assert not FifoPolicy.sheds_infeasible
        assert not PriorityPolicy.sheds_infeasible


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
        assert isinstance(make_admission_policy(None), FifoPolicy)

    @pytest.mark.parametrize("name,cls", [
        ("fifo", FifoPolicy),
        ("priority", PriorityPolicy),
        ("edf", EdfPolicy),
    ])
    def test_every_policy_name_resolves(self, name, cls):
        policy = make_admission_policy(ServingPolicy(policy=name))
        assert isinstance(policy, cls)
        assert policy.name == name

    def test_registry_is_complete(self):
        assert set(POLICIES) == {"fifo", "priority", "edf"}

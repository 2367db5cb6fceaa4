"""Property-based tests on the serving layer's admission invariants.

Four contracts, each pinned at two levels — the bare policy
structures driven by synthetic jobs, and the full engine driven by
seeded open-loop arrivals:

* **Conservation** — every pushed job leaves the queue exactly once;
  every submitted query reaches exactly one terminal status.
* **No starvation** — the priority policy never sheds a query while
  a strictly lower-priority query is still waiting.
* **EDF feasibility** — the admission loop never admits a provably
  deadline-infeasible query.
* **Determinism** — the full arrival + decision log is a pure
  function of the seed.
"""

from dataclasses import dataclass, field
from itertools import count as _count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.bus import (
    QUERY_ADMIT,
    QUERY_CANCEL,
    QUERY_FINISH,
    QUERY_REJECT,
    QUERY_SUBMIT,
)
from repro.serve.harness import decision_digest, run_serving
from repro.serve.policies import (
    EdfPolicy,
    PriorityPolicy,
    ServingPolicy,
    make_admission_policy,
    provably_infeasible,
)
from repro.workload.engine import TERMINAL_STATES
from repro.workload.options import WorkloadOptions

_ORDER = _count()


@dataclass
class Job:
    tag: str
    arrival: float = 0.0
    priority: int = 0
    tenant: str = "default"
    startup: float = 0.0
    complexity: float = 1.0
    deadline: tuple | None = None
    order: int = field(default_factory=lambda: next(_ORDER))


job_sets = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
              st.integers(min_value=0, max_value=3),
              st.one_of(st.none(),
                        st.floats(min_value=0.01, max_value=5.0,
                                  allow_nan=False)),
              st.floats(min_value=0.0, max_value=2.0, allow_nan=False)),
    min_size=1, max_size=25)


def _build(entries):
    return [Job(f"j{i}", arrival=a, priority=p,
                deadline=None if d is None else (a + d, "timeout"),
                startup=s)
            for i, (a, p, d, s) in enumerate(entries)]


class TestPolicyConservation:
    @given(entries=job_sets,
           policy_name=st.sampled_from(["fifo", "priority", "fair_share",
                                        "edf"]),
           ops=st.lists(st.sampled_from(["admit", "shed", "withdraw"]),
                        min_size=0, max_size=40),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_job_leaves_exactly_once(self, entries, policy_name, ops,
                                           data):
        """Any interleaving of admissions, sheds and withdrawals
        removes each pushed job exactly once and never invents one."""
        jobs = _build(entries)
        for job in jobs:
            job.tenant = f"t{job.priority % 2}"
        policy = make_admission_policy(ServingPolicy(policy=policy_name))
        pending = list(jobs)
        departed: list[Job] = []
        for op in ops:
            if pending and (not policy or data.draw(st.booleans(),
                                                   label="push next")):
                policy.push(pending.pop(0))
                continue
            if not policy:
                break
            if op == "admit":
                job = policy.peek()
                policy.pop(job)
                policy.on_admit(job)
            elif op == "shed":
                job = policy.victim(now=11.0)
                policy.remove(job)
            else:
                job = data.draw(st.sampled_from(policy.jobs()),
                                label="withdraw")
                policy.remove(job)
            departed.append(job)
        leftover = policy.jobs()
        assert len(departed) + len(leftover) + len(pending) == len(jobs)
        seen = {id(j) for j in departed} | {id(j) for j in leftover}
        seen |= {id(j) for j in pending}
        assert len(seen) == len(jobs)
        assert len(policy) == len(leftover)


class TestPolicyOrdering:
    @given(entries=job_sets)
    @settings(max_examples=60, deadline=None)
    def test_priority_dequeues_by_class_then_arrival(self, entries):
        jobs = _build(entries)
        policy = PriorityPolicy()
        for job in jobs:
            policy.push(job)
        order = []
        while policy:
            job = policy.peek()
            policy.pop(job)
            order.append(job)
        expected = sorted(jobs, key=lambda j: (-j.priority, j.arrival,
                                               j.order))
        assert [j.tag for j in order] == [j.tag for j in expected]

    @given(entries=job_sets)
    @settings(max_examples=60, deadline=None)
    def test_edf_dequeues_by_deadline_then_arrival(self, entries):
        jobs = _build(entries)
        policy = EdfPolicy()
        for job in jobs:
            policy.push(job)
        order = []
        while policy:
            job = policy.peek()
            policy.pop(job)
            order.append(job)

        def key(j):
            deadline = j.deadline[0] if j.deadline else float("inf")
            return (deadline, j.arrival, j.order)
        assert [j.tag for j in order] == [j.tag for j in
                                          sorted(jobs, key=key)]

    @given(entries=job_sets)
    @settings(max_examples=60, deadline=None)
    def test_priority_victim_never_outranks_a_waiter(self, entries):
        """Shedding everything one victim at a time never picks a
        job while a strictly lower-priority job still waits — the
        policy-level no-starvation statement."""
        jobs = _build(entries)
        policy = PriorityPolicy()
        for job in jobs:
            policy.push(job)
        while policy:
            victim = policy.victim(now=11.0)
            assert victim.priority == min(j.priority for j in policy.jobs())
            policy.remove(victim)

    @given(entries=job_sets)
    @settings(max_examples=60, deadline=None)
    def test_edf_victim_is_always_least_urgent(self, entries):
        jobs = _build(entries)
        policy = EdfPolicy()
        for job in jobs:
            policy.push(job)
        while policy:
            victim = policy.victim(now=11.0)
            deadlines = [(j.deadline[0] if j.deadline else float("inf"))
                         for j in policy.jobs()]
            victim_deadline = (victim.deadline[0] if victim.deadline
                               else float("inf"))
            assert victim_deadline == max(deadlines)
            policy.remove(victim)


class TestEdfFeasibility:
    @given(entries=job_sets,
           now=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_admission_loop_never_admits_the_provably_doomed(self, entries,
                                                             now):
        """The engine's EDF admission step — shed infeasible heads,
        admit the rest — never lets a query through whose start-up
        alone already overruns its deadline."""
        jobs = _build(entries)
        policy = EdfPolicy()
        for job in jobs:
            policy.push(job)
        admitted, shed = [], []
        while policy:
            job = policy.peek()
            policy.pop(job)
            if provably_infeasible(job, now):
                shed.append(job)
            else:
                admitted.append(job)
        for job in admitted:
            if job.deadline is not None:
                assert now + job.startup <= job.deadline[0]
        for job in shed:
            assert job.deadline is not None
            assert now + job.startup > job.deadline[0]
        assert len(admitted) + len(shed) == len(jobs)


def _run(policy_name, seed, rate, queue_limit=6, count=14, observe=True):
    workload = WorkloadOptions(
        max_concurrent=2,
        serving=ServingPolicy(policy=policy_name, queue_limit=queue_limit))
    return run_serving(rate=rate, count=count, seed=seed,
                       workload=workload, observe=observe)


class TestEngineProperties:
    @given(policy_name=st.sampled_from(["fifo", "priority", "fair_share",
                                        "edf"]),
           seed=st.integers(min_value=0, max_value=2**16),
           overload=st.floats(min_value=0.3, max_value=3.0,
                              allow_nan=False))
    @settings(max_examples=8, deadline=None)
    def test_every_submission_reaches_one_terminal_status(self, policy_name,
                                                          seed, overload):
        result = _run(policy_name, seed, rate=35.0 * overload,
                      observe=False)
        assert len(result.executions) == 14
        for execution in result.executions.values():
            assert execution.status in TERMINAL_STATES
        statuses: dict[str, int] = {}
        for execution in result.executions.values():
            statuses[execution.status] = statuses.get(execution.status, 0) + 1
        assert sum(statuses.values()) == 14

    @given(policy_name=st.sampled_from(["priority", "edf"]),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None)
    def test_decision_log_is_a_pure_function_of_the_seed(self, policy_name,
                                                         seed):
        first = _run(policy_name, seed, rate=70.0)
        second = _run(policy_name, seed, rate=70.0)
        assert decision_digest(first) == decision_digest(second)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @example(seed=73)      # overflows nothing in 20 arrivals: the
    @example(seed=22084)   # property holds vacuously, and must not fail
    @settings(max_examples=6, deadline=None)
    def test_priority_shedding_never_starves_the_higher_class(self, seed):
        """Replaying the decision log: whenever a queue-full shed
        fires, every query still waiting holds a priority >= the
        victim's — overload can never evict the high class to make
        room for the low one."""
        _replay_queue_full_sheds(
            _run("priority", seed, rate=90.0, queue_limit=3, count=20))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overload_reaches_the_shedding_path(self, seed):
        """The safety property above is not vacuous: on these seeds 90
        q/s into a 3-deep queue does overflow."""
        assert _replay_queue_full_sheds(
            _run("priority", seed, rate=90.0, queue_limit=3, count=20)) > 0


def _replay_queue_full_sheds(result) -> int:
    """Asserts that no queue-full victim outranks a waiter; returns the
    number of queue-full sheds replayed."""
    waiting: dict[str, int] = {}
    sheds = 0
    for event in result.bus.events:
        if event.kind == QUERY_SUBMIT and event.data:
            waiting[event.operation] = event.data["priority"]
        elif event.kind in (QUERY_ADMIT, QUERY_CANCEL, QUERY_FINISH):
            waiting.pop(event.operation, None)
        elif event.kind == QUERY_REJECT:
            victim_priority = waiting.pop(event.operation)
            if event.data["reason"] == "queue_full":
                sheds += 1
                if waiting:
                    assert victim_priority <= min(waiting.values())
    return sheds

"""Fault injection into a one-query workload (the run ``Executor.execute``
makes, with the plan on ``WorkloadOptions``).

Each fault type is exercised in isolation against the small join
database: failures retry and converge to the clean result, exhausted
retries abort with :class:`ExecutionFaultError`, slowdown and stall
faults dilate virtual time.  The load-bearing invariant, that an
empty plan leaves the run bit-identical to no plan, is relation (b) of
``tests/properties/test_lattice.py`` (this file's workload is one of
its examples).
"""

import json

import pytest

from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import ExecutionOptions, ObservabilityOptions
from repro.engine.metrics import STATUS_DONE
from repro.errors import ExecutionFaultError
from repro.faults import (
    ActivationFaults,
    FaultPlan,
    MemoryPressure,
    SlowdownWindow,
    StallWindow,
)
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine
from repro.obs.export import read_jsonl, write_jsonl
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.workload.engine import QuerySubmission, WorkloadExecutor
from repro.workload.options import WorkloadOptions

THREADS = 8


def _run(join_db, faults=None, machine=None, pipelined=True, observe=False):
    machine = machine or Machine.uniform(processors=16)
    builder = assoc_join_plan if pipelined else ideal_join_plan
    plan = builder(join_db.entry_a, join_db.entry_b, "key", "key")
    schedule = AdaptiveScheduler(machine).schedule(plan, THREADS)
    options = ExecutionOptions(
        observability=ObservabilityOptions(observe=observe))
    result = WorkloadExecutor(
        machine, options, WorkloadOptions(faults=faults)).execute(
            [QuerySubmission("q0", CompiledQuery.of_plan(plan), schedule)])
    if "q0" in result.errors:
        raise ExecutionFaultError(result.errors["q0"])
    return result.executions["q0"]


class TestFaultFreeParity:
    def test_zero_rate_specs_leave_counters_clean(self, join_db):
        faults = FaultPlan(activations=(ActivationFaults(rate=0.0),))
        execution = _run(join_db, faults=faults)
        for op in execution.operations.values():
            assert op.faults_injected == 0
            assert op.fault_retries == 0
            assert op.fault_aborts == 0


class TestRetries:
    def test_retries_converge_to_clean_result(self, join_db):
        clean = _run(join_db)
        faults = FaultPlan(seed=1, activations=(
            ActivationFaults(operation="join", rate=0.3, max_retries=50),))
        faulted = _run(join_db, faults=faults)
        assert faulted.status == STATUS_DONE
        assert sorted(faulted.result_rows) == sorted(clean.result_rows)
        assert faulted.response_time > clean.response_time
        join = faulted.operations["join"]
        assert join.faults_injected > 0
        assert join.fault_retries == join.faults_injected
        assert join.fault_aborts == 0

    def test_conservation_under_retries(self, join_db):
        faults = FaultPlan(seed=1, activations=(
            ActivationFaults(operation="join", rate=0.3, max_retries=50),))
        execution = _run(join_db, faults=faults)
        for op in execution.operations.values():
            assert sum(op.queue_activations) == (
                op.activations + op.fault_retries + op.fault_aborts
                + op.discarded)

    def test_exhausted_retries_abort(self, join_db):
        faults = FaultPlan(activations=(
            ActivationFaults(operation="join", rate=1.0, max_retries=2),))
        with pytest.raises(ExecutionFaultError, match="join"):
            _run(join_db, faults=faults)


class TestCpuFaults:
    def test_slowdown_dilates_response(self, join_db):
        clean = _run(join_db)
        faults = FaultPlan(slowdowns=(
            SlowdownWindow(0.0, float("inf"), 4.0, operation="join"),))
        slowed = _run(join_db, faults=faults)
        assert slowed.response_time > clean.response_time
        assert sorted(slowed.result_rows) == sorted(clean.result_rows)

    def test_slowdown_announcement_is_flat(self, join_db, tmp_path):
        # Fault announcements carry their fields at the top level of
        # the payload, like every other event kind, through export and
        # reload.
        faults = FaultPlan(slowdowns=(
            SlowdownWindow(0.0, float("inf"), 4.0, operation="join"),))
        slowed = _run(join_db, faults=faults, observe=True)
        announced = slowed.obs.events_of("fault.slowdown")
        assert announced
        assert all(event.data == {"factor": 4.0} for event in announced)
        path = tmp_path / "events.jsonl"
        write_jsonl(slowed, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        slowdowns = [record for record in records
                     if record.get("kind") == "fault.slowdown"]
        assert len(slowdowns) == len(announced)
        assert all(record["factor"] == 4.0 and "data" not in record
                   for record in slowdowns)
        assert read_jsonl(path).obs.events == slowed.obs.events

    @pytest.mark.parametrize("processors", [70, 4],
                             ids=["whole", "sliced"])
    def test_slowdown_announced_once_per_slowed_thread(self, join_db,
                                                       processors):
        # Eight join threads on four processors run the sliced path,
        # which charges the slowdown per slice: it announces the first
        # slowed charge of each (thread, operation) as the whole path
        # does.
        faults = FaultPlan(seed=0, slowdowns=(
            SlowdownWindow(0.0, float("inf"), 3.0, operation="join"),))
        slowed = _run(join_db, faults=faults, pipelined=False, observe=True,
                      machine=Machine.uniform(processors=processors))
        announced = slowed.obs.events_of("fault.slowdown")
        assert sorted(event.thread_id for event in announced) == sorted(
            {span.thread_id for span in slowed.obs.trace.events
             if span.operation == "join" and span.kind == "activation"})
        assert len(announced) == slowed.operations["join"].threads == 8

    def test_stall_parks_threads_and_charges_stalled_time(self, join_db):
        clean = _run(join_db)
        # The window must cover the join's active region: thread
        # startup alone takes ~0.12 virtual seconds on this workload.
        faults = FaultPlan(stalls=(
            StallWindow(0.15, 0.25, operation="join"),))
        stalled = _run(join_db, faults=faults)
        assert stalled.response_time > clean.response_time
        assert stalled.operations["join"].stalled_time > 0.0
        assert sorted(stalled.result_rows) == sorted(clean.result_rows)

    def test_machine_wide_stall_parks_every_operation(self, join_db):
        # A stall naming no operation freezes every operator's threads:
        # each pool that runs inside the window is charged stalled
        # idle time, and the answer is the clean run's.
        clean = _run(join_db)
        stalled = _run(join_db, faults=FaultPlan(stalls=(
            StallWindow(0.0, 0.25),)))
        assert stalled.response_time > clean.response_time
        assert sorted(stalled.result_rows) == sorted(clean.result_rows)
        for name, op in stalled.operations.items():
            assert op.stalled_time > 0.0, name
            assert op.idle_time >= op.stalled_time, name


class TestMemoryPressure:
    def test_shrinking_allcache_budget_raises_penalty(self, join_db):
        clean = _run(join_db, machine=Machine.ksr1(processors=16))
        faults = FaultPlan(memory=(MemoryPressure(at=0.0, factor=0.4),))
        pressured = _run(join_db, faults=faults,
                         machine=Machine.ksr1(processors=16))
        assert sorted(pressured.result_rows) == sorted(clean.result_rows)
        penalty = sum(op.memory_penalty
                      for op in pressured.operations.values())
        baseline = sum(op.memory_penalty
                       for op in clean.operations.values())
        assert penalty >= baseline
        assert pressured.response_time >= clean.response_time


class TestSeededDeterminism:
    def _records(self, join_db, seed):
        faults = FaultPlan(seed=seed, activations=(
            ActivationFaults(operation="join", rate=0.2, max_retries=50),))
        execution = _run(join_db, faults=faults, observe=True)
        from repro.obs.export import jsonl_records
        return [json.dumps(record) for record in jsonl_records(execution)]

    def test_same_seed_identical_event_log(self, join_db):
        assert self._records(join_db, 5) == self._records(join_db, 5)

    def test_different_seed_different_event_log(self, join_db):
        assert self._records(join_db, 5) != self._records(join_db, 6)

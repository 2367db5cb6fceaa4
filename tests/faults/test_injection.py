"""Fault injection through ``Executor.execute`` (a one-query workload).

Each fault type is exercised in isolation against the small join
database: failures retry and converge to the clean result, exhausted
retries abort with :class:`ExecutionFaultError`, latency/slowdown/
stall faults dilate virtual time monotonically, and — the load-bearing
invariant — an empty plan (or no plan) leaves the run bit-identical.
"""

import json

import pytest

from repro.engine.executor import ExecutionOptions, Executor
from repro.engine.metrics import STATUS_DONE
from repro.errors import ExecutionFaultError, FaultError
from repro.faults import (
    ActivationFaults,
    DiskFault,
    FaultPlan,
    MemoryPressure,
    SlowdownWindow,
    StallWindow,
)
from repro.faults.injector import io_faults
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine
from repro.obs.export import read_jsonl, write_jsonl
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.storage.io import relation_to_csv

THREADS = 8


def _run(join_db, faults=None, machine=None, pipelined=True, observe=False):
    machine = machine or Machine.uniform(processors=16)
    builder = assoc_join_plan if pipelined else ideal_join_plan
    plan = builder(join_db.entry_a, join_db.entry_b, "key", "key")
    schedule = AdaptiveScheduler(machine).schedule(plan, THREADS)
    from repro.engine.executor import ObservabilityOptions
    options = ExecutionOptions(
        faults=faults,
        observability=ObservabilityOptions(trace=observe, observe=observe))
    return Executor(machine, options).execute(plan, schedule)


def _metric_trace(execution):
    return {
        "response_time": execution.response_time,
        "rows": sorted(execution.result_rows),
        "operations": {
            name: (m.polls, m.secondary_accesses, m.dequeue_batches,
                   m.enqueues, m.busy_time, m.idle_time, m.finished_at)
            for name, m in execution.operations.items()
        },
    }


class TestFaultFreeParity:
    def test_empty_plan_bit_identical_to_no_plan(self, join_db):
        plain = _run(join_db, faults=None)
        empty = _run(join_db, faults=FaultPlan(seed=3))
        assert _metric_trace(plain) == _metric_trace(empty)

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


class TestDiskFaults:
    def test_extra_latency_dilates_monotonically(self, join_db):
        responses = []
        for extra in (0.0, 0.001, 0.01):
            faults = None if extra == 0.0 else FaultPlan(
                disk=(DiskFault("join", extra_latency=extra),))
            responses.append(
                _run(join_db, faults=faults, pipelined=False).response_time)
        assert responses[0] < responses[1] < responses[2]

    def test_disk_errors_retry_to_clean_result(self, join_db):
        clean = _run(join_db, pipelined=False)
        faults = FaultPlan(seed=2, disk=(
            DiskFault("join", error_rate=0.2, max_retries=50),))
        faulted = _run(join_db, faults=faults, pipelined=False)
        assert sorted(faulted.result_rows) == sorted(clean.result_rows)
        assert faulted.operations["join"].faults_injected > 0


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
        assert read_jsonl(path).events == list(slowed.obs.events)

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


class TestIoFaults:
    def test_matching_path_raises(self, tmp_path, small_relation):
        plan = FaultPlan(io_error_paths=("flaky",))
        with io_faults(plan):
            with pytest.raises(FaultError, match="injected I/O fault"):
                relation_to_csv(small_relation, tmp_path / "flaky.csv")

    def test_non_matching_path_unaffected(self, tmp_path, small_relation):
        plan = FaultPlan(io_error_paths=("flaky",))
        with io_faults(plan):
            relation_to_csv(small_relation, tmp_path / "steady.csv")
        assert (tmp_path / "steady.csv").exists()

    def test_hook_restored_on_exit(self, tmp_path, small_relation):
        with io_faults(FaultPlan(io_error_paths=("flaky",))):
            pass
        relation_to_csv(small_relation, tmp_path / "flaky.csv")


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

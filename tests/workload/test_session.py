"""The Session API: blessed surface, handles, and single-query parity.

``db.query()`` and ``Executor.execute`` are both one-query workloads,
so the parity below is structural; what it pins is the SQL front door
(statement memo, ``prepare``, row shaping) against the plan front door
— same virtual response time, per-operation counters, trace and
observability streams.
"""

import dataclasses

import pytest

from repro import (
    DBS3,
    ExecutionError,
    ExecutionOptions,
    ObservabilityOptions,
    WorkloadError,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.obs.monitor import default_monitors
from repro.workload.session import DONE, PENDING

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"


@pytest.fixture
def db():
    db = DBS3(processors=72)
    db.create_table(generate_wisconsin("A", 2_000), "unique1", degree=20)
    db.create_table(generate_wisconsin("B", 200), "unique1", degree=20)
    return db


@pytest.fixture
def observed_db():
    options = ExecutionOptions(
        observability=ObservabilityOptions(observe=True))
    db = DBS3(processors=72, options=options)
    db.create_table(generate_wisconsin("A", 2_000), "unique1", degree=20)
    db.create_table(generate_wisconsin("B", 200), "unique1", degree=20)
    return db


def _metric_trace(execution):
    return {
        "response_time": execution.response_time,
        "startup_time": execution.startup_time,
        "total_threads": execution.total_threads,
        "dilation": execution.dilation,
        "rows": sorted(execution.result_rows),
        "operations": {
            name: (m.polls, m.secondary_accesses, m.dequeue_batches,
                   m.enqueues, m.finished_at, m.started_at)
            for name, m in execution.operations.items()
        },
    }


class TestSingleQueryParity:
    def test_query_bit_identical_to_direct_executor(self, db):
        via_session = db.query(SQL, threads=10)
        compiled = db.compile(SQL)
        schedule = db.scheduler.schedule(compiled.plan, 10)
        direct = db.executor.execute(compiled.plan, schedule)
        assert _metric_trace(via_session.execution) == _metric_trace(direct)
        assert via_session.rows == compiled.shape_rows(direct.result_rows)

    def test_trace_and_obs_streams_identical(self, observed_db):
        db = observed_db
        via_session = db.query(SQL, threads=10).execution
        compiled = db.compile(SQL)
        schedule = db.scheduler.schedule(compiled.plan, 10)
        direct = db.executor.execute(compiled.plan, schedule)
        assert via_session.obs.trace.events == direct.obs.trace.events
        assert via_session.obs.events == direct.obs.events
        assert via_session.obs.series.keys() == direct.obs.series.keys()
        for name, series in via_session.obs.series.items():
            other = direct.obs.series[name]
            assert series.times == other.times
            assert series.values == other.values


class TestHandles:
    def test_status_transitions(self, db):
        session = db.session()
        handle = session.submit(SQL, threads=8)
        assert handle.status == PENDING
        session.run()
        assert handle.status == DONE

    def test_result_before_completion_drives_the_workload(self, db):
        session = db.session()
        handle = session.submit(SQL, threads=8)
        # No explicit run(): asking for the result executes everything.
        assert handle.result().cardinality == 200
        assert session.result is not None
        assert handle.status == DONE

    def test_schedule_inspectable_before_run(self, db):
        session = db.session()
        handle = session.submit(SQL, threads=8)
        assert handle.schedule.of("join").threads >= 1

    def test_default_tags_count_up(self, db):
        session = db.session()
        assert session.submit(SQL, threads=4).tag == "q0"
        assert session.submit(SQL, threads=4).tag == "q1"

    def test_duplicate_tag_rejected(self, db):
        session = db.session()
        session.submit(SQL, threads=4, tag="mine")
        with pytest.raises(WorkloadError, match="duplicate"):
            session.submit(SQL, threads=4, tag="mine")

    def test_explicit_tag_colliding_with_a_default_one_rejected(self, db):
        session = db.session()
        session.submit(SQL, threads=4)            # tagged "q0"
        with pytest.raises(WorkloadError,
                           match="duplicate query tag 'q0' in session"):
            session.submit(SQL, threads=4, tag="q0")

    def test_negative_arrival_rejected(self, db):
        session = db.session()
        with pytest.raises(WorkloadError, match="arrival"):
            session.submit(SQL, threads=4, at=-1.0)

    def test_submit_after_run_rejected(self, db):
        session = db.session()
        session.submit(SQL, threads=4)
        session.run()
        with pytest.raises(WorkloadError, match="already ran"):
            session.submit(SQL, threads=4)

    def test_run_is_idempotent(self, db):
        session = db.session()
        session.submit(SQL, threads=4)
        assert session.run() is session.run()

    def test_empty_session_runs_to_empty_result(self, db):
        result = db.session().run()
        assert result.executions == {}
        assert result.makespan == 0.0


class TestWorkloadOptionsValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(WorkloadError, match="max_concurrent"):
            WorkloadOptions(max_concurrent=0)

    def test_nonpositive_thread_budget_rejected(self):
        with pytest.raises(WorkloadError, match="thread_budget"):
            WorkloadOptions(thread_budget=0)

    def test_trace_on_the_workload_block_rejected(self):
        """The activation trace is a store of the per-query bus, so
        ``observe`` is the only switch: a ``trace`` knob exists on no
        block any more."""
        with pytest.raises(TypeError, match="trace"):
            WorkloadOptions(observability=ObservabilityOptions(trace=True))
        assert [f.name for f in dataclasses.fields(ObservabilityOptions)] \
            == ["observe", "monitors", "profile"]

    def test_faults_that_are_not_a_plan_rejected(self):
        with pytest.raises(WorkloadError, match="faults must be a FaultPlan"):
            WorkloadOptions(faults="not a plan")


class TestExecutionOptionsValidation:
    def test_monitors_are_a_workload_setting(self):
        with pytest.raises(ExecutionError,
                           match=r"WorkloadOptions\(observability=\.\.\.\)"):
            ExecutionOptions(observability=ObservabilityOptions(
                monitors=default_monitors()))

    def test_profile_is_a_workload_setting(self):
        with pytest.raises(ExecutionError,
                           match=r"WorkloadOptions\(observability=\.\.\.\)"):
            ExecutionOptions(observability=ObservabilityOptions(profile=True))

"""Cancellation, timeouts, and fault aborts through the Session API.

The contracts under test: a cancelled or timed-out query reaches a
clean terminal state without corrupting co-running queries; the
workload event stream records the cancellation; ``result()`` refuses
to hand out partial rows; and — the strongest isolation statement —
a survivor that runs after the machine quiesced is **bit-identical**
to never having submitted the victim at all.
"""

import pytest

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    WorkloadError,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.engine.executor import OperationSchedule, QuerySchedule
from repro.engine.strategies import LPT
from repro.errors import (
    ExecutionFaultError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.faults import ActivationFaults, FaultPlan
from repro.obs.bus import (
    QUERY_ABORT,
    QUERY_CANCEL,
    QUERY_FINISH,
    QUERY_GRANT,
)
from repro.workload.session import CANCELLED, DONE, FAILED, TIMED_OUT
from tests.plans import named_join

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"
SQL_CD = "SELECT * FROM C JOIN D ON C.unique1 = D.unique1"


@pytest.fixture
def db():
    options = ExecutionOptions(
        observability=ObservabilityOptions(observe=True))
    db = DBS3(processors=48, options=options)
    db.create_table(generate_wisconsin("A", 2_000, seed=1), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("B", 200, seed=2), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("C", 1_500, seed=3), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("D", 150, seed=4), "unique1",
                    degree=20)
    return db


def _events(result, kind, tag=None):
    return [e for e in result.bus.events
            if e.kind == kind and (tag is None or e.operation == tag)]


def _lpt_schedule(db, compiled, threads):
    return QuerySchedule({
        node.name: OperationSchedule(threads, strategy=LPT)
        for node in compiled.plan.nodes})


class TestCancelMidRun:
    def test_states_events_and_survivor(self, db):
        session = db.session()
        victim = session.submit(SQL, threads=10, tag="victim")
        survivor = session.submit(SQL_CD, threads=10, tag="survivor")
        victim.cancel(at=0.1)
        result = session.run()

        assert victim.status == CANCELLED
        assert survivor.status == DONE
        assert survivor.result().cardinality == 150
        assert result.status_of("victim") == CANCELLED

        (cancel,) = _events(result, QUERY_CANCEL, "victim")
        assert cancel.t == 0.1
        assert cancel.data["reason"] == "cancel"
        assert cancel.data["admitted"] is True
        (finish,) = _events(result, QUERY_FINISH, "victim")
        assert finish.data["status"] == CANCELLED
        assert finish.t >= cancel.t

    def test_partial_metrics_exposed_but_result_raises(self, db):
        session = db.session()
        victim = session.submit(SQL, threads=10, tag="victim")
        victim.cancel(at=0.1)
        session.run()
        execution = victim.execution
        assert execution.status == CANCELLED
        assert execution.operations  # admitted: partial metrics exist
        with pytest.raises(QueryCancelledError, match="victim"):
            victim.result()

    def test_conservation_after_cancel(self, db):
        session = db.session()
        victim = session.submit(SQL, threads=10, tag="victim")
        victim.cancel(at=0.1)
        session.run()
        discarded = 0
        for op in victim.execution.operations.values():
            assert sum(op.queue_activations) == (
                op.activations + op.fault_retries + op.fault_aborts
                + op.discarded)
            discarded += op.discarded
        assert discarded > 0

    def test_throughput_counts_only_completed(self, db):
        session = db.session()
        session.submit(SQL, threads=10, tag="victim").cancel(at=0.1)
        session.submit(SQL_CD, threads=10, tag="survivor")
        result = session.run()
        assert result.throughput == pytest.approx(1.0 / result.makespan)


class TestCancelBeforeAdmission:
    def test_cancel_at_arrival_never_runs(self, db):
        session = db.session()
        victim = session.submit(SQL, threads=10, tag="victim")
        victim.cancel()  # at its own arrival: withdrawn pre-admission
        result = session.run()
        assert victim.status == CANCELLED
        assert victim.execution.operations == {}
        (cancel,) = _events(result, QUERY_CANCEL, "victim")
        assert cancel.data["admitted"] is False
        assert cancel.data["discarded"] == 0

    def test_cancel_validation(self, db):
        session = db.session()
        handle = session.submit(SQL, threads=10, at=1.0)
        with pytest.raises(WorkloadError, match="cancel_at"):
            handle.cancel(at=0.5)
        session.run()
        with pytest.raises(WorkloadError, match="already ran"):
            handle.cancel()


class TestTimeouts:
    def test_timeout_mid_run(self, db):
        session = db.session()
        victim = session.submit(SQL, threads=10, tag="victim",
                                timeout=0.1)
        survivor = session.submit(SQL_CD, threads=10, tag="survivor")
        result = session.run()
        assert victim.status == TIMED_OUT
        assert survivor.result().cardinality == 150
        (cancel,) = _events(result, QUERY_CANCEL, "victim")
        assert cancel.data["reason"] == "timeout"
        with pytest.raises(QueryTimeoutError, match="victim"):
            victim.result()

    def test_generous_timeout_never_fires(self, db):
        session = db.session()
        handle = session.submit(SQL, threads=10, timeout=1000.0)
        result = session.run()
        assert handle.status == DONE
        assert _events(result, QUERY_CANCEL) == []

    def test_nonpositive_timeout_rejected(self, db):
        session = db.session()
        with pytest.raises(WorkloadError, match="timeout"):
            session.submit(SQL, threads=10, timeout=0.0)


class TestFaultAborts:
    def test_victim_fails_survivor_completes(self, db):
        # The victim is a hand-built plan whose join has a unique name,
        # so the activation faults cannot touch the survivor's operators.
        faults = FaultPlan(activations=(
            ActivationFaults(operation="doomed_join", rate=1.0,
                             max_retries=2),))
        session = db.session(options=WorkloadOptions(faults=faults))
        plan = named_join(db, "doomed_join")
        schema = db.table("A").relation.schema.concat(
            db.table("B").relation.schema)
        victim = session.submit_plan(plan, schema, threads=10, tag="victim")
        survivor = session.submit(SQL_CD, threads=10, tag="survivor")
        result = session.run()

        assert victim.status == FAILED
        assert survivor.status == DONE
        assert survivor.result().cardinality == 150
        with pytest.raises(ExecutionFaultError, match="victim"):
            victim.result()
        (abort,) = _events(result, QUERY_ABORT, "victim")
        assert abort.data["failed_operation"] == "doomed_join"
        assert "victim" in result.errors
        (finish,) = _events(result, QUERY_FINISH, "victim")
        assert finish.data["status"] == FAILED


class TestZeroSurvivorCompletion:
    def test_bus_ends_with_query_finish(self, db):
        session = db.session()
        session.submit(SQL, threads=10)
        result = session.run()
        assert result.bus.events[-1].kind == QUERY_FINISH

    def test_no_grant_after_last_finish(self, db):
        session = db.session()
        session.submit(SQL, threads=10)
        session.submit(SQL_CD, threads=10, at=0.01)
        result = session.run()
        last_finish = max(e.t for e in _events(result, QUERY_FINISH))
        assert all(e.t <= last_finish
                   for e in _events(result, QUERY_GRANT))
        assert result.bus.events[-1].kind == QUERY_FINISH


class TestCancellationParity:
    """A survivor arriving after the machine quiesced is bit-identical
    to a run where the victim was never submitted."""

    LATE = 5.0  # well past anything the cancelled victim could touch

    def _survivor_trace(self, db, with_victim: bool):
        session = db.session()
        if with_victim:
            compiled = db.compile(SQL)
            victim = session.submit_compiled(
                compiled, schedule=_lpt_schedule(db, compiled, 10),
                tag="victim")
            victim.cancel(at=0.1)
        compiled = db.compile(SQL_CD)
        survivor = session.submit_compiled(
            compiled, schedule=_lpt_schedule(db, compiled, 10),
            at=self.LATE, tag="survivor")
        session.run()
        execution = survivor.execution
        return {
            "response_time": execution.response_time,
            "startup_time": execution.startup_time,
            "rows": sorted(execution.result_rows),
            "operations": {
                name: (m.polls, m.secondary_accesses, m.dequeue_batches,
                       m.enqueues, m.busy_time, m.idle_time,
                       m.started_at, m.finished_at)
                for name, m in execution.operations.items()
            },
            "spans": [(s.thread_id, s.operation, s.kind, s.start, s.end)
                      for s in execution.obs.trace.events],
            "events": [(e.kind, e.t, e.operation, e.thread_id)
                       for e in execution.obs.events],
        }

    def test_survivor_bit_identical_without_victim(self, db):
        with_victim = self._survivor_trace(db, with_victim=True)
        alone = self._survivor_trace(db, with_victim=False)
        assert with_victim == alone

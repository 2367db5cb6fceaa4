"""Failure injection and engine edge cases."""

from unittest import mock

import pytest

from repro.bench.workloads import make_join_database
from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    OperationSchedule,
    QuerySchedule,
)
from repro.engine.operation import DeliveryTap
from repro.errors import ExecutionError, WorkloadError
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine


def _miswired(sabotage):
    """Patch :meth:`Executor.wire_pipelines` so that *sabotage* breaks
    the runtimes it has just wired."""
    wire = Executor.wire_pipelines

    def wire_then_break(self, plan, runtimes):
        wire(self, plan, runtimes)
        sabotage(runtimes)
    return mock.patch.object(Executor, "wire_pipelines", wire_then_break)


def _assoc_join():
    database = make_join_database(200, 20, degree=4, theta=0.0)
    plan = assoc_join_plan(database.entry_a, database.entry_b, "key", "key")
    return Executor(Machine.uniform(processors=4)).execute(
        plan, QuerySchedule.for_plan(plan, 2))


class TestDeadlockDetection:
    def test_pipelined_op_with_no_producer_deadlocks(self):
        """A mis-wired pipelined operation (producers never close it)
        is detected instead of hanging."""
        def phantom_producer(runtimes):
            runtimes["join"].producers_remaining += 1   # never comes
        with _miswired(phantom_producer), \
                pytest.raises(WorkloadError, match="deadlock") as raised:
            _assoc_join()
        assert "['join']" in str(raised.value)

    def test_bounded_queues_without_secondary_consumption_deadlock(self):
        """The known hang: a one-slot queue per join instance, one
        transmit thread and join threads that may not steal.  A tuple
        wakes *a* parked join thread, not the owner of the queue it
        landed in, so the transmit blocks on a full queue nobody will
        drain.  Pinned as detected (both operations named), not fixed."""
        database = make_join_database(1200, 120, 100, 0.0)
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        schedule = QuerySchedule({
            "transmit": OperationSchedule(1),
            "join": OperationSchedule(3, allow_secondary=False)})
        executor = Executor(Machine.uniform(processors=16),
                            ExecutionOptions(queue_capacity=1))
        with pytest.raises(WorkloadError, match="deadlock") as raised:
            executor.execute(plan, schedule)
        assert "['transmit', 'join']" in str(raised.value)


class TestRouterWiring:
    def test_consumer_without_router_raises(self):
        def drop_router(runtimes):
            runtimes["transmit"].outputs[0] = DeliveryTap(runtimes["join"])
        with _miswired(drop_router), \
                pytest.raises(ExecutionError, match="router"):
            _assoc_join()


class TestSlicedModeEquivalence:
    """The sliced (over-subscribed) path must agree with the whole-
    activation path on everything but timing."""

    def test_results_identical(self):
        database = make_join_database(2000, 200, degree=10, theta=0.7)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        schedule = QuerySchedule.for_plan(plan, 8)
        whole = Executor(Machine.uniform(processors=8)).execute(
            plan, schedule)      # threads == processors: whole path
        sliced = Executor(Machine.uniform(processors=4)).execute(
            plan, schedule)      # threads > processors: sliced path
        assert sorted(whole.result_rows) == sorted(sliced.result_rows)
        assert whole.total_activations == sliced.total_activations

    def test_sliced_never_faster(self):
        database = make_join_database(2000, 200, degree=10, theta=0.0)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        schedule = QuerySchedule.for_plan(plan, 8)
        whole = Executor(Machine.uniform(processors=8)).execute(
            plan, schedule).response_time
        sliced = Executor(Machine.uniform(processors=4)).execute(
            plan, schedule).response_time
        assert sliced >= whole

    def test_work_is_undilated_in_both_modes(self):
        database = make_join_database(1000, 100, degree=5, theta=0.0)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        schedule = QuerySchedule.for_plan(plan, 4)
        whole = Executor(Machine.uniform(processors=8)).execute(plan, schedule)
        sliced = Executor(Machine.uniform(processors=2)).execute(plan, schedule)
        assert whole.work == pytest.approx(sliced.work)


class TestDegenerateShapes:
    def test_single_fragment_single_thread(self):
        database = make_join_database(100, 10, degree=1, theta=0.0)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        execution = Executor(Machine.uniform(processors=1)).execute(
            plan, QuerySchedule.for_plan(plan, 1))
        assert execution.result_cardinality == database.expected_matches

    def test_empty_join_operands(self):
        database = make_join_database(0, 0, degree=4, theta=0.0)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        execution = Executor(Machine.uniform(processors=4)).execute(
            plan, QuerySchedule.for_plan(plan, 2))
        assert execution.result_cardinality == 0

    def test_one_processor_machine(self):
        database = make_join_database(500, 50, degree=5, theta=0.5)
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        execution = Executor(Machine.uniform(processors=1)).execute(
            plan, QuerySchedule.for_plan(plan, 2))
        assert execution.result_cardinality == database.expected_matches
        assert execution.dilation > 1.0

"""Bounded-queue (NotFull) semantics at the unit and system level."""

import pytest

from repro.bench.workloads import make_join_database
from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    OperationSchedule,
    QuerySchedule,
)
from repro.engine.queues import ActivationQueue
from repro.lera.activation import DATA, Activation
from repro.lera.plans import assoc_join_plan
from repro.machine.machine import Machine
from repro.obs.probes import queue_depth_key


class TestQueueCapacityUnit:
    def test_over_capacity_transitions(self):
        queue = ActivationQueue("op", 0, "pipelined", queue_depth_key("op"),
                                capacity=2)
        queue.enqueue(0.0, Activation(DATA, 0, (1,)))
        assert not queue.over_capacity
        queue.enqueue(0.0, Activation(DATA, 0, (2,)))
        assert queue.over_capacity
        queue.dequeue_ready(1.0, limit=1)
        assert not queue.over_capacity

    def test_blocked_producer_registry(self):
        queue = ActivationQueue("op", 0, "pipelined", queue_depth_key("op"),
                                capacity=1)
        assert queue.blocked_producers == []


class TestBackpressureSystem:
    @pytest.fixture
    def database(self):
        return make_join_database(1000, 200, degree=8, theta=0.0)

    def _run(self, database, capacity, transmit_threads=4, join_threads=1):
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        schedule = QuerySchedule({
            "transmit": OperationSchedule(transmit_threads),
            "join": OperationSchedule(join_threads),
        })
        executor = Executor(Machine.uniform(processors=16),
                            ExecutionOptions(queue_capacity=capacity))
        return executor.execute(plan, schedule)

    def test_results_unchanged_by_capacity(self, database):
        for capacity in (1, 4, 64, None):
            execution = self._run(database, capacity)
            assert execution.result_cardinality == database.expected_matches

    def test_fast_producer_slow_consumer_throttled(self, database):
        """Many transmit threads into one join thread: tight queues
        stall the producers, visible in the transmit's response time."""
        tight = self._run(database, capacity=1)
        free = self._run(database, capacity=None)
        assert (tight.operation("transmit").response_time
                >= free.operation("transmit").response_time)

    def test_overall_response_dominated_by_consumer(self, database):
        """Whatever the capacity, the slow consumer bounds the chain."""
        free = self._run(database, capacity=None)
        tight = self._run(database, capacity=2)
        join_work = free.operation("join").work
        for execution in (free, tight):
            assert execution.response_time >= join_work / 1 * 0.9

    def test_every_activation_still_consumed(self, database):
        execution = self._run(database, capacity=1)
        join = execution.operation("join")
        assert join.activations == database.entry_b.cardinality

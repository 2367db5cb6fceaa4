"""Execution metrics derivations."""

import pytest

from repro.engine.executor import Executor, QuerySchedule
from repro.engine.metrics import OperationMetrics
from repro.errors import ExecutionError
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine


def _metrics(**overrides):
    """A directly-constructed OperationMetrics for edge-case tests."""
    fields = dict(
        name="op", trigger_mode="triggered", instances=4, threads=2,
        strategy="random", started_at=0.0, finished_at=1.0,
        activation_costs=(0.1, 0.2), activation_outputs=(1, 2),
        queue_activations=(1, 1, 0, 0), busy_time=0.3, idle_time=1.7,
        polls=4, enqueues=3, dequeue_batches=2, secondary_accesses=1,
        memory_penalty=0.0, result_count=3)
    fields.update(overrides)
    return OperationMetrics(**fields)


@pytest.fixture
def execution(join_db):
    plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
    return Executor(Machine.uniform(processors=8)).execute(
        plan, QuerySchedule.for_plan(plan, 4))


class TestOperationMetrics:
    def test_identity_fields(self, execution, join_db):
        metrics = execution.operation("join")
        assert metrics.name == "join"
        assert metrics.trigger_mode == "triggered"
        assert metrics.instances == join_db.degree
        assert metrics.threads == 4
        assert metrics.strategy == "random"

    def test_activation_count_matches_fragments(self, execution, join_db):
        assert execution.operation("join").activations == join_db.degree

    def test_work_is_sum_of_costs(self, execution):
        metrics = execution.operation("join")
        assert metrics.work == pytest.approx(sum(metrics.activation_costs))

    def test_profile_round_trip(self, execution):
        metrics = execution.operation("join")
        profile = metrics.profile()
        assert profile.activations == metrics.activations
        assert profile.total_cost == pytest.approx(metrics.work)

    def test_utilization_bounded(self, execution):
        utilization = execution.operation("join").utilization
        assert 0.0 < utilization <= 1.0

    def test_response_time_positive(self, execution):
        assert execution.operation("join").response_time > 0

    def test_unknown_operation_raises(self, execution):
        with pytest.raises(ExecutionError):
            execution.operation("ghost")


class TestEdgeCases:
    def test_queue_imbalance_even_placement(self):
        assert _metrics(queue_activations=(2, 2, 2, 2)).queue_imbalance() \
            == pytest.approx(1.0)

    def test_queue_imbalance_skewed_placement(self):
        metrics = _metrics(queue_activations=(8, 0, 0, 0))
        assert metrics.queue_imbalance() == pytest.approx(4.0)

    def test_queue_imbalance_zero_activations(self):
        # No activations at all: defined as perfectly balanced, not a
        # division by zero.
        assert _metrics(queue_activations=(0, 0, 0, 0)).queue_imbalance() \
            == pytest.approx(1.0)

    def test_queue_imbalance_no_queues(self):
        assert _metrics(queue_activations=()).queue_imbalance() \
            == pytest.approx(1.0)

    def test_utilization_zero_span(self):
        # Start == finish (e.g. a no-op operation): utilization is 0,
        # not a division by zero.
        assert _metrics(finished_at=0.0).utilization == 0.0

    def test_utilization_zero_activations(self):
        metrics = _metrics(activation_costs=(), activation_outputs=(),
                           busy_time=0.0)
        assert metrics.activations == 0
        assert metrics.work == 0.0
        assert metrics.emitted == 0
        assert metrics.utilization == 0.0

    def test_utilization_normal(self):
        assert _metrics().utilization == pytest.approx(0.3 / (1.0 * 2))


class TestQueryExecution:
    def test_work_aggregates_operations(self, join_db):
        plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = Executor(Machine.uniform()).execute(
            plan, QuerySchedule.for_plan(plan, 2))
        per_op = sum(op.work for op in execution.operations.values())
        assert execution.work == pytest.approx(per_op)

    def test_total_activations(self, join_db):
        plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = Executor(Machine.uniform()).execute(
            plan, QuerySchedule.for_plan(plan, 2))
        expected = join_db.degree + join_db.entry_b.cardinality
        assert execution.total_activations == expected

    def test_response_includes_startup(self, execution):
        assert execution.response_time > execution.startup_time


class TestSummary:
    def test_summary_is_readable(self, join_db):
        plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = Executor(Machine.uniform()).execute(
            plan, QuerySchedule.for_plan(plan, 2))
        text = execution.summary()
        assert "response time" in text
        assert "transmit" in text
        assert "join" in text
        assert "util=" in text

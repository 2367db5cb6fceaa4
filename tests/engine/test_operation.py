"""Operation runtime lifecycle: seeding, close, completion."""

import pytest

from repro.engine.dbfuncs import make_dbfunc
from repro.engine.operation import OperationBlueprint, OperationRuntime
from repro.engine.strategies import make_strategy
from repro.errors import ExecutionError
from repro.lera.graph import LeraNode
from repro.lera.operators import PipelinedJoinSpec, ScanFilterSpec
from repro.lera.predicates import TRUE
from repro.machine.costs import DEFAULT_COSTS
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key")


def _triggered(instances=4):
    fragments = [Fragment("R", i, SCHEMA, [(i,)]) for i in range(instances)]
    node = LeraNode("op", ScanFilterSpec(fragments, TRUE, SCHEMA))
    return OperationRuntime(OperationBlueprint(
        node, make_dbfunc(node.spec, DEFAULT_COSTS), make_strategy("random"),
        cache_size=1), None)


def _pipelined(instances=3):
    fragments = [Fragment("A", i, SCHEMA, [(i,)]) for i in range(instances)]
    node = LeraNode("pjoin", PipelinedJoinSpec(
        fragments, "key", SCHEMA, "key", stream_cardinality=9))
    return OperationRuntime(OperationBlueprint(
        node, make_dbfunc(node.spec, DEFAULT_COSTS), make_strategy("random"),
        cache_size=1), None)


class TestConstruction:
    def test_one_queue_per_instance(self):
        operation = _triggered(5)
        assert len(operation.queues) == 5
        assert [q.instance for q in operation.queues] == list(range(5))

    def test_queue_estimates_from_spec(self):
        operation = _triggered(3)
        estimates = operation.node.spec.estimated_instance_costs(DEFAULT_COSTS)
        assert [q.cost_estimate for q in operation.queues] == estimates

    def test_cache_size_must_be_positive(self):
        fragments = [Fragment("R", 0, SCHEMA, [(0,)])]
        node = LeraNode("op", ScanFilterSpec(fragments, TRUE, SCHEMA))
        with pytest.raises(ExecutionError):
            OperationBlueprint(node, make_dbfunc(node.spec, DEFAULT_COSTS),
                               make_strategy("random"), cache_size=0)

    def test_empty_pool_rejected(self):
        operation = _triggered()
        with pytest.raises(ExecutionError):
            operation.build_pool([], start_time=0.0)


class TestLifecycle:
    def test_seed_triggers_closes_input(self):
        operation = _triggered(4)
        operation.build_pool([0, 1], start_time=0.0)
        operation.seed_triggers(0.0)
        assert operation.input_closed
        assert operation.pending_activations == 4
        assert all(len(q) == 1 for q in operation.queues)

    def test_seed_on_pipelined_rejected(self):
        operation = _pipelined()
        operation.build_pool([0], start_time=0.0)
        with pytest.raises(ExecutionError):
            operation.seed_triggers(0.0)

    def test_pipelined_input_open_until_closed(self):
        operation = _pipelined()
        operation.producers_remaining = 1
        assert not operation.input_closed
        operation.close_input()
        assert operation.input_closed

    def test_complete_requires_built_pool(self):
        operation = _triggered()
        assert not operation.complete

    def test_response_time_zero_before_finish(self):
        operation = _triggered()
        assert operation.response_time == 0.0

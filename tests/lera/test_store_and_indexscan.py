"""Unit tests for StoreSpec and IndexScanSpec (and their DBFuncs)."""

import pytest

from repro.engine.dbfuncs import (
    ExecContext,
    IndexScanFunc,
    StoreFunc,
    make_dbfunc,
)
from repro.errors import ExecutionError, PlanError
from repro.lera.activation import trigger, tuple_activation
from repro.lera.operators import IndexScanSpec, StoreSpec
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.machine import Machine
from repro.storage.fragment import Fragment
from repro.storage.indexes import HashIndex
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key", "payload")


def _ctx():
    return ExecContext(Machine.uniform(), owner=0)


class TestStoreSpec:
    def _spec(self, degree=3, expected=30):
        fragments = [Fragment("T", i, SCHEMA) for i in range(degree)]
        return StoreSpec(fragments, SCHEMA, "key",
                         expected_cardinality=expected)

    def test_pipelined_mode(self):
        spec = self._spec()
        assert spec.trigger_mode == "pipelined"
        assert spec.instances == 3
        assert spec.key_position == 0

    def test_estimates_use_expected_cardinality(self):
        spec = self._spec(expected=100)
        per_act = spec.estimated_instance_costs(DEFAULT_COSTS)[0]
        assert spec.total_complexity(DEFAULT_COSTS) == pytest.approx(
            100 * per_act)
        assert spec.estimated_activations() == 100

    def test_bad_key_rejected(self):
        from repro.errors import SchemaError
        fragments = [Fragment("T", 0, SCHEMA)]
        with pytest.raises(SchemaError):
            StoreSpec(fragments, SCHEMA, "ghost")

    def test_empty_fragments_rejected(self):
        with pytest.raises(PlanError):
            StoreSpec([], SCHEMA, "key")


class TestStoreFunc:
    def test_appends_to_target_fragment(self):
        spec = StoreSpec([Fragment("T", 0, SCHEMA),
                          Fragment("T", 1, SCHEMA)], SCHEMA, "key")
        func = StoreFunc(spec, DEFAULT_COSTS)
        result = func.process(1, tuple_activation(1, (7, 70)), _ctx())
        assert result.emitted == []
        assert spec.target_fragments[1].rows == ()
        assert func.finalize(1, _ctx()) is None
        assert spec.target_fragments[1].rows == ((7, 70),)
        assert result.cost > 0

    def test_rejects_control_activation(self):
        spec = StoreSpec([Fragment("T", 0, SCHEMA)], SCHEMA, "key")
        with pytest.raises(ExecutionError):
            StoreFunc(spec, DEFAULT_COSTS).process(0, trigger(0), _ctx())

    def test_factory_dispatch(self):
        spec = StoreSpec([Fragment("T", 0, SCHEMA)], SCHEMA, "key")
        assert isinstance(make_dbfunc(spec, DEFAULT_COSTS), StoreFunc)


class TestIndexScanSpec:
    def _spec(self, value=4):
        fragments = [Fragment("R", i, SCHEMA,
                              [(i + 2 * j, j) for j in range(5)])
                     for i in range(2)]
        indexes = [HashIndex(f.rows, 0) for f in fragments]
        return IndexScanSpec(fragments, indexes, "key", value, SCHEMA)

    def test_triggered_mode(self):
        spec = self._spec()
        assert spec.trigger_mode == "triggered"
        assert spec.instances == 2

    def test_index_count_must_match(self):
        fragments = [Fragment("R", 0, SCHEMA, [(1, 1)])]
        with pytest.raises(PlanError, match="indexes"):
            IndexScanSpec(fragments, [], "key", 1, SCHEMA)

    def test_estimates_are_probe_sized(self):
        spec = self._spec()
        estimate = spec.estimated_instance_costs(DEFAULT_COSTS)[0]
        full_scan = 5 * DEFAULT_COSTS.filter_tuple
        assert estimate < full_scan


class TestIndexScanFunc:
    def test_emits_matches_only(self):
        spec = TestIndexScanSpec()._spec(value=4)
        func = IndexScanFunc(spec, DEFAULT_COSTS)
        result = func.process(0, trigger(0), _ctx())
        # fragment 0 holds keys 0,2,4,6,8 -> one match
        assert result.emitted == [(4, 2)]

    def test_miss_is_empty(self):
        spec = TestIndexScanSpec()._spec(value=999)
        func = IndexScanFunc(spec, DEFAULT_COSTS)
        assert func.process(0, trigger(0), _ctx()).emitted == []

    def test_rejects_data_activation(self):
        spec = TestIndexScanSpec()._spec()
        with pytest.raises(ExecutionError):
            IndexScanFunc(spec, DEFAULT_COSTS).process(
                0, tuple_activation(0, (1, 1)), _ctx())

    def test_probe_cost_below_scan_cost(self):
        from repro.lera.operators import ScanFilterSpec
        from repro.lera.predicates import attribute_predicate
        from repro.engine.dbfuncs import FilterFunc
        index_spec = TestIndexScanSpec()._spec(value=4)
        scan_spec = ScanFilterSpec(
            index_spec.fragments,
            attribute_predicate(SCHEMA, "key", "=", 4), SCHEMA)
        probe = IndexScanFunc(index_spec, DEFAULT_COSTS).process(
            0, trigger(0), _ctx())
        scan = FilterFunc(scan_spec, DEFAULT_COSTS).process(
            0, trigger(0), _ctx())
        assert probe.emitted == scan.emitted
        assert probe.cost < scan.cost

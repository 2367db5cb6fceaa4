"""Activations and trigger factories, and the per-activation records'
semantics: they are tuples, read by field name."""

import pytest

from repro.engine.dbfuncs import ExecContext, ProcessResult, StoreFunc
from repro.lera.activation import (
    CONTROL,
    DATA,
    Activation,
    chunk_trigger,
    trigger,
    tuple_activation,
)
from repro.lera.operators import StoreSpec
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.machine import Machine
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema


class TestActivation:
    def test_trigger_is_control(self):
        activation = trigger(3)
        assert activation.kind == CONTROL
        assert activation.instance == 3
        assert activation.row is None
        assert activation.chunk is None

    def test_tuple_activation_carries_row(self):
        activation = tuple_activation(1, (10, 20))
        assert activation.kind == DATA
        assert activation.row == (10, 20)

    def test_frozen(self):
        activation = trigger(0)
        try:
            activation.instance = 5
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_equality_and_hash_are_by_value(self):
        assert chunk_trigger(2, 1) == Activation(CONTROL, 2, None, 1)
        assert chunk_trigger(2, 1) != chunk_trigger(2, 0)
        assert tuple_activation(1, (7,)) != trigger(1)
        assert len({tuple_activation(1, (7,)), tuple_activation(1, (7,)),
                    trigger(1)}) == 2

    def test_each_construction_is_a_distinct_object(self):
        # The fault injector keys its retry ledger on id(activation).
        first, second = trigger(0), trigger(0)
        assert first == second and first is not second


class TestProcessResult:
    def test_fields_by_name(self):
        result = ProcessResult(0.5, [(1,)])
        assert result.cost == 0.5
        assert result.emitted == [(1,)]
        assert tuple(result) == (0.5, [(1,)])

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ProcessResult(0.5, []).cost = 1.0

    def test_emitted_has_no_shared_default(self):
        with pytest.raises(TypeError):
            ProcessResult(0.5)
        schema = Schema.of_ints("key")
        func = StoreFunc(StoreSpec([Fragment("T", 0, schema)], schema, "key"),
                         DEFAULT_COSTS)
        ctx = ExecContext(Machine.uniform(), owner=0)
        first = func.process(0, tuple_activation(0, (1,)), ctx)
        second = func.process(0, tuple_activation(0, (2,)), ctx)
        assert first.emitted == [] and first.emitted is not second.emitted

"""Operator bodies: real relational results plus cost accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.dbfuncs import (
    ExecContext,
    FilterFunc,
    JoinFunc,
    PipelinedJoinFunc,
    TransmitFunc,
    make_dbfunc,
    segment_key,
)
from repro.errors import ExecutionError
from repro.lera.activation import DATA, Activation, chunk_trigger, trigger
from repro.lera.operators import (
    JOIN_NESTED_LOOP,
    JOIN_TEMP_INDEX,
    JoinSpec,
    PipelinedJoinSpec,
    ScanFilterSpec,
    TransmitSpec,
)
from repro.lera.predicates import attribute_predicate
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.machine import Machine
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema
from tests.storage.test_join_index import ROWS, nested_loop_reference

SCHEMA = Schema.of_ints("key", "payload")


def _ctx():
    return ExecContext(Machine.uniform(), owner=0)


def _fragments(name, rows_per_fragment):
    return [Fragment(name, i, SCHEMA, rows)
            for i, rows in enumerate(rows_per_fragment)]


class TestFilterFunc:
    def _func(self):
        fragments = _fragments("R", [[(0, 0), (2, 20), (4, 40)],
                                     [(1, 10), (3, 30)]])
        predicate = attribute_predicate(SCHEMA, "key", ">", 1)
        return FilterFunc(ScanFilterSpec(fragments, predicate, SCHEMA),
                          DEFAULT_COSTS)

    def test_emits_matching_rows(self):
        result = self._func().process(0, trigger(0), _ctx())
        assert result.emitted == [(2, 20), (4, 40)]

    def test_cost_scales_with_fragment(self):
        func = self._func()
        cost0 = func.process(0, trigger(0), _ctx()).cost
        cost1 = func.process(1, trigger(1), _ctx()).cost
        assert cost0 > cost1  # 3 rows scanned vs 2

    def test_rejects_data_activation(self):
        with pytest.raises(ExecutionError):
            self._func().process(0, Activation(DATA, 0, (1, 1)), _ctx())

    def test_segments_reported(self):
        segments = self._func().segments(0)
        assert segments[0][0] == ("R", 0)


class TestJoinFunc:
    def _func(self, algorithm):
        outer = _fragments("A", [[(0, 1), (8, 2), (16, 3)]])
        inner = _fragments("B", [[(8, 100), (8, 101), (24, 102)]])
        spec = JoinSpec(outer, inner, "key", "key", algorithm=algorithm)
        return JoinFunc(spec, DEFAULT_COSTS)

    @pytest.mark.parametrize("algorithm", [JOIN_NESTED_LOOP, JOIN_TEMP_INDEX])
    def test_same_matches_every_algorithm(self, algorithm):
        result = self._func(algorithm).process(0, trigger(0), _ctx())
        assert sorted(result.emitted) == [(8, 2, 8, 100), (8, 2, 8, 101)]

    def test_nested_loop_cost_is_quadratic(self):
        result = self._func(JOIN_NESTED_LOOP).process(0, trigger(0), _ctx())
        floor = 9 * DEFAULT_COSTS.tuple_pair
        assert result.cost >= floor

    def test_index_cost_below_nested_loop_for_big_fragments(self):
        rows_outer = [[(i, i) for i in range(500)]]
        rows_inner = [[(i, -i) for i in range(50)]]
        nl = JoinFunc(JoinSpec(_fragments("A", rows_outer),
                               _fragments("B", rows_inner), "key", "key",
                               algorithm=JOIN_NESTED_LOOP), DEFAULT_COSTS)
        ix = JoinFunc(JoinSpec(_fragments("A", rows_outer),
                               _fragments("B", rows_inner), "key", "key",
                               algorithm=JOIN_TEMP_INDEX), DEFAULT_COSTS)
        assert (ix.process(0, trigger(0), _ctx()).cost
                < nl.process(0, trigger(0), _ctx()).cost)

    def test_rejects_data_activation(self):
        with pytest.raises(ExecutionError):
            self._func(JOIN_NESTED_LOOP).process(
                0, Activation(DATA, 0, (1, 1)), _ctx())


class TestNestedLoopJoinIndex:
    """The join index gives each activation the rows and the charge the
    nested-loop comprehension gave, for every chunk of every grain."""

    @settings(max_examples=60)
    @given(outer=ROWS, inner=ROWS, grain=st.integers(1, 5),
           allcache=st.booleans())
    def test_every_chunk_equals_the_comprehension(self, outer, inner, grain,
                                                  allcache):
        spec = JoinSpec(_fragments("A", [outer]), _fragments("B", [inner]),
                        "key", "key", grain=grain)
        func = JoinFunc(spec, DEFAULT_COSTS)
        rows = spec.outer_fragments[0].rows
        for chunk in range(grain):
            low, high = spec.chunk_bounds(0, chunk)
            expected = nested_loop_reference(rows[low:high], inner)
            activation = trigger(0) if grain == 1 else chunk_trigger(0, chunk)
            for _ in range(2):  # the build, then the kept index
                machine = (Machine.ksr1(processors=2) if allcache
                           else Machine.uniform())
                ctx = ExecContext(machine, owner=0)
                result = func.process(0, activation, ctx)
                assert result.emitted == expected
                assert (ctx.penalty > 0) == allcache
                charge = DEFAULT_COSTS.trigger_activation + ctx.penalty
                charge += DEFAULT_COSTS.nested_loop_cost(
                    high - low, len(inner), len(expected))
                assert result.cost == charge
                result.emitted.append("junk")


class TestTransmitFunc:
    def _func(self):
        fragments = _fragments("B", [[(0, 0), (2, 2)], [(1, 1)]])
        return TransmitFunc(TransmitSpec(fragments, "key", 4), DEFAULT_COSTS)

    def test_emits_whole_fragment(self):
        result = self._func().process(0, trigger(0), _ctx())
        assert result.emitted == [(0, 0), (2, 2)]

    def test_cost_per_tuple(self):
        result = self._func().process(0, trigger(0), _ctx())
        expected = (DEFAULT_COSTS.trigger_activation
                    + 2 * DEFAULT_COSTS.transmit_tuple)
        assert result.cost == pytest.approx(expected)


class TestPipelinedJoinFunc:
    def _func(self, algorithm=JOIN_NESTED_LOOP):
        stored = _fragments("A", [[(0, 1), (4, 2), (4, 3)], [(1, 9)]])
        spec = PipelinedJoinSpec(stored, "key", SCHEMA, "key",
                                 algorithm=algorithm, stream_cardinality=10)
        return PipelinedJoinFunc(spec, DEFAULT_COSTS)

    @pytest.mark.parametrize("algorithm", [JOIN_NESTED_LOOP, JOIN_TEMP_INDEX])
    def test_probe_matches(self, algorithm):
        result = self._func(algorithm).process(
            0, Activation(DATA, 0, (4, 100)), _ctx())
        assert sorted(result.emitted) == [(4, 100, 4, 2), (4, 100, 4, 3)]

    def test_probe_miss_is_empty(self):
        result = self._func().process(0, Activation(DATA, 0, (99, 0)), _ctx())
        assert result.emitted == []

    def test_index_build_charged_once(self):
        func = self._func(JOIN_TEMP_INDEX)
        first = func.process(0, Activation(DATA, 0, (4, 0)), _ctx()).cost
        second = func.process(0, Activation(DATA, 0, (4, 0)), _ctx()).cost
        assert first > second  # lazy build charged on first activation

    def test_instances_have_independent_state(self):
        func = self._func(JOIN_TEMP_INDEX)
        func.process(0, Activation(DATA, 0, (4, 0)), _ctx())
        # instance 1's first probe still pays its own build
        first = func.process(1, Activation(DATA, 1, (1, 0)), _ctx()).cost
        second = func.process(1, Activation(DATA, 1, (1, 0)), _ctx()).cost
        assert first > second

    def test_rejects_control_activation(self):
        with pytest.raises(ExecutionError):
            self._func().process(0, trigger(0), _ctx())


class TestExecContext:
    def test_penalty_accumulates(self):
        machine = Machine.ksr1(processors=2)
        ctx = ExecContext(machine, owner=0)
        ctx.touch("seg", 4096)
        ctx.touch("seg2", 4096)
        assert ctx.penalty > 0
        assert ctx.penalty == pytest.approx(
            2 * DEFAULT_COSTS.lines(4096)
            * DEFAULT_COSTS.remote_penalty_per_line())

    def test_uniform_machine_no_penalty(self):
        ctx = _ctx()
        assert ctx.touch("seg", 4096) == 0.0
        assert ctx.penalty == 0.0


class TestFactory:
    def test_dispatch(self):
        fragments = _fragments("R", [[(1, 1)]])
        from repro.lera.predicates import TRUE
        assert isinstance(
            make_dbfunc(ScanFilterSpec(fragments, TRUE, SCHEMA), DEFAULT_COSTS),
            FilterFunc)
        assert isinstance(
            make_dbfunc(TransmitSpec(fragments, "key", 2), DEFAULT_COSTS),
            TransmitFunc)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ExecutionError):
            make_dbfunc(object(), DEFAULT_COSTS)

    def test_segment_key(self):
        fragment = Fragment("R", 7, SCHEMA)
        assert segment_key(fragment) == ("R", 7)

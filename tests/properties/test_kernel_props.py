"""Property-based tests: the set-at-a-time operator kernels against the
row-at-a-time loops they replaced, kept here as the reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.parallelizer import CompiledQuery
from repro.engine.dbfuncs import ExecContext, JoinFunc
from repro.lera.activation import chunk_trigger, trigger
from repro.lera.operators import JOIN_NESTED_LOOP, JoinSpec
from repro.lera.predicates import (
    TRUE,
    Predicate,
    attribute_predicate,
    conjunction,
)
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.machine import Machine
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key", "payload")
COMPARATORS = ("<", "<=", ">", ">=", "=", "==", "!=", "<>")

# A narrow key range, so duplicate keys are the rule on both sides.
row_lists = st.lists(st.tuples(st.integers(0, 6), st.integers(-50, 50)),
                     max_size=40)
values = st.integers(-2, 8)


def _reference_select(predicate, rows):
    """The old per-row filter of ``FilterFunc.process``."""
    return [row for row in rows if predicate.fn(row)]


def _reference_join(outer_rows, inner_rows):
    """The old nested-loop body: every outer row probes the inner table."""
    table = {}
    for right in inner_rows:
        table.setdefault(right[0], []).append(right)
    emitted = []
    for left in outer_rows:
        for right in table.get(left[0], ()):
            emitted.append(left + right)
    return emitted


def _assert_fresh_select(predicate, rows):
    stored = tuple(rows)
    first = predicate.select(stored)
    second = predicate.select(stored)
    assert type(first) is list
    assert first == second == _reference_select(predicate, stored)
    assert first is not second


class TestPredicateBatchForm:
    @settings(max_examples=40, deadline=None)
    @given(rows=row_lists, op=st.sampled_from(COMPARATORS), value=values,
           attribute=st.sampled_from(("key", "payload")))
    def test_every_comparator_matches_the_row_loop(self, rows, op, value,
                                                   attribute):
        _assert_fresh_select(
            attribute_predicate(SCHEMA, attribute, op, value), rows)

    @settings(max_examples=40, deadline=None)
    @given(rows=row_lists,
           parts=st.lists(st.tuples(st.sampled_from(("key", "payload")),
                                    st.sampled_from(COMPARATORS), values),
                          min_size=2, max_size=4))
    def test_conjunction_matches_the_row_loop(self, rows, parts):
        predicate = conjunction(*(attribute_predicate(SCHEMA, a, op, v)
                                  for a, op, v in parts))
        _assert_fresh_select(predicate, rows)

    @settings(max_examples=20, deadline=None)
    @given(rows=row_lists)
    def test_true_and_a_lambda_predicate(self, rows):
        _assert_fresh_select(TRUE, rows)
        _assert_fresh_select(
            Predicate("odd payload", lambda row: row[1] % 2 == 1), rows)

    def test_empty_input_gives_a_new_empty_list(self):
        predicate = attribute_predicate(SCHEMA, "key", "<", 3)
        assert predicate.select(()) == [] and TRUE.select(()) == []
        assert TRUE.select(()) is not TRUE.select(())


def _join(outer_rows, inner_rows, grain):
    spec = JoinSpec([Fragment("A", 0, SCHEMA, outer_rows)],
                    [Fragment("B", 0, SCHEMA, inner_rows)], "key", "key",
                    algorithm=JOIN_NESTED_LOOP, grain=grain)
    return spec, JoinFunc(spec, DEFAULT_COSTS)


class TestNestedLoopJoin:
    @settings(max_examples=60, deadline=None)
    @given(outer_rows=row_lists, inner_rows=row_lists)
    def test_matches_the_double_loop_exactly(self, outer_rows, inner_rows):
        _, func = _join(outer_rows, inner_rows, grain=1)
        ctx = ExecContext(Machine.uniform(), owner=0)
        result = func.process(0, trigger(0), ctx)
        expected = _reference_join(outer_rows, inner_rows)
        assert result.emitted == expected
        assert result.cost == (DEFAULT_COSTS.trigger_activation
                               + DEFAULT_COSTS.nested_loop_cost(
                                   len(outer_rows), len(inner_rows),
                                   len(expected)))

    @settings(max_examples=40, deadline=None)
    @given(outer_rows=row_lists, inner_rows=row_lists,
           grain=st.integers(2, 5))
    def test_chunks_match_the_double_loop_over_their_slice(
            self, outer_rows, inner_rows, grain):
        spec, func = _join(outer_rows, inner_rows, grain)
        ctx = ExecContext(Machine.uniform(), owner=0)
        joined = []
        for chunk in range(grain):
            low, high = spec.chunk_bounds(0, chunk)
            result = func.process(0, chunk_trigger(0, chunk), ctx)
            expected = _reference_join(outer_rows[low:high], inner_rows)
            assert result.emitted == expected
            assert result.cost == (DEFAULT_COSTS.trigger_activation
                                   + DEFAULT_COSTS.nested_loop_cost(
                                       high - low, len(inner_rows),
                                       len(expected)))
            joined += result.emitted
        assert joined == _reference_join(outer_rows, inner_rows)

    @pytest.mark.parametrize("outer_rows, inner_rows", [
        ([], [(1, 1)]), ([(1, 1)], []), ([], [])])
    def test_empty_fragments_emit_nothing(self, outer_rows, inner_rows):
        _, func = _join(outer_rows, inner_rows, grain=1)
        result = func.process(0, trigger(0),
                              ExecContext(Machine.uniform(), owner=0))
        assert result.emitted == []


class TestShapeRows:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(), st.text(max_size=3),
                                   st.integers()), max_size=30),
           projection=st.lists(st.integers(0, 2), min_size=1, max_size=4))
    def test_matches_the_per_row_projection(self, rows, projection):
        compiled = CompiledQuery(None, None, tuple(projection), "shaped")
        shaped = compiled.shape_rows(rows)
        assert shaped == [tuple(row[p] for p in projection) for row in rows]
        assert all(type(row) is tuple for row in shaped)

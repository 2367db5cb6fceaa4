"""A fragment's join index: which of its rows match which inner rows.

``Fragment.join_index(position, inner, inner_position)`` probes the
inner fragment's hash index once per outer row and keeps the matching
pairs beside the fragment's other indexes.  What must hold: its rows
are the nested-loop comprehension it replaced, in the same order, for
every ``[low, high)`` slice; it is rebuilt when either side's rows
change (the outer drops it on ``extend`` / ``clear``, the inner is
checked by the identity of its rows tuple); it keeps one entry per pair
of positions and no reference to the inner fragment.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import JOIN_SCHEMA
from repro.storage.catalog import Catalog
from repro.storage.fragment import Fragment
from repro.storage.indexes import build_join_index, join_rows
from repro.storage.partitioning import PartitioningSpec
from repro.storage.relation import Relation


def nested_loop_reference(outer_rows, inner_rows, outer_pos=0, inner_pos=0):
    """The matching ``JoinFunc`` did before the join index: one
    comprehension over the outer rows, probing a key -> rows table of
    the inner ones."""
    table = {}
    for right in inner_rows:
        table.setdefault(right[inner_pos], []).append(right)
    return [left + right for left in outer_rows
            if left[outer_pos] in table
            for right in table[left[outer_pos]]]


#: Few keys, so both sides repeat them; lists may be empty.
ROWS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 99)),
                max_size=12)


def _pair(outer_rows, inner_rows):
    return (Fragment("A", 0, JOIN_SCHEMA, outer_rows),
            Fragment("B", 0, JOIN_SCHEMA, inner_rows))


class TestMatchesTheComprehension:
    @settings(max_examples=150)
    @given(outer_rows=ROWS, inner_rows=ROWS, low=st.integers(0, 12),
           width=st.integers(0, 12))
    def test_every_slice(self, outer_rows, inner_rows, low, width):
        outer, inner = _pair(outer_rows, inner_rows)
        high = min(low + width, len(outer.rows))
        low = min(low, high)
        joined = join_rows(outer.join_index(0, inner, 0), outer.rows, low,
                           high)
        assert joined == nested_loop_reference(outer.rows[low:high],
                                               inner.rows)

    @given(outer_rows=ROWS, inner_rows=ROWS)
    def test_other_key_positions(self, outer_rows, inner_rows):
        outer, inner = _pair(outer_rows, inner_rows)
        joined = join_rows(outer.join_index(1, inner, 0), outer.rows, 0,
                           len(outer.rows))
        assert joined == nested_loop_reference(outer.rows, inner.rows, 1, 0)

    def test_duplicates_on_both_sides_keep_nested_loop_order(self):
        outer, inner = _pair([(1, 10), (2, 20), (1, 11)],
                             [(1, 7), (3, 9), (1, 8)])
        index = outer.join_index(0, inner, 0)
        assert join_rows(index, outer.rows, 0, 3) == [
            (1, 10, 1, 7), (1, 10, 1, 8), (1, 11, 1, 7), (1, 11, 1, 8)]

    def test_an_empty_side_joins_nothing(self):
        for outer_rows, inner_rows in (([], [(1, 1)]), ([(1, 1)], [])):
            outer, inner = _pair(outer_rows, inner_rows)
            index = outer.join_index(0, inner, 0)
            assert join_rows(index, outer.rows, 0, 1) == []

    def test_each_join_is_a_fresh_list(self):
        outer, inner = _pair([(1, 10)], [(1, 7)])
        index = outer.join_index(0, inner, 0)
        first = join_rows(index, outer.rows, 0, 1)
        first.append("junk")
        assert join_rows(index, outer.rows, 0, 1) == [(1, 10, 1, 7)]


def _doctored_join_index(self, position, inner, inner_position):
    """``Fragment.join_index`` without the inner rows identity check."""
    key = (position, "join", inner_position)
    index = self._indexes.get(key)
    if index is None:
        index = build_join_index(self.rows, position, inner.rows,
                                 inner.index_on(inner_position))
        self._indexes[key] = index
    return index


class TestFreshness:
    @staticmethod
    def _store_reuse(outer, inner):
        """A Store target re-filled between executions: the inner, then
        the outer; each execution's rows and the reference's."""
        seen = []

        def execute():
            joined = join_rows(outer.join_index(0, inner, 0), outer.rows,
                               0, len(outer.rows))
            seen.append((joined, nested_loop_reference(outer.rows,
                                                       inner.rows)))

        execute()
        inner.clear()
        inner.extend([(1, 70), (2, 80)])
        execute()
        outer.clear()
        outer.extend([(2, 20), (2, 21)])
        execute()
        return seen

    def test_a_refilled_side_is_seen_by_the_next_execution(self):
        outer, inner = _pair([(1, 10), (2, 20)], [(1, 7)])
        seen = self._store_reuse(outer, inner)
        for joined, expected in seen:
            assert joined == expected
        assert [joined for joined, _ in seen] == [
            [(1, 10, 1, 7)],
            [(1, 10, 1, 70), (2, 20, 2, 80)],
            [(2, 20, 2, 80), (2, 21, 2, 80)]]

    def test_without_the_identity_check_a_refilled_inner_is_missed(
            self, monkeypatch):
        monkeypatch.setattr(Fragment, "join_index", _doctored_join_index)
        outer, inner = _pair([(1, 10), (2, 20)], [(1, 7)])
        joined, expected = self._store_reuse(outer, inner)[1]
        assert joined != expected

    def test_one_entry_per_pair_of_positions(self):
        outer, inner = _pair([(1, 10)], [(1, 7)])
        other = Fragment("C", 0, JOIN_SCHEMA, [(1, 5)])
        for _ in range(3):
            outer.join_index(0, inner, 0)
            outer.join_index(0, other, 0)
            outer.join_index(0, inner, 1)
        joins = [key for key in outer._indexes if "join" in key]
        assert sorted(joins) == [(0, "join", 0), (0, "join", 1)]
        index = outer.join_index(0, inner, 0)
        assert outer.join_index(0, inner, 0) is index
        assert type(index) is tuple and index[0] is inner.rows


class TestRelease:
    def test_a_dropped_inner_table_is_freed(self):
        catalog = Catalog()
        spec = PartitioningSpec.on("key", 4)
        outer = catalog.register(
            Relation("A", JOIN_SCHEMA, [(i, i) for i in range(40)]), spec)
        inner = catalog.register(
            Relation("B", JOIN_SCHEMA, [(i, -i) for i in range(0, 40, 3)]),
            spec)
        for left, right in zip(outer.fragments, inner.fragments):
            assert left.join_index(0, right, 0)[1], "no pair matched"
        refs = [weakref.ref(fragment) for fragment in inner.fragments]
        catalog.drop("B")
        del inner, left, right
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        # The outer still holds its join indexes, over the inner rows.
        assert all(len(fragment._indexes) == 1
                   for fragment in outer.fragments)


@pytest.mark.parametrize("size", (0, 1, 50))
def test_positions_are_ascending_and_pairs_aligned(size):
    outer, inner = _pair([(i % 7, i) for i in range(size)],
                         [(i % 5, -i) for i in range(size)])
    _, positions, inners = outer.join_index(0, inner, 0)
    assert list(positions) == sorted(positions)
    assert len(positions) == len(inners)
    for position, right in zip(positions, inners):
        assert outer.rows[position][0] == right[0]

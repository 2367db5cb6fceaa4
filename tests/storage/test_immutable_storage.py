"""Stored data is immutable: row containers and index match lists are
tuples, so no caller can corrupt what other executions share, and a
loaded database leaves the cyclic collector's books."""

import gc

import pytest

from repro import DBS3
from repro.storage.fragment import Fragment
from repro.storage.relation import Relation
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key", "payload")

#: Tracked objects a loaded fragment may leave behind: the fragment, its
#: index memo, the index, its bound ``get`` and its ``table`` view.
TRACKED_PER_FRAGMENT = 6


class TestNoSharedMutableState:
    @pytest.mark.parametrize("kind", ("hash", "sorted"))
    def test_a_lookup_result_cannot_be_mutated(self, kind):
        fragment = Fragment("R", 0, SCHEMA, [(1, 10), (1, 11), (2, 20)])
        matches = fragment.index_on(0, kind).lookup(1)
        with pytest.raises(AttributeError):
            matches.append((1, 99))
        with pytest.raises(TypeError):
            matches[0] = (1, 99)
        # The next execution sharing the index sees what was stored.
        assert fragment.index_on(0, kind).lookup(1) == ((1, 10), (1, 11))

    def test_a_hash_probe_result_cannot_be_mutated(self):
        fragment = Fragment("R", 0, SCHEMA, [(1, 10)])
        index = fragment.index_on(0)
        with pytest.raises(AttributeError):
            index.get(1).append((1, 99))
        with pytest.raises(AttributeError):
            index.table[1].append((1, 99))
        with pytest.raises(TypeError):
            index.table[2] = ((2, 20),)
        assert index.lookup(2) == ()

    def test_stored_rows_cannot_be_mutated(self):
        db = DBS3()
        entry = db.create_table(
            Relation("R", SCHEMA, [(i, i) for i in range(40)]), "key", 4)
        for rows in [entry.relation.rows,
                     *(fragment.rows for fragment in entry.fragments)]:
            with pytest.raises(AttributeError):
                rows.append((99, 99))
            with pytest.raises(TypeError):
                rows[0] = (99, 99)


class TestCollectorBudget:
    def _load(self, db):
        degree = 200
        relation_a = Relation("A", SCHEMA,
                              [(i, i % 97) for i in range(50_000)])
        entry_a = db.create_table(relation_a, "key", degree)
        buckets = [[] for _ in range(degree)]
        for key in range(50_000):
            buckets[key % degree].append((key // 2, -key))
        fragments_b = [Fragment("B", i, SCHEMA, bucket)
                       for i, bucket in enumerate(buckets)]
        relation_b = Relation("B", SCHEMA,
                              [row for bucket in buckets for row in bucket])
        entry_b = db.create_table_from_fragments(relation_b, "key",
                                                 fragments_b)
        return entry_a, entry_b

    def test_a_loaded_database_leaves_the_collector(self):
        db = DBS3()
        gc.collect()
        before = len(gc.get_objects())
        entries = self._load(db)
        indexes = [fragment.index_on(0)
                   for entry in entries for fragment in entry.fragments]
        gc.collect()
        grown = len(gc.get_objects()) - before

        fragments = [f for entry in entries for f in entry.fragments]
        assert sum(len(f) for f in fragments) == 100_000
        assert not any(gc.is_tracked(entry.relation.rows)
                       for entry in entries)
        assert not any(gc.is_tracked(f.rows) for f in fragments)
        # The dict behind each index's read-only view.
        tables = [gc.get_referents(index.table)[0] for index in indexes]
        assert all(type(table) is dict for table in tables)
        assert not any(gc.is_tracked(table) for table in tables)
        # Bounded by fragments, not by the 100k rows or 75k keys.
        assert grown <= TRACKED_PER_FRAGMENT * len(fragments) + 100, grown

"""Relation container and reference operators (tests' ground truth)."""

import pytest

from repro.errors import SchemaError
from repro.storage.relation import Relation
from repro.storage.schema import Schema


class TestRelationBasics:
    def test_rejects_empty_name(self, small_schema):
        with pytest.raises(SchemaError):
            Relation("", small_schema)

    def test_cardinality_and_iter(self, small_relation):
        assert small_relation.cardinality == 100
        assert len(list(small_relation)) == 100

    def test_column_materializes(self, small_relation):
        keys = small_relation.column("key")
        assert keys == list(range(100))

    def test_size_bytes(self, small_relation):
        assert small_relation.size_bytes() == 100 * 2 * 8


class TestReferenceOperators:
    def test_select_filters(self, small_relation):
        selected = small_relation.select(lambda row: row[0] < 10)
        assert selected.cardinality == 10
        assert all(row[0] < 10 for row in selected)

    def test_select_keeps_schema(self, small_relation):
        assert small_relation.select(lambda r: True).schema == small_relation.schema

    def test_project_reorders(self, small_relation):
        projected = small_relation.project(["payload", "key"])
        assert projected.schema.names == ("payload", "key")
        assert projected.rows[3] == (30, 3)

    def test_join_matches_keys(self):
        left = Relation("L", Schema.of_ints("k", "x"), [(1, 10), (2, 20)])
        right = Relation("R", Schema.of_ints("j", "y"), [(2, 200), (3, 300)])
        joined = left.join(right, "k", "j")
        assert joined.rows == ((2, 20, 2, 200),)

    def test_join_handles_duplicates(self):
        left = Relation("L", Schema.of_ints("k"), [(1,), (1,)])
        right = Relation("R", Schema.of_ints("j"), [(1,), (1,)])
        assert left.join(right, "k", "j").cardinality == 4

    def test_join_output_schema_renames_collisions(self):
        left = Relation("L", Schema.of_ints("k"), [(1,)])
        right = Relation("R", Schema.of_ints("k"), [(1,)])
        assert left.join(right, "k", "k").schema.names == ("k", "k_2")

    def test_sorted_by(self):
        relation = Relation("S", Schema.of_ints("k"), [(3,), (1,), (2,)])
        assert relation.sorted_by("k").rows == ((1,), (2,), (3,))

    def test_empty_join(self):
        left = Relation("L", Schema.of_ints("k"), [(1,)])
        right = Relation("R", Schema.of_ints("j"), [])
        assert left.join(right, "k", "j").cardinality == 0

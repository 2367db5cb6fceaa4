"""Schema and attribute behaviour."""

import pytest

from repro.errors import SchemaError
from repro.storage.schema import Attribute, Schema


class TestAttribute:
    def test_default_kind_is_int(self):
        assert Attribute("x").kind == "int"

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_rejects_unknown_kind(self):
        with pytest.raises(SchemaError):
            Attribute("x", "blob")

    def test_renamed_keeps_kind(self):
        renamed = Attribute("x", "str").renamed("y")
        assert renamed.name == "y"
        assert renamed.kind == "str"

    def test_is_hashable_and_comparable(self):
        assert Attribute("x") == Attribute("x")
        assert hash(Attribute("x")) == hash(Attribute("x"))
        assert Attribute("x") != Attribute("x", "str")


class TestSchema:
    def test_of_ints_builds_in_order(self):
        schema = Schema.of_ints("a", "b", "c")
        assert schema.names == ("a", "b", "c")
        assert all(attribute.kind == "int" for attribute in schema)

    def test_len_and_getitem(self):
        schema = Schema.of_ints("a", "b")
        assert len(schema) == 2
        assert schema[1].name == "b"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of_ints("a", "a")

    def test_position_resolves(self):
        schema = Schema.of_ints("a", "b", "c")
        assert schema.position("c") == 2

    def test_position_unknown_raises_with_context(self):
        schema = Schema.of_ints("a")
        with pytest.raises(SchemaError, match="unknown attribute 'z'"):
            schema.position("z")

    def test_positions_batch(self):
        schema = Schema.of_ints("a", "b", "c")
        assert schema.positions(["c", "a"]) == (2, 0)

    def test_contains(self):
        schema = Schema.of_ints("a")
        assert "a" in schema
        assert "b" not in schema

    def test_project_keeps_requested_order(self):
        schema = Schema.of_ints("a", "b", "c")
        projected = schema.project(["c", "a"])
        assert projected.names == ("c", "a")

    def test_equality_and_hash(self):
        assert Schema.of_ints("a", "b") == Schema.of_ints("a", "b")
        assert hash(Schema.of_ints("a")) == hash(Schema.of_ints("a"))
        assert Schema.of_ints("a") != Schema.of_ints("b")


class TestSchemaConcat:
    def test_disjoint_names_concatenate(self):
        joined = Schema.of_ints("a", "b").concat(Schema.of_ints("c"))
        assert joined.names == ("a", "b", "c")

    def test_collisions_get_numeric_suffix(self):
        joined = Schema.of_ints("a", "b").concat(Schema.of_ints("a", "b"))
        assert joined.names == ("a", "b", "a_2", "b_2")

    def test_repeated_collisions_count_up(self):
        joined = (Schema.of_ints("a")
                  .concat(Schema.of_ints("a"))
                  .concat(Schema.of_ints("a")))
        assert joined.names == ("a", "a_2", "a_3")

    def test_suffix_avoids_existing_suffixed_name(self):
        left = Schema.of_ints("a", "a_2")
        joined = left.concat(Schema.of_ints("a"))
        assert joined.names == ("a", "a_2", "a_3")

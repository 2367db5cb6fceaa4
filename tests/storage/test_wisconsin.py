"""Wisconsin benchmark generator invariants [Bitton83]."""

import pytest

from repro.errors import SchemaError
from repro.storage.wisconsin import (
    WISCONSIN_INT_ATTRIBUTES,
    generate_wisconsin,
    wisconsin_schema,
)


def _column(relation, name: str) -> list:
    """One attribute column of *relation*, in row order."""
    position = relation.schema.position(name)
    return [row[position] for row in relation.rows]


class TestSchema:
    def test_int_schema_attributes(self):
        schema = wisconsin_schema()
        assert schema.names == WISCONSIN_INT_ATTRIBUTES

    def test_string_schema_adds_three(self):
        schema = wisconsin_schema(with_strings=True)
        assert len(schema) == len(WISCONSIN_INT_ATTRIBUTES) + 3
        assert schema[len(schema) - 1].kind == "str"


class TestGenerator:
    def test_cardinality(self, wisconsin_1k):
        assert wisconsin_1k.cardinality == 1000

    def test_unique1_is_permutation(self, wisconsin_1k):
        assert sorted(_column(wisconsin_1k, "unique1")) == list(range(1000))

    def test_unique2_is_sequential(self, wisconsin_1k):
        assert _column(wisconsin_1k, "unique2") == list(range(1000))

    def test_modulo_attributes(self, wisconsin_1k):
        schema = wisconsin_1k.schema
        u1 = schema.position("unique1")
        for name, base in (("two", 2), ("four", 4), ("ten", 10), ("twenty", 20)):
            position = schema.position(name)
            assert all(row[position] == row[u1] % base
                       for row in wisconsin_1k.rows)

    def test_percentage_attribute_selectivities(self, wisconsin_1k):
        # onePercent = unique1 % 100: each value selects exactly 1% of
        # the tuples; tenPercent = unique1 % 10 selects 10%.
        assert _column(wisconsin_1k, "onePercent").count(0) == 10
        assert _column(wisconsin_1k, "tenPercent").count(3) == 100

    def test_unique3_equals_unique1(self, wisconsin_1k):
        assert (_column(wisconsin_1k, "unique3")
                == _column(wisconsin_1k, "unique1"))

    def test_deterministic_for_seed(self):
        a = generate_wisconsin("X", 100, seed=5)
        b = generate_wisconsin("X", 100, seed=5)
        assert a.rows == b.rows

    def test_different_seeds_differ(self):
        a = generate_wisconsin("X", 100, seed=5)
        b = generate_wisconsin("X", 100, seed=6)
        assert a.rows != b.rows

    def test_string_attributes_generated(self):
        relation = generate_wisconsin("S", 50, with_strings=True)
        row = relation.rows[0]
        stringu1 = row[relation.schema.position("stringu1")]
        assert len(stringu1) == 52
        string4 = _column(relation, "string4")
        assert set(string4) <= {"AAAA", "HHHH", "OOOO", "VVVV"}

    def test_string_record_size_is_paper_like(self):
        """~208-byte records, as the Allcache calibration assumes."""
        from repro.storage.tuples import row_size_bytes
        relation = generate_wisconsin("S", 10, with_strings=True)
        size = row_size_bytes(relation.rows[0])
        assert 200 <= size <= 230

    def test_empty_relation(self):
        assert generate_wisconsin("E", 0).cardinality == 0

    def test_rejects_negative_cardinality(self):
        with pytest.raises(SchemaError):
            generate_wisconsin("E", -1)

    def test_tiny_relation_generates(self):
        relation = generate_wisconsin("T", 3)
        assert relation.cardinality == 3

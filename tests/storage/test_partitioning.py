"""Hash partitioning: specs and fragment assignment."""

import pytest

from repro.errors import PartitioningError
from repro.storage.fragment import Fragment
from repro.storage.partitioning import HashPartitioner, PartitioningSpec
from repro.storage.schema import Schema
from repro.storage.tuples import stable_hash


class TestPartitioningSpec:
    def test_on_builds_single_key_spec(self):
        spec = PartitioningSpec.on("key", 8)
        assert spec.keys == ("key",)
        assert spec.degree == 8

    def test_rejects_zero_degree(self):
        with pytest.raises(PartitioningError):
            PartitioningSpec.on("key", 0)

    def test_rejects_no_keys(self):
        with pytest.raises(PartitioningError):
            PartitioningSpec((), 4)

    def test_compatibility_same_degree(self):
        a = PartitioningSpec.on("x", 8)
        b = PartitioningSpec.on("y", 8)
        assert a.compatible_with(b)

    def test_incompatibility_different_degree(self):
        assert not PartitioningSpec.on("x", 8).compatible_with(
            PartitioningSpec.on("x", 16))


class TestHashPartitioner:
    def _partition(self, relation, key, degree):
        return HashPartitioner(PartitioningSpec.on(key, degree)).partition(relation)

    def test_fragments_cover_relation(self, small_relation):
        fragments = self._partition(small_relation, "key", 7)
        total = sum(f.cardinality for f in fragments)
        assert total == small_relation.cardinality

    def test_fragments_are_disjoint_and_complete(self, small_relation):
        fragments = self._partition(small_relation, "key", 7)
        rebuilt = sorted(row for f in fragments for row in f.rows)
        assert rebuilt == sorted(small_relation.rows)

    def test_rows_land_in_hash_bucket(self, small_relation):
        fragments = self._partition(small_relation, "key", 7)
        for fragment in fragments:
            for row in fragment.rows:
                assert stable_hash(row[0]) % 7 == fragment.index

    def test_degree_one_is_single_fragment(self, small_relation):
        fragments = self._partition(small_relation, "key", 1)
        assert len(fragments) == 1
        assert fragments[0].cardinality == 100

    def test_integer_keys_partition_by_modulo(self, small_relation):
        fragments = self._partition(small_relation, "key", 10)
        # keys 0..99, degree 10: exactly 10 rows per fragment
        assert [f.cardinality for f in fragments] == [10] * 10

    def test_multi_key_partitioning(self):
        schema = Schema.of_ints("a", "b")
        from repro.storage.relation import Relation
        relation = Relation("M", schema, [(i, i % 3) for i in range(60)])
        spec = PartitioningSpec(("a", "b"), 5)
        fragments = HashPartitioner(spec).partition(relation)
        assert sum(f.cardinality for f in fragments) == 60
        for fragment in fragments:
            for row in fragment.rows:
                assert stable_hash((row[0], row[1])) % 5 == fragment.index


class TestFragment:
    def test_append_and_len(self):
        fragment = Fragment("R", 0, Schema.of_ints("k"))
        fragment.extend([(1,)])
        assert len(fragment) == 1
        assert fragment.cardinality == 1

    def test_size_bytes(self):
        fragment = Fragment("R", 0, Schema.of_ints("k", "v"), [(1, 2)])
        assert fragment.size_bytes() == 16

    def test_repr_mentions_relation_and_index(self):
        fragment = Fragment("R", 3, Schema.of_ints("k"))
        assert "R" in repr(fragment)
        assert "3" in repr(fragment)

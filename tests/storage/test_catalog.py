"""Catalog registration, lookup, co-partitioning, disks."""

import pytest

from repro.errors import CatalogError, PartitioningError
from repro.storage.catalog import Catalog
from repro.storage.disks import DiskArray
from repro.storage.fragment import Fragment
from repro.storage.partitioning import PartitioningSpec
from repro.storage.relation import Relation


class TestRegistration:
    def test_register_partitions_and_records(self, catalog, small_relation):
        entry = catalog.register(small_relation, PartitioningSpec.on("key", 5))
        assert entry.degree == 5
        assert entry.cardinality == 100
        assert sum(f.cardinality for f in entry.fragments) == 100

    def test_duplicate_name_rejected(self, catalog, small_relation):
        catalog.register(small_relation, PartitioningSpec.on("key", 5))
        with pytest.raises(CatalogError):
            catalog.register(small_relation, PartitioningSpec.on("key", 5))

    def test_unknown_partition_key_rejected(self, catalog, small_relation):
        with pytest.raises(CatalogError):
            catalog.register(small_relation, PartitioningSpec.on("nope", 5))

    def test_fragments_placed_round_robin(self, catalog, small_relation):
        entry = catalog.register(small_relation, PartitioningSpec.on("key", 8))
        disks = len(catalog.disks)
        for fragment in entry.fragments:
            assert fragment.disk == fragment.index % disks

    def test_register_fragments_checks_count(self, catalog, small_relation):
        fragments = [Fragment("R", 0, small_relation.schema, small_relation.rows)]
        with pytest.raises(CatalogError):
            catalog.register_fragments(small_relation,
                                       PartitioningSpec.on("key", 2), fragments)

    def test_register_fragments_checks_total(self, catalog, small_relation):
        fragments = [Fragment("R", 0, small_relation.schema, []),
                     Fragment("R", 1, small_relation.schema, [])]
        with pytest.raises(CatalogError):
            catalog.register_fragments(small_relation,
                                       PartitioningSpec.on("key", 2), fragments)

    def test_drop(self, catalog, small_relation):
        catalog.register(small_relation, PartitioningSpec.on("key", 2))
        catalog.drop("R")
        assert "R" not in catalog

    def test_drop_unknown_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.drop("ghost")

    def test_drop_takes_the_fragments_off_the_disks(self, catalog,
                                                    small_relation):
        """Create/drop cycles used to leak: the disks kept counting
        every dropped table's fragments and bytes."""
        catalog.register(Relation("keep", small_relation.schema,
                                  small_relation.rows),
                         PartitioningSpec.on("key", 4))
        kept = [(d.fragment_count, d.load_bytes) for d in catalog.disks.disks]
        for _ in range(3):
            catalog.register(small_relation, PartitioningSpec.on("key", 6))
            catalog.drop("R")
        assert [(d.fragment_count, d.load_bytes)
                for d in catalog.disks.disks] == kept
        catalog.drop("keep")
        assert all(d.fragment_count == 0 and d.load_bytes == 0
                   for d in catalog.disks.disks)
        assert catalog.disks.balance_ratio() == 1.0

    def test_version_moves_on_everything_a_plan_depends_on(self, catalog,
                                                           small_relation):
        seen = [catalog.version]

        def moved():
            seen.append(catalog.version)
            return seen[-1] > seen[-2]

        entry = catalog.register(small_relation, PartitioningSpec.on("key", 2))
        assert moved()
        entry.create_index("payload")          # not through the catalog
        assert moved()
        catalog.drop("R")
        assert moved()
        fragments = [Fragment("R", i, small_relation.schema)
                     for i in range(2)]
        for row in small_relation.rows:
            fragments[row[0] % 2].append(row)
        catalog.register_fragments(small_relation,
                                   PartitioningSpec.on("key", 2), fragments)
        assert moved()
        before = catalog.version
        catalog.entry("R"), "R" in catalog, len(catalog)
        assert catalog.version == before


class TestLookup:
    def test_entry_unknown_raises(self, catalog):
        with pytest.raises(CatalogError, match="unknown relation"):
            catalog.entry("ghost")

    def test_len_iter_contains(self, catalog, small_relation):
        catalog.register(small_relation, PartitioningSpec.on("key", 2))
        assert len(catalog) == 1
        assert "R" in catalog
        assert [e.name for e in catalog] == ["R"]

    def test_copartitioned_same_degree(self, catalog, small_relation,
                                        small_schema):
        from repro.storage.relation import Relation
        other = Relation("S", small_schema, [(i, i) for i in range(40)])
        catalog.register(small_relation, PartitioningSpec.on("key", 4))
        catalog.register(other, PartitioningSpec.on("key", 4))
        assert catalog.copartitioned("R", "S")

    def test_not_copartitioned_different_degree(self, catalog, small_relation,
                                                small_schema):
        from repro.storage.relation import Relation
        other = Relation("S", small_schema, [(i, i) for i in range(40)])
        catalog.register(small_relation, PartitioningSpec.on("key", 4))
        catalog.register(other, PartitioningSpec.on("key", 8))
        assert not catalog.copartitioned("R", "S")


class TestDiskArray:
    def test_rejects_zero_disks(self):
        with pytest.raises(PartitioningError):
            DiskArray(0)

    def test_round_robin_balance(self, small_relation):
        from repro.storage.partitioning import HashPartitioner
        fragments = HashPartitioner(PartitioningSpec.on("key", 12)).partition(
            small_relation)
        array = DiskArray(4)
        array.place_round_robin(fragments)
        assert [d.fragment_count for d in array.disks] == [3, 3, 3, 3]
        assert array.balance_ratio() == 1.0

    def test_degree_can_exceed_disks(self, small_relation):
        """The paper: the degree of partitioning is independent of the
        number of disks."""
        from repro.storage.partitioning import HashPartitioner
        fragments = HashPartitioner(PartitioningSpec.on("key", 50)).partition(
            small_relation)
        array = DiskArray(2)
        array.place_round_robin(fragments)
        assert sum(d.fragment_count for d in array.disks) == 50

    def test_empty_balance_ratio(self):
        assert DiskArray(3).balance_ratio() == 1.0

    def test_load_bytes(self, small_relation):
        from repro.storage.partitioning import HashPartitioner
        fragments = HashPartitioner(PartitioningSpec.on("key", 4)).partition(
            small_relation)
        array = DiskArray(2)
        array.place_round_robin(fragments)
        total = sum(d.load_bytes for d in array.disks)
        assert total == small_relation.size_bytes()

"""Catalog registration, lookup, co-partitioning."""

import pytest

from repro.errors import CatalogError
from repro.storage.catalog import Catalog
from repro.storage.fragment import Fragment
from repro.storage.partitioning import PartitioningSpec


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
        fragments = [Fragment("R", i, small_relation.schema,
                              [row for row in small_relation.rows
                               if row[0] % 2 == i])
                     for i in range(2)]
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

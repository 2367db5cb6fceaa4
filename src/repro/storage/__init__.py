"""Storage substrate: relations, fragments, partitioning, catalog.

This package implements Lera-par's statically partitioned storage
model: relations are hash partitioned into memory-resident fragments
(the paper's runs are memory-resident, so disks are not modelled),
plus the Wisconsin benchmark generator and Zipf skew machinery used by
every experiment.
"""

from repro.storage.catalog import Catalog, TableEntry
from repro.storage.fragment import Fragment
from repro.storage.indexes import HashIndex, SortedIndex, build_index
from repro.storage.partitioning import HashPartitioner, PartitioningSpec
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, Schema
from repro.storage.skew import (
    skew_ratio,
    zipf_cardinalities,
    zipf_weights,
)
from repro.storage.statistics import FragmentStatistics
from repro.storage.tuples import Row, stable_hash
from repro.storage.wisconsin import generate_wisconsin, wisconsin_schema

__all__ = [
    "Attribute",
    "Catalog",
    "Fragment",
    "FragmentStatistics",
    "HashIndex",
    "HashPartitioner",
    "PartitioningSpec",
    "Relation",
    "Row",
    "Schema",
    "SortedIndex",
    "TableEntry",
    "build_index",
    "generate_wisconsin",
    "skew_ratio",
    "stable_hash",
    "wisconsin_schema",
    "zipf_cardinalities",
    "zipf_weights",
]

"""Static hash partitioning — the Lera-par storage model.

Relations are partitioned by hashing one or more attributes.  In the
paper fragments are then placed on disks round-robin, so the *degree
of partitioning* is independent of the number of disks (Section 2);
the runs are memory-resident, so placement is not modelled here.
Co-partitioning of two relations (same key domain, same degree) is
what lets the compiler emit an IdealJoin instead of an AssocJoin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitioningError
from repro.storage.fragment import Fragment
from repro.storage.relation import Relation
from repro.storage.tuples import Row, stable_hash


@dataclass(frozen=True)
class PartitioningSpec:
    """Describes how a relation is (or should be) partitioned.

    Always hash partitioning, matching the paper's storage model.

    Attributes:
        keys: Attribute names hashed to pick the fragment.
        degree: Number of fragments produced.
    """

    keys: tuple[str, ...]
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise PartitioningError(f"degree must be >= 1, got {self.degree}")
        if not self.keys:
            raise PartitioningError("at least one partitioning key is required")

    @classmethod
    def on(cls, key: str, degree: int) -> "PartitioningSpec":
        """Convenience constructor for single-key hash partitioning."""
        return cls((key,), degree)

    def compatible_with(self, other: "PartitioningSpec") -> bool:
        """True when two partitionings place equal keys in equal fragments.

        Compatibility requires the same degree; keys may have
        different *names* (each relation names its own join attribute)
        but must be single-key-for-single-key, since multi-key hashing
        mixes values.
        """
        return (self.degree == other.degree
                and len(self.keys) == len(other.keys))


class HashPartitioner:
    """Partitions relations according to a :class:`PartitioningSpec`."""

    def __init__(self, spec: PartitioningSpec) -> None:
        self.spec = spec

    def partition(self, relation: Relation) -> list[Fragment]:
        """Split *relation* into ``spec.degree`` fragments.

        Every row lands in exactly one fragment; fragment ``i``
        contains precisely the rows whose hashed key equals ``i``
        modulo the degree.
        """
        positions = relation.schema.positions(self.spec.keys)
        degree = self.spec.degree
        buckets: list[list[Row]] = [[] for _ in range(degree)]
        if len(positions) == 1:
            position = positions[0]
            for row in relation.rows:
                buckets[stable_hash(row[position]) % degree].append(row)
        else:
            for row in relation.rows:
                key = tuple(row[p] for p in positions)
                buckets[stable_hash(key) % degree].append(row)
        return [Fragment(relation.name, i, relation.schema, bucket)
                for i, bucket in enumerate(buckets)]

"""Static hash partitioning — the Lera-par storage model.

Relations are partitioned by hashing one or more attributes; fragments
are then distributed onto disks round-robin, so the *degree of
partitioning* is independent of the number of disks (Section 2 of the
paper).  Co-partitioning of two relations (same key domain, same
degree, same method) is what lets the compiler emit an IdealJoin
instead of an AssocJoin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import PartitioningError
from repro.storage.fragment import Fragment
from repro.storage.relation import Relation
from repro.storage.tuples import Row, stable_hash


@dataclass(frozen=True)
class PartitioningSpec:
    """Describes how a relation is (or should be) partitioned.

    Attributes:
        keys: Attribute names hashed to pick the fragment.
        degree: Number of fragments produced.
        method: Partitioning method; only ``"hash"`` is implemented,
            matching the paper's storage model.
    """

    keys: tuple[str, ...]
    degree: int
    method: str = "hash"

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise PartitioningError(f"degree must be >= 1, got {self.degree}")
        if not self.keys:
            raise PartitioningError("at least one partitioning key is required")
        if self.method != "hash":
            raise PartitioningError(f"unsupported partitioning method {self.method!r}")

    @classmethod
    def on(cls, key: str, degree: int) -> "PartitioningSpec":
        """Convenience constructor for single-key hash partitioning."""
        return cls((key,), degree)

    def compatible_with(self, other: "PartitioningSpec") -> bool:
        """True when two partitionings place equal keys in equal fragments.

        Compatibility requires the same method and degree; keys may
        have different *names* (each relation names its own join
        attribute) but must be single-key-for-single-key, since
        multi-key hashing mixes values.
        """
        return (self.method == other.method
                and self.degree == other.degree
                and len(self.keys) == len(other.keys))


def fragment_of(key_values: Sequence[object], degree: int) -> int:
    """Map a key-value vector to its fragment number."""
    if len(key_values) == 1:
        return stable_hash(key_values[0]) % degree
    return stable_hash(tuple(key_values)) % degree


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


def repartition_row(row: Row, position: int, degree: int) -> int:
    """Dynamic repartitioning of one tuple (the Transmit operator).

    Uses the same hash as static partitioning so that a repartitioned
    stream lines up with a statically partitioned build side.
    """
    return stable_hash(row[position]) % degree

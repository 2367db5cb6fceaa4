"""The catalog: partitioned relations known to the system.

Registering a relation partitions it according to its
:class:`~repro.storage.partitioning.PartitioningSpec`, places the
fragments round-robin on the disk array, and records fragment
statistics for the scheduler.  The catalog also answers the
co-partitioning question that decides IdealJoin vs AssocJoin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import CatalogError
from repro.storage.disks import DiskArray
from repro.storage.fragment import Fragment
from repro.storage.partitioning import HashPartitioner, PartitioningSpec
from repro.storage.relation import Relation
from repro.storage.statistics import FragmentStatistics


@dataclass
class TableEntry:
    """Everything the system knows about one stored relation."""

    relation: Relation
    spec: PartitioningSpec
    fragments: list[Fragment]
    statistics: FragmentStatistics
    indexes: dict[str, list] = field(default_factory=dict)
    """Permanent per-fragment indexes, keyed by attribute name."""
    catalog: "Catalog | None" = field(default=None, repr=False, compare=False)
    """The registering catalog, whose version an index build moves."""

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def degree(self) -> int:
        """Degree of partitioning of the stored relation."""
        return self.spec.degree

    @property
    def cardinality(self) -> int:
        return self.relation.cardinality

    def create_index(self, attribute: str, kind: str = "hash") -> None:
        """Build a permanent index on *attribute* over every fragment.

        Equality selections on an indexed attribute compile to index
        probes instead of fragment scans.  Re-creating an existing
        index replaces it.  The indexes are the fragments' own
        (:meth:`Fragment.index_on`): a join's temporary index on the
        same attribute is the same object.
        """
        position = self.relation.schema.position(attribute)
        self.indexes[attribute] = [fragment.index_on(position, kind)
                                   for fragment in self.fragments]
        if self.catalog is not None:
            self.catalog.version += 1

    def index_on(self, attribute: str) -> list | None:
        """Per-fragment indexes for *attribute*, or None."""
        return self.indexes.get(attribute)


class Catalog:
    """Name -> :class:`TableEntry` registry with a shared disk array."""

    def __init__(self, disk_count: int = 1) -> None:
        self._entries: dict[str, TableEntry] = {}
        self.disks = DiskArray(disk_count)
        #: Moves with what statements compile and schedule to: on register,
        #: register_fragments, drop and every index build.
        self.version = 0

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[TableEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- registration -----------------------------------------------------

    def register(self, relation: Relation, spec: PartitioningSpec) -> TableEntry:
        """Partition *relation* per *spec*, place it on disks, record it.

        Raises :class:`CatalogError` if the name is already taken or
        the partitioning key is not in the relation's schema.
        """
        if relation.name in self._entries:
            raise CatalogError(f"relation {relation.name!r} already registered")
        for key in spec.keys:
            if key not in relation.schema:
                raise CatalogError(
                    f"partitioning key {key!r} not in schema of {relation.name!r}")
        return self._place(relation, spec,
                           HashPartitioner(spec).partition(relation))

    def register_fragments(self, relation: Relation, spec: PartitioningSpec,
                           fragments: list[Fragment]) -> TableEntry:
        """Register pre-built fragments (e.g. skew-controlled databases).

        The caller guarantees the fragments actually honour *spec*;
        only structural checks (count, total cardinality) are applied.
        """
        if relation.name in self._entries:
            raise CatalogError(f"relation {relation.name!r} already registered")
        if len(fragments) != spec.degree:
            raise CatalogError(
                f"{len(fragments)} fragments supplied for degree {spec.degree}")
        total = sum(f.cardinality for f in fragments)
        if total != relation.cardinality:
            raise CatalogError(
                f"fragments hold {total} rows, relation has {relation.cardinality}")
        return self._place(relation, spec, fragments)

    def _place(self, relation: Relation, spec: PartitioningSpec,
               fragments: list[Fragment]) -> TableEntry:
        self.disks.place_round_robin(fragments)
        entry = TableEntry(relation, spec, fragments,
                           FragmentStatistics.of(fragments), catalog=self)
        self._entries[relation.name] = entry
        self.version += 1
        return entry

    def drop(self, name: str) -> None:
        """Remove a relation from the catalog and its fragments from the disks."""
        self.disks.remove(self.entry(name).fragments)
        del self._entries[name]
        self.version += 1

    # -- lookup -------------------------------------------------------------

    def entry(self, name: str) -> TableEntry:
        """Look up a relation; raises :class:`CatalogError` if absent."""
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(f"unknown relation {name!r}") from None

    def copartitioned(self, left: str, right: str) -> bool:
        """True when the two relations can be IdealJoin-ed.

        Both must be hash partitioned with compatible specs (same
        method and degree); the join itself must also be on the
        partitioning keys, which the compiler checks separately.
        """
        return self.entry(left).spec.compatible_with(self.entry(right).spec)

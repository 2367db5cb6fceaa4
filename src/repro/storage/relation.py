"""Relations: named, schema-typed collections of rows."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.storage.schema import Schema
from repro.storage.tuples import Row, row_size_bytes


class Relation:
    """A named, memory-resident relation.

    Rows are stored as a tuple of tuples matching ``schema``: stored
    data is immutable (see DESIGN.md).  The class
    is deliberately simple — partitioning into :class:`~repro.storage
    .fragment.Fragment` objects is what the engine actually operates
    on; a ``Relation`` is the logical, un-fragmented view.
    """

    __slots__ = ("name", "schema", "rows")

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        self.name = name
        self.schema = schema
        self.rows: tuple[Row, ...] = tuple(rows)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, |rows|={len(self.rows)})"

    # -- accessors ------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of rows."""
        return len(self.rows)

    def size_bytes(self) -> int:
        """Approximate total footprint of the relation, in bytes."""
        return sum(row_size_bytes(row) for row in self.rows)

    # -- row-level operations (reference implementations) ----------------------

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Sequential reference selection, used by tests as ground truth."""
        return Relation(f"{self.name}_sel", self.schema,
                        (row for row in self.rows if predicate(row)))

    def project(self, names: Sequence[str]) -> "Relation":
        """Sequential reference projection (duplicate-preserving)."""
        positions = self.schema.positions(names)
        return Relation(f"{self.name}_proj", self.schema.project(names),
                        (tuple(row[p] for p in positions) for row in self.rows))

    def join(self, other: "Relation", left_key: str,
             right_key: str) -> "Relation":
        """Sequential reference equi-join, used by tests as ground truth.

        Builds a hash table on *other* and probes with *self*; output
        schema is the concatenation of both input schemas (caller must
        ensure names do not collide, e.g. via distinct relation
        attribute names).
        """
        left_pos = self.schema.position(left_key)
        right_pos = other.schema.position(right_key)
        table: dict[object, list[Row]] = {}
        for row in other.rows:
            table.setdefault(row[right_pos], []).append(row)
        out_schema = self.schema.concat(other.schema)
        matches = (left + right
                   for left in self.rows
                   for right in table.get(left[left_pos], ()))
        return Relation(f"{self.name}_{other.name}", out_schema, matches)

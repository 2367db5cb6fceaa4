"""Fragments: the unit of static partitioning.

A fragment is one horizontal slice of a partitioned relation.  In
Lera-par each operator whose input is a partitioned relation gets one
*instance per fragment*, so fragments are also the unit of
intra-operator parallelism and — for triggered operators — the unit of
sequential work.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.storage.indexes import HashIndex, SortedIndex, build_index
from repro.storage.schema import Schema
from repro.storage.tuples import Row, row_size_bytes


class Fragment:
    """One fragment of a partitioned relation.

    Attributes:
        relation_name: Name of the relation this fragment belongs to.
        index: Fragment number within the partitioning (0-based).
        schema: Schema shared with the parent relation.
        rows: The fragment's rows, a tuple: stored data is immutable
            (see DESIGN.md), so a row container handed to an operator
            cannot be changed under another execution.
        disk: Identifier of the (simulated) disk holding the fragment,
            assigned round-robin by the placement policy; ``None`` for
            transient fragments produced at run time.
    """

    __slots__ = ("relation_name", "index", "schema", "rows", "disk",
                 "_size_cache", "_indexes")

    def __init__(self, relation_name: str, index: int, schema: Schema,
                 rows: Iterable[Row] = (), disk: int | None = None) -> None:
        self.relation_name = relation_name
        self.index = index
        self.schema = schema
        self.rows: tuple[Row, ...] = tuple(rows)
        self.disk = disk
        self._size_cache: int | None = None
        self._indexes: dict[tuple[int, str], HashIndex | SortedIndex] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return (f"Fragment({self.relation_name!r}[{self.index}], "
                f"|rows|={len(self.rows)}, disk={self.disk})")

    @property
    def cardinality(self) -> int:
        """Number of rows in the fragment."""
        return len(self.rows)

    def size_bytes(self) -> int:
        """Approximate footprint of the fragment, in bytes.

        Memoized — the engine's cost accounting asks for footprints on
        hot paths; :meth:`extend` and :meth:`clear` invalidate the
        cache.
        """
        size = self._size_cache
        if size is None:
            size = sum(row_size_bytes(row) for row in self.rows)
            self._size_cache = size
        return size

    def index_on(self, position: int,
                 kind: str = "hash") -> HashIndex | SortedIndex:
        """The fragment's index of *kind* on attribute *position*.

        Built once and kept until :meth:`extend` or :meth:`clear`: every
        execution over this fragment, concurrent ones included, probes
        the same (immutable) structure.  What an execution is *charged*
        for a build is the cost model's business.
        """
        index = self._indexes.get((position, kind))
        if index is None:
            index = build_index(self.rows, position, kind)
            self._indexes[position, kind] = index
        return index

    def extend(self, rows: Iterable[Row]) -> None:
        """Publish *rows* after the current ones, as one new tuple.

        The way a run-time target grows: ``StoreFunc`` buffers an
        instance's rows and publishes them here once.  The size and
        the indexes that described the old rows are dropped.
        """
        self.rows += tuple(rows)
        self._size_cache = None
        if self._indexes:
            self._indexes = {}

    def append(self, row: Row) -> None:
        """Add one row: a copy of the tuple per call, so for small
        hand-built fragments only (a loop of these is quadratic)."""
        self.extend((row,))

    def clear(self) -> None:
        """Drop every row, and the size and indexes that described them."""
        self.rows = ()
        self._size_cache = None
        self._indexes = {}

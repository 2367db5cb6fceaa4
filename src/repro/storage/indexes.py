"""Fragment-local indexes.

Two index kinds back the paper's join algorithms:

* :class:`HashIndex` — the classic equi-join build structure.
* :class:`SortedIndex` — the "temporary index built on the fly" used in
  Experiment 3 (Figure 17): a sorted array with binary-search lookup,
  whose ``n log n`` build cost is what makes high partitioning degrees
  profitable (smaller fragments build super-linearly cheaper).

Indexes store rows directly (fragments are memory-resident), and both
expose ``lookup(key) -> tuple[Row, ...]`` plus build statistics used by
the cost model.  Like the rows they index they are immutable: every
match list is a tuple, so the collector untracks a built index (see
DESIGN.md).

One build path: :func:`build_index` is the only place rows are hashed
or sorted by key.  An index over a *whole* stored fragment is asked of
the fragment (``Fragment.index_on``), which builds it here once and
keeps it while its rows stand, for permanent and temporary use alike;
only an index over a *slice* (a chunked join activation) is built by
its user.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Sequence

from repro.storage.tuples import Row


class HashIndex:
    """Hash index on one attribute position of a set of rows.

    ``get`` is the table's own bound ``dict.get``: a probe loop calls
    ``get(key, ())`` once per row with no Python frame in between.
    ``table`` is a read-only view of the table, for loops that test
    ``key in table`` and subscript it without a call per row.
    """

    __slots__ = ("key_position", "table", "build_rows", "get",
                 "__weakref__")

    def __init__(self, rows: Iterable[Row], key_position: int) -> None:
        self.key_position = key_position
        table: dict[object, list[Row] | tuple[Row, ...]] = {}
        count = 0
        for row in rows:
            table.setdefault(row[key_position], []).append(row)
            count += 1
        for key, matches in table.items():
            table[key] = tuple(matches)
        self.table = MappingProxyType(table)
        self.build_rows = count
        self.get = table.get

    def __len__(self) -> int:
        return self.build_rows

    def lookup(self, key: object) -> tuple[Row, ...]:
        """All rows whose key attribute equals *key* (possibly empty)."""
        return self.get(key, ())

    def distinct_keys(self) -> int:
        """Number of distinct key values indexed."""
        return len(self.table)

    @staticmethod
    def build_cost_units(cardinality: int) -> float:
        """Abstract cost units to build the index: linear in rows."""
        return float(cardinality)


class SortedIndex:
    """Sorted-array index with binary search — the paper's temp index.

    Build sorts the rows on the key (``O(n log n)``); lookups use
    ``bisect`` (``O(log n)`` plus the match count).
    """

    __slots__ = ("key_position", "_keys", "_rows", "build_rows",
                 "__weakref__")

    def __init__(self, rows: Iterable[Row], key_position: int) -> None:
        self.key_position = key_position
        key_of = itemgetter(key_position)
        # A stable sort on the key alone: equal keys keep row order.
        self._rows = tuple(sorted(rows, key=key_of))
        self._keys = tuple(map(key_of, self._rows))
        self.build_rows = len(self._rows)

    def __len__(self) -> int:
        return self.build_rows

    def lookup(self, key: object) -> tuple[Row, ...]:
        """All rows whose key attribute equals *key* (possibly empty)."""
        lo = bisect_left(self._keys, key)
        hi = bisect_right(self._keys, key)
        return self._rows[lo:hi]

    def range_lookup(self, low: object, high: object) -> tuple[Row, ...]:
        """Rows with ``low <= key <= high`` (inclusive range scan)."""
        lo = bisect_left(self._keys, low)
        hi = bisect_right(self._keys, high)
        return self._rows[lo:hi]

    @staticmethod
    def build_cost_units(cardinality: int) -> float:
        """Abstract cost units to build: ``n * log2(n)`` comparisons."""
        if cardinality <= 1:
            return float(cardinality)
        return cardinality * math.log2(cardinality)


def build_index(rows: Sequence[Row], key_position: int, kind: str = "hash"):
    """Factory: build a ``hash`` or ``sorted`` index over *rows*."""
    if kind == "hash":
        return HashIndex(rows, key_position)
    if kind == "sorted":
        return SortedIndex(rows, key_position)
    raise ValueError(f"unknown index kind {kind!r}")

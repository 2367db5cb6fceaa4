"""Fragment-local indexes.

Three structures back the paper's join algorithms:

* :class:`HashIndex` — the classic equi-join build structure.
* :class:`SortedIndex` — the "temporary index built on the fly" used in
  Experiment 3 (Figure 17): a sorted array with binary-search lookup,
  whose ``n log n`` build cost is what makes high partitioning degrees
  profitable (smaller fragments build super-linearly cheaper).
* :data:`JoinIndex` — which rows of an outer fragment match an inner
  one's ``HashIndex`` (Valduriez, "Join Indices", TODS 1987).

Indexes store rows directly (fragments are memory-resident), and both
expose ``lookup(key) -> tuple[Row, ...]``; what a build costs is the
machine model's business (``CostModel.index_build_cost``).  Like the
rows they index they are immutable: every match list is a tuple, so
the collector untracks a built index (see DESIGN.md).

One build path: :func:`build_index` is the only place rows are hashed
or sorted by key.  An index over a *whole* stored fragment is asked of
the fragment (``Fragment.index_on``), which builds it here once and
keeps it while its rows stand, for permanent and temporary use alike;
only an index over a *slice* (a chunked join activation) is built by
its user.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import add, itemgetter
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


#: ``(inner_rows, positions, inners)``: the inner rows it was built from
#: and, per matching pair in nested-loop order, the outer row's position
#: and the inner row.  Exact tuples, so the collector untracks it.
JoinIndex = tuple[tuple[Row, ...], tuple[int, ...], tuple[Row, ...]]


def build_join_index(outer_rows: Sequence[Row], outer_position: int,
                     inner_rows: tuple[Row, ...],
                     inner: HashIndex) -> JoinIndex:
    """Probe *inner* (over *inner_rows*) with every outer row's key."""
    table = inner.table
    # Flat: each pair's outer position, then its inner row.
    flat = [item for position, row in enumerate(outer_rows)
            if row[outer_position] in table
            for inner_row in table[row[outer_position]]
            for item in (position, inner_row)]
    return inner_rows, tuple(flat[0::2]), tuple(flat[1::2])


def join_rows(index: JoinIndex, outer_rows: tuple[Row, ...], low: int,
              high: int) -> list[Row]:
    """Fresh joined rows (outer + inner) of outer positions [low, high)."""
    _, positions, inners = index
    first, last = bisect_left(positions, low), bisect_left(positions, high)
    return list(map(add, map(outer_rows.__getitem__, positions[first:last]),
                    inners[first:last]))


def build_index(rows: Sequence[Row], key_position: int, kind: str = "hash"):
    """Factory: build a ``hash`` or ``sorted`` index over *rows*."""
    if kind == "hash":
        return HashIndex(rows, key_position)
    if kind == "sorted":
        return SortedIndex(rows, key_position)
    raise ValueError(f"unknown index kind {kind!r}")

"""Row-level helpers.

Rows are plain Python tuples for compactness; every helper here is a
thin, allocation-conscious function over them.  A stable, process-
independent hash is provided so that hash partitioning is reproducible
across runs regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Row = tuple
"""Type alias: a relation row is a plain tuple."""

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def stable_hash(value: object) -> int:
    """Deterministic 64-bit hash, stable across processes and runs.

    Integers hash to themselves (like CPython) so that modulo
    partitioning on integer keys is transparent and easy to reason
    about in tests; strings and floats go through FNV-1a over their
    UTF-8/repr bytes.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & _MASK64
    if isinstance(value, str):
        data = value.encode("utf-8")
    elif isinstance(value, float):
        data = repr(value).encode("ascii")
    elif isinstance(value, tuple):
        combined = _FNV_OFFSET
        for item in value:
            combined = ((combined ^ stable_hash(item)) * _FNV_PRIME) & _MASK64
        return combined
    else:
        data = repr(value).encode("utf-8", errors="replace")
    digest = _FNV_OFFSET
    for byte in data:
        digest = ((digest ^ byte) * _FNV_PRIME) & _MASK64
    return digest


def hash_partitions(values: Iterable[object], degree: int) -> list[int]:
    """``[stable_hash(v) % degree for v in values]`` in one frame: the
    integer case is written out, as a pipeline routes every emitted
    row through here."""
    partitions = []
    append = partitions.append
    for value in values:
        if type(value) is int:
            append((value & _MASK64) % degree)
        else:
            append(stable_hash(value) % degree)
    return partitions


def project_row(row: Row, positions: Sequence[int]) -> Row:
    """Return the sub-tuple of *row* at *positions*, in order."""
    return tuple(row[p] for p in positions)


def concat_rows(left: Row, right: Row) -> Row:
    """Concatenate two rows, as a join does."""
    return left + right


def row_size_bytes(row: Row, default_int: int = 8, default_str_overhead: int = 1) -> int:
    """Approximate the storage footprint of a row, in bytes.

    Used by the machine model to account cache-residency; integers and
    floats count ``default_int`` bytes, strings their length plus a
    small overhead.  This mirrors the fixed-width record accounting of
    the Wisconsin benchmark rather than CPython object sizes.
    """
    size = 0
    for value in row:
        if isinstance(value, str):
            size += len(value) + default_str_overhead
        else:
            size += default_int
    return size

"""Allcache local-cache simulation.

The KSR1's Allcache memory system gives every processor a 32 MB
*local cache*; the union of all local caches is the virtual shared
memory.  Touching data resident in another processor's cache ships the
lines over (about 6x the local access time), after which they are
local — "data may move from one local cache to another; it is this
feature which gives the global shared-memory view" (Section 5.2).

We simulate this at *segment* granularity: a segment is a fragment (or
other contiguous chunk) identified by a key.  Each worker thread owns a
:class:`LocalCache`; a shared :class:`AllcacheDirectory` records which
cache currently holds each segment.  Touching a segment that lives
elsewhere charges the remote penalty for its lines and migrates it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.costs import CostModel

#: Directory location meaning "in main memory / an unspecified remote cache".
REMOTE_HOME = -1


@dataclass
class CacheStats:
    """Counters for one local cache."""

    local_hits: int = 0
    remote_misses: int = 0
    capacity_evictions: int = 0
    lines_shipped: int = 0


class LocalCache:
    """One processor's local cache, with LRU eviction at segment level."""

    def __init__(self, owner: int, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise MachineError("capacity_bytes must be >= 0")
        self.owner = owner
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._segments: "OrderedDict[object, int]" = OrderedDict()
        self.stats = CacheStats()

    def __contains__(self, key: object) -> bool:
        return key in self._segments

    def touch(self, key: object, size_bytes: int) -> list[object]:
        """Mark *key* resident and most-recently used.

        Returns the keys evicted to make room (LRU order).  A segment
        larger than the whole cache is admitted alone and evicted on
        the next touch — it can never be cache-resident together with
        anything else, matching the paper's remark that each bucket
        must be small relative to a local cache to benefit.
        """
        evicted: list[object] = []
        if key in self._segments:
            self._segments.move_to_end(key)
            return evicted
        self._segments[key] = size_bytes
        self.used_bytes += size_bytes
        while self.used_bytes > self.capacity_bytes and len(self._segments) > 1:
            old_key, old_size = self._segments.popitem(last=False)
            if old_key == key:
                # Shouldn't happen (len > 1 guards it) but keep LRU sane.
                self._segments[old_key] = old_size
                break
            self.used_bytes -= old_size
            self.stats.capacity_evictions += 1
            evicted.append(old_key)
        return evicted

    def drop(self, key: object) -> None:
        """Remove a segment (it migrated to another cache)."""
        size = self._segments.pop(key, None)
        if size is not None:
            self.used_bytes -= size

    def resize(self, capacity_bytes: int) -> list[object]:
        """Change the capacity, evicting LRU segments that no longer fit.

        Returns the evicted keys; like :meth:`touch`, a lone oversized
        segment is tolerated until something else arrives.
        """
        if capacity_bytes < 0:
            raise MachineError("capacity_bytes must be >= 0")
        self.capacity_bytes = capacity_bytes
        evicted: list[object] = []
        while self.used_bytes > self.capacity_bytes and len(self._segments) > 1:
            key, size = self._segments.popitem(last=False)
            self.used_bytes -= size
            self.stats.capacity_evictions += 1
            evicted.append(key)
        return evicted


@dataclass
class AllcacheDirectory:
    """Which local cache holds each segment, plus the machine-wide model.

    ``access`` is the single entry point used by the engine: it returns
    the extra virtual-time cost of one thread touching one segment and
    updates residency.
    """

    costs: CostModel
    capacity_bytes: int
    caches: dict[int, LocalCache] = field(default_factory=dict)
    home: dict[object, int] = field(default_factory=dict)
    segment_sizes: dict[object, int] = field(default_factory=dict)

    def cache_of(self, owner: int) -> LocalCache:
        """The local cache of processor/thread *owner* (created lazily)."""
        cache = self.caches.get(owner)
        if cache is None:
            cache = LocalCache(owner, self.capacity_bytes)
            self.caches[owner] = cache
        return cache

    def place(self, key: object, size_bytes: int, owner: int = REMOTE_HOME) -> None:
        """Declare a segment's initial location (load-time placement).

        ``owner = REMOTE_HOME`` means the segment starts outside every
        worker's local cache, so the first touch pays the remote
        penalty — the "remote execution" of Figure 8.
        """
        self.segment_sizes[key] = size_bytes
        self.home[key] = owner
        if owner != REMOTE_HOME:
            self.cache_of(owner).touch(key, size_bytes)

    def access(self, owner: int, key: object, size_bytes: int | None = None) -> float:
        """Charge one touch of *key* by *owner*; migrate if remote.

        Returns the **extra** virtual time beyond the baseline local
        access already folded into per-tuple costs: zero for a local
        hit, ``lines * (remote - local)`` for a remote miss.
        """
        size = self.segment_sizes.get(key, size_bytes)
        if size is None:
            raise MachineError(f"segment {key!r} accessed before being placed")
        self.segment_sizes[key] = size
        cache = self.cache_of(owner)
        if key in cache:
            cache.touch(key, size)
            cache.stats.local_hits += 1
            return 0.0
        # Remote miss: ship the lines, migrate residency.
        previous = self.home.get(key, REMOTE_HOME)
        if previous != REMOTE_HOME and previous != owner:
            self.cache_of(previous).drop(key)
        self.home[key] = owner
        evicted = cache.touch(key, size)
        for gone in evicted:
            # Evicted segments fall back to "remote" (main memory).
            if self.home.get(gone) == owner:
                self.home[gone] = REMOTE_HOME
        lines = self.costs.lines(size)
        cache.stats.remote_misses += 1
        cache.stats.lines_shipped += lines
        return lines * self.costs.remote_penalty_per_line()

    def shrink_to(self, capacity_bytes: int) -> None:
        """Shrink every local cache (existing and future) to a new budget.

        Mid-run memory pressure: evicted segments fall back to main
        memory, so the next touch pays the remote penalty again.
        """
        self.capacity_bytes = capacity_bytes
        for cache in self.caches.values():
            for gone in cache.resize(capacity_bytes):
                if self.home.get(gone) == cache.owner:
                    self.home[gone] = REMOTE_HOME

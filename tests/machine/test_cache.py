"""Allcache local caches and the migration directory."""

import pytest

from repro.errors import MachineError
from repro.machine.cache import REMOTE_HOME, AllcacheDirectory, LocalCache
from repro.machine.costs import DEFAULT_COSTS


class TestLocalCache:
    def test_touch_admits(self):
        cache = LocalCache(0, 1000)
        cache.touch("a", 100)
        assert "a" in cache
        assert cache.used_bytes == 100

    def test_touch_existing_is_idempotent(self):
        cache = LocalCache(0, 1000)
        cache.touch("a", 100)
        cache.touch("a", 100)
        assert cache.used_bytes == 100

    def test_lru_eviction(self):
        cache = LocalCache(0, 250)
        cache.touch("a", 100)
        cache.touch("b", 100)
        evicted = cache.touch("c", 100)   # over capacity: evict oldest
        assert evicted == ["a"]
        assert "a" not in cache
        assert "c" in cache

    def test_touch_refreshes_recency(self):
        cache = LocalCache(0, 250)
        cache.touch("a", 100)
        cache.touch("b", 100)
        cache.touch("a", 100)             # a becomes most recent
        evicted = cache.touch("c", 100)
        assert evicted == ["b"]

    def test_oversized_segment_admitted_alone(self):
        cache = LocalCache(0, 100)
        evicted = cache.touch("huge", 500)
        assert evicted == []
        assert "huge" in cache

    def test_drop(self):
        cache = LocalCache(0, 1000)
        cache.touch("a", 100)
        cache.drop("a")
        assert "a" not in cache
        assert cache.used_bytes == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(MachineError):
            LocalCache(0, -1)


class TestAllcacheDirectory:
    def _directory(self, capacity=10_000):
        return AllcacheDirectory(DEFAULT_COSTS, capacity)

    def test_local_hit_is_free(self):
        directory = self._directory()
        directory.place("seg", 256, owner=1)
        assert directory.access(1, "seg") == 0.0
        assert directory.cache_of(1).stats.local_hits == 1

    def test_remote_miss_charges_lines(self):
        directory = self._directory()
        directory.place("seg", 256, owner=1)
        penalty = directory.access(2, "seg")
        lines = DEFAULT_COSTS.lines(256)
        assert penalty == pytest.approx(
            lines * DEFAULT_COSTS.remote_penalty_per_line())

    def test_migration_makes_later_access_local(self):
        directory = self._directory()
        directory.place("seg", 256, owner=1)
        directory.access(2, "seg")            # migrates to 2
        assert directory.access(2, "seg") == 0.0
        # and owner 1 lost it
        assert directory.access(1, "seg") > 0.0

    def test_remote_home_first_touch_pays(self):
        directory = self._directory()
        directory.place("seg", 256, owner=REMOTE_HOME)
        assert directory.access(3, "seg") > 0.0
        assert directory.access(3, "seg") == 0.0

    def test_unplaced_access_with_size_works(self):
        directory = self._directory()
        assert directory.access(1, "new", size_bytes=128) > 0.0

    def test_unplaced_access_without_size_raises(self):
        directory = self._directory()
        with pytest.raises(MachineError):
            directory.access(1, "mystery")

    def test_eviction_falls_back_to_remote(self):
        directory = self._directory(capacity=300)
        directory.access(1, "a", 200)
        directory.access(1, "b", 200)     # evicts a from cache 1
        assert directory.home["a"] == REMOTE_HOME
        assert directory.access(1, "a", 200) > 0.0

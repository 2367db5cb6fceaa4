"""Fragment-local indexes: hash and temp sorted index."""

import pytest

from repro.storage.indexes import HashIndex, SortedIndex, build_index

ROWS = [(3, "c"), (1, "a"), (2, "b"), (1, "a2"), (5, "e")]


class TestHashIndex:
    def test_lookup_hit(self):
        index = HashIndex(ROWS, 0)
        assert index.lookup(2) == ((2, "b"),)

    def test_lookup_duplicates_preserve_order(self):
        index = HashIndex(ROWS, 0)
        assert index.lookup(1) == ((1, "a"), (1, "a2"))

    def test_lookup_miss_is_empty(self):
        index = HashIndex(ROWS, 0)
        assert list(index.lookup(99)) == []
        # One shared immutable empty, not a fresh list per miss.
        assert index.lookup(99) is index.lookup(98) == ()

    def test_build_rows_counted(self):
        index = HashIndex(ROWS, 0)
        assert index.build_rows == 5
        assert len(index) == 5


class TestSortedIndex:
    def test_lookup_hit(self):
        index = SortedIndex(ROWS, 0)
        assert index.lookup(3) == ((3, "c"),)

    def test_lookup_duplicates(self):
        index = SortedIndex(ROWS, 0)
        assert sorted(index.lookup(1)) == [(1, "a"), (1, "a2")]

    def test_lookup_miss(self):
        assert SortedIndex(ROWS, 0).lookup(4) == ()

    def test_empty_index(self):
        index = SortedIndex([], 0)
        assert index.lookup(1) == ()
        assert len(index) == 0


class TestFactory:
    def test_builds_hash(self):
        assert isinstance(build_index(ROWS, 0, "hash"), HashIndex)

    def test_builds_sorted(self):
        assert isinstance(build_index(ROWS, 0, "sorted"), SortedIndex)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_index(ROWS, 0, "btree")

    def test_indexes_agree_on_lookup(self):
        hash_index = build_index(ROWS, 0, "hash")
        sorted_index = build_index(ROWS, 0, "sorted")
        for key in (1, 2, 3, 4, 5):
            assert sorted(hash_index.lookup(key)) == sorted(sorted_index.lookup(key))

"""Row helpers, in particular the stable hash partitioning relies on."""

from repro.storage.tuples import (
    hash_partitions,
    row_size_bytes,
    stable_hash,
)


class TestStableHash:
    def test_small_ints_hash_to_themselves(self):
        assert stable_hash(5) == 5
        assert stable_hash(0) == 0

    def test_negative_ints_are_masked_to_64_bits(self):
        assert stable_hash(-1) == (1 << 64) - 1

    def test_bools_hash_as_ints(self):
        assert stable_hash(True) == 1
        assert stable_hash(False) == 0

    def test_strings_are_deterministic(self):
        assert stable_hash("paris") == stable_hash("paris")
        assert stable_hash("paris") != stable_hash("cannes")

    def test_floats_are_deterministic(self):
        assert stable_hash(1.5) == stable_hash(1.5)

    def test_tuples_combine_components(self):
        assert stable_hash((1, 2)) == stable_hash((1, 2))
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_modulo_partitioning_of_ints_is_transparent(self):
        # Key property the workload generator builds on.
        for key in range(1000):
            assert stable_hash(key) % 7 == key % 7

    def test_string_hash_spreads_over_buckets(self):
        buckets = {stable_hash(f"value-{i}") % 16 for i in range(200)}
        assert len(buckets) == 16

    def test_hash_partitions_is_stable_hash_modulo_degree(self):
        # The batched form a pipeline routes with: integers are written
        # out, everything else (bools included) goes through stable_hash.
        values = [0, 5, -1, 2**70, True, False, "paris", 1.5, (1, 2), None]
        assert hash_partitions(iter(values), 7) == [
            stable_hash(value) % 7 for value in values]


class TestRowHelpers:
    def test_row_size_ints(self):
        assert row_size_bytes((1, 2, 3)) == 24

    def test_row_size_strings_count_length(self):
        assert row_size_bytes(("abcd",)) == 5  # 4 chars + overhead

    def test_row_size_mixed(self):
        assert row_size_bytes((1, "ab")) == 8 + 3

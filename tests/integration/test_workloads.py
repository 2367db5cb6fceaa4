"""Workload-generator invariants the experiments depend on."""

import pytest

from repro.bench.workloads import (
    JOIN_SCHEMA,
    make_join_database,
    make_selection_table,
    skewed_fragments,
)
from repro.storage.skew import zipf_cardinalities
from repro.storage.tuples import stable_hash


def _column(relation, name: str) -> list:
    """One attribute column of *relation*, in row order."""
    position = relation.schema.position(name)
    return [row[position] for row in relation.rows]


class TestSkewedFragments:
    def test_total_cardinality_exact(self):
        relation, fragments = skewed_fragments("A", 1234, 17, 0.7)
        assert relation.cardinality == 1234
        assert sum(f.cardinality for f in fragments) == 1234

    def test_keys_hash_to_their_fragment(self):
        """The skewed placement is a *legal* hash partitioning."""
        _, fragments = skewed_fragments("A", 500, 8, 1.0)
        for fragment in fragments:
            for row in fragment.rows:
                assert stable_hash(row[0]) % 8 == fragment.index

    def test_keys_are_unique(self):
        relation, _ = skewed_fragments("A", 1000, 10, 0.8)
        keys = _column(relation, "key")
        assert len(set(keys)) == len(keys)

    def test_cardinalities_follow_zipf(self):
        _, fragments = skewed_fragments("A", 1000, 10, 1.0)
        assert [f.cardinality for f in fragments] == zipf_cardinalities(
            1000, 10, 1.0)


class TestJoinDatabase:
    def test_expected_matches_with_paper_ratios(self):
        """With |A| = 10 |B'| every B' key finds a partner at any skew,
        so the result cardinality is exactly |B'|."""
        for theta in (0.0, 0.4, 0.8, 1.0):
            database = make_join_database(2000, 200, degree=20, theta=theta)
            assert database.expected_matches == 200

    def test_extreme_skew_can_reduce_matches(self):
        """If A's smallest fragment dips below B's share, matches drop —
        the generator reports this honestly via expected_matches."""
        database = make_join_database(100, 90, degree=10, theta=1.0)
        assert database.expected_matches < 90

    def test_entries_copartitioned(self):
        database = make_join_database(400, 40, degree=8, theta=0.3)
        assert database.entry_a.spec.compatible_with(database.entry_b.spec)
        assert database.degree == 8

    def test_b_side_always_uniform(self):
        database = make_join_database(1000, 100, degree=10, theta=1.0)
        cards = database.entry_b.statistics.cardinalities
        assert max(cards) - min(cards) <= 1

    def test_schema(self):
        database = make_join_database(100, 10, degree=5, theta=0.0)
        assert database.entry_a.relation.schema == JOIN_SCHEMA

    def test_payloads_distinguish_relations(self):
        database = make_join_database(100, 10, degree=5, theta=0.0)
        a_payloads = set(_column(database.entry_a.relation, "payload"))
        b_payloads = set(_column(database.entry_b.relation, "payload"))
        assert not (a_payloads & b_payloads)


class TestSelectionTable:
    def test_wisconsin_table_registered(self):
        entry = make_selection_table(cardinality=1000, degree=10)
        assert entry.cardinality == 1000
        assert entry.degree == 10
        assert "unique1" in entry.relation.schema

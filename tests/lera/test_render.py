"""Plan rendering (simple and extended views)."""

import pytest

from repro.bench.workloads import make_join_database, skewed_fragments
from repro.lera.plans import (
    assoc_join_plan,
    chain_join_plan,
    ideal_join_plan,
)
from repro.lera.render import render, render_extended, render_simple
from repro.storage.catalog import Catalog
from repro.storage.partitioning import PartitioningSpec


@pytest.fixture
def assoc(join_db):
    return assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")


class TestSimpleView:
    def test_single_chain_pipeline(self, assoc):
        text = render_simple(assoc)
        assert "Sq1:" in text
        assert "transmit (triggered, x20)" in text
        assert "--tuples-->" in text
        assert "join (pipelined, x20)" in text

    def test_algorithm_annotation(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key",
                               algorithm="temp_index")
        assert "temp_index" in render_simple(plan)

    def test_grain_annotation(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key",
                               grain=4)
        assert "grain=4" in render_simple(plan)

    def test_materialized_dependency_shown(self, join_db):
        relation_c, fragments_c = skewed_fragments("C", 100, 4, 0.0)
        entry_c = Catalog().register_fragments(
            relation_c, PartitioningSpec.on("key", 4), fragments_c)
        plan = chain_join_plan(join_db.entry_a, join_db.entry_b,
                               "key", "key", [(entry_c, "key", "key")])
        text = render_simple(plan)
        assert "stored result of" in text


class TestExtendedView:
    def test_lists_instances_with_fragments(self, assoc):
        text = render_extended(assoc, "join")
        assert "join_1" in text
        assert "join_20" in text
        assert "A[0]" in text
        assert "tuple queue" in text

    def test_elides_middle(self, assoc):
        text = render_extended(assoc, "transmit")
        assert "more instances" in text
        assert "transmit_1" in text
        assert "transmit_20" in text
        assert "transmit_10" not in text

    def test_triggered_queue_kind(self, assoc):
        assert "trigger queue" in render_extended(assoc, "transmit")


class TestFullRender:
    def test_combined(self, assoc):
        text = render(assoc, extended=True)
        assert "Sq1:" in text
        assert "transmit_1" in text
        assert "join_1" in text

"""Plan-shape selection: IdealJoin vs AssocJoin vs filter-join."""

import pytest

from repro.bench.workloads import make_join_database, skewed_fragments
from repro.compiler import normalize, parallelize, parse
from repro.errors import CompilationError
from repro.storage.catalog import Catalog
from repro.storage.partitioning import PartitioningSpec


def compile_query(sql, catalog, algorithm="nested_loop"):
    return parallelize(normalize(parse(sql), catalog), catalog, algorithm)


@pytest.fixture
def cat():
    catalog = Catalog()
    make_join_database(400, 40, degree=8, theta=0.0, catalog=catalog)
    return catalog


@pytest.fixture
def cat_mixed():
    """A partitioned on key; C partitioned on payload (not its join key)."""
    catalog = Catalog()
    make_join_database(400, 40, degree=8, theta=0.0, catalog=catalog)
    relation_c, fragments_c = skewed_fragments("C", 60, 4, 0.0)
    catalog.register(relation_c, PartitioningSpec.on("payload", 4))
    return catalog


class TestSelectionShapes:
    def test_plain_selection(self, cat):
        compiled = compile_query("SELECT * FROM A WHERE key < 10", cat)
        assert "filter" in compiled.plan
        assert compiled.projection is None

    def test_projection_positions(self, cat):
        compiled = compile_query("SELECT payload, key FROM A", cat)
        assert compiled.projection == (1, 0)
        assert compiled.final_schema.names == ("payload", "key")

    def test_unknown_select_column_rejected(self, cat):
        with pytest.raises(CompilationError, match="not in"):
            compile_query("SELECT nope FROM A JOIN B ON A.key = B.key", cat)


class TestJoinShapes:
    def test_copartitioned_becomes_ideal(self, cat):
        compiled = compile_query("SELECT * FROM A JOIN B ON A.key = B.key", cat)
        assert "IdealJoin" in compiled.description
        assert compiled.plan.node("join").trigger_mode == "triggered"

    def test_mismatched_partitioning_becomes_assoc(self, cat_mixed):
        compiled = compile_query(
            "SELECT * FROM A JOIN C ON A.key = C.key", cat_mixed)
        assert "AssocJoin" in compiled.description
        assert "transmit" in compiled.plan
        # C (not partitioned on its join key) is the streamed side
        assert "C >> A" in compiled.description

    def test_filtered_stream_becomes_filter_join(self, cat):
        compiled = compile_query(
            "SELECT * FROM A JOIN B ON A.key = B.key WHERE B.payload < 5", cat)
        assert "FilterJoin" in compiled.description
        assert compiled.plan.node("join").trigger_mode == "pipelined"

    def test_filters_on_both_sides_rejected(self, cat):
        with pytest.raises(CompilationError, match="both"):
            compile_query(
                "SELECT * FROM A JOIN B ON A.key = B.key "
                "WHERE A.payload < 5 AND B.payload < 5", cat)

    def test_neither_partitioned_on_key_rejected(self, cat_mixed):
        with pytest.raises(CompilationError, match="neither"):
            compile_query(
                "SELECT * FROM A JOIN C ON A.payload = C.key", cat_mixed)

    def test_algorithm_flows_through(self, cat):
        compiled = compile_query("SELECT * FROM A JOIN B ON A.key = B.key",
                                 cat, algorithm="temp_index")
        assert compiled.plan.node("join").spec.algorithm == "temp_index"

    def test_copartitioned_with_filter_streams_filtered_side(self, cat):
        compiled = compile_query(
            "SELECT * FROM A JOIN B ON A.key = B.key WHERE A.payload < 5", cat)
        # A is filtered, so A streams and B is the stored side.
        assert "FilterJoin" in compiled.description
        assert "-> B" in compiled.description


class TestColumnMapping:
    def test_qualified_columns_on_join(self, cat):
        compiled = compile_query(
            "SELECT A.key, B.payload FROM A JOIN B ON A.key = B.key", cat)
        assert compiled.projection is not None
        assert len(compiled.projection) == 2

    def test_duplicate_column_selection(self, cat):
        compiled = compile_query(
            "SELECT key, key FROM A", cat)
        assert compiled.final_schema.names == ("key", "key_2")

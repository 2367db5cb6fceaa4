"""Permanent indexes and index-aware selection."""

import pytest

from repro.core.database import DBS3
from repro.errors import PlanError, SchemaError
from repro.lera.plans import index_scan_plan
from repro.storage.wisconsin import generate_wisconsin


@pytest.fixture
def db():
    database = DBS3(processors=8)
    database.create_table(generate_wisconsin("A", 5000, seed=1),
                          "unique1", 20)
    return database


class TestCatalogIndexes:
    def test_create_index_per_fragment(self, db):
        db.create_index("A", "unique2")
        entry = db.table("A")
        indexes = entry.index_on("unique2")
        assert len(indexes) == entry.degree
        total = sum(len(index) for index in indexes)
        assert total == entry.cardinality

    def test_index_on_missing_returns_none(self, db):
        assert db.table("A").index_on("unique2") is None

    def test_bad_attribute_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_index("A", "ghost")


class TestIndexScanPlan:
    def test_requires_existing_index(self, db):
        with pytest.raises(PlanError, match="create_index"):
            index_scan_plan(db.table("A"), "unique2", 5)

    def test_probe_results_match_scan(self, db):
        db.create_index("A", "tenPercent")
        scan = db.query("SELECT * FROM A WHERE unique2 < 99999")  # full scan
        probe_plan = index_scan_plan(db.table("A"), "tenPercent", 3)
        from repro.engine.executor import Executor, QuerySchedule
        execution = db.executor.execute(
            probe_plan, QuerySchedule.for_plan(probe_plan, 4))
        expected = [row for row in scan.rows if row[7] == 3]
        assert sorted(execution.result_rows) == sorted(expected)


class TestCompilerIntegration:
    def test_equality_on_indexed_attribute_uses_probe(self, db):
        db.create_index("A", "unique2")
        compiled = db.compile("SELECT * FROM A WHERE unique2 = 42")
        assert "index_scan" in compiled.description

    def test_probe_much_faster_than_scan(self, db):
        scan = db.query("SELECT * FROM A WHERE unique2 = 42", threads=4)
        db.create_index("A", "unique2")
        probe = db.query("SELECT * FROM A WHERE unique2 = 42", threads=4)
        assert sorted(probe.rows) == sorted(scan.rows)
        assert probe.response_time < scan.response_time / 3

    def test_range_predicate_still_scans(self, db):
        db.create_index("A", "unique2")
        compiled = db.compile("SELECT * FROM A WHERE unique2 < 42")
        assert "selection" in compiled.description

    def test_conjunction_still_scans(self, db):
        db.create_index("A", "unique2")
        compiled = db.compile(
            "SELECT * FROM A WHERE unique2 = 42 AND two = 0")
        assert "selection" in compiled.description

    def test_unindexed_equality_scans(self, db):
        compiled = db.compile("SELECT * FROM A WHERE unique2 = 42")
        assert "selection" in compiled.description

    def test_projection_applies_to_probe(self, db):
        db.create_index("A", "unique2")
        result = db.query("SELECT unique1 FROM A WHERE unique2 = 42")
        assert len(result.rows) == 1
        assert len(result.rows[0]) == 1

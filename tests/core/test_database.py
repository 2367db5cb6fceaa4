"""DBS3 facade: DDL, SQL execution, explain."""

import pytest

from repro.bench.workloads import skewed_fragments
from repro.core.database import DBS3
from repro.errors import CatalogError, CompilationError
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.wisconsin import generate_wisconsin


@pytest.fixture
def db():
    database = DBS3(processors=16)
    database.create_table(generate_wisconsin("A", 2000, seed=1), "unique1", 20)
    database.create_table(generate_wisconsin("B", 200, seed=2), "unique1", 20)
    return database


class TestDDL:
    def test_create_and_lookup(self, db):
        entry = db.table("A")
        assert entry.degree == 20
        assert entry.cardinality == 2000
        assert sorted(db.tables()) == ["A", "B"]

    def test_duplicate_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table(generate_wisconsin("A", 10), "unique1", 2)

    def test_drop(self, db):
        db.drop_table("B")
        assert db.tables() == ["A"]

    def test_create_from_fragments(self):
        database = DBS3(processors=4)
        relation, fragments = skewed_fragments("S", 100, 4, 1.0)
        entry = database.create_table_from_fragments(relation, "key", fragments)
        assert entry.degree == 4
        assert entry.statistics.skew_ratio > 1.5


class TestQueries:
    def test_selection(self, db):
        result = db.query("SELECT * FROM A WHERE unique1 < 100", threads=4)
        assert result.cardinality == 100
        assert result.response_time > 0

    def test_selection_correct_rows(self, db):
        result = db.query("SELECT unique1 FROM A WHERE unique2 = 5")
        truth = [row for row in db.table("A").relation.rows
                 if row[1] == 5]
        assert result.rows == [(truth[0][0],)]

    def test_ideal_join_matches_reference(self, db):
        result = db.query("SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
                          threads=4)
        truth = db.table("A").relation.join(db.table("B").relation,
                                            "unique1", "unique1")
        assert result.cardinality == truth.cardinality
        assert sorted(result.rows) == sorted(truth.rows)

    def test_projection_applies(self, db):
        result = db.query(
            "SELECT A.unique2, B.unique2 FROM A JOIN B ON A.unique1 = B.unique1",
            threads=2)
        assert all(len(row) == 2 for row in result.rows)
        assert result.schema.names == ("unique2", "unique2_2")

    def test_auto_threads(self, db):
        result = db.query("SELECT * FROM A WHERE two = 0")
        assert result.execution.total_threads >= 1

    def test_bad_sql_raises(self, db):
        with pytest.raises(CompilationError):
            db.query("DELETE FROM A")


class TestExplainAndPlanExecution:
    def test_explain_mentions_operations(self, db):
        text = db.explain("SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
                          threads=4)
        assert "IdealJoin" in text
        assert "triggered" in text
        assert "4 threads" in text

    def test_explain_extended_lists_every_instance(self, db):
        text = db.explain("SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
                          threads=4, extended=True)
        assert "one trigger queue each" in text
        assert "join_1 |trigger queue|  <- A[0]" in text

    def test_execute_plan_custom(self, db):
        from repro.lera.plans import ideal_join_plan
        plan = ideal_join_plan(db.table("A"), db.table("B"),
                               "unique1", "unique1")
        schema = db.table("A").relation.schema.concat(
            db.table("B").relation.schema)
        result = db.session().submit_plan(plan, schema, threads=2).result()
        assert result.cardinality == 200
        assert result.description == "custom plan"

    def test_compile_without_execution(self, db):
        compiled = db.compile("SELECT * FROM A JOIN B ON A.unique1 = B.unique1")
        assert "IdealJoin" in compiled.description

    def test_repr(self, db):
        assert "DBS3" in repr(db)

    def test_result_head_and_repr(self, db):
        result = db.query("SELECT unique1 FROM A WHERE unique1 < 50")
        assert len(result.head(5)) == 5
        assert "QueryResult" in repr(result)

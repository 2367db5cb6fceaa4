"""CSV round-trips."""

import pytest

from repro.errors import SchemaError
from repro.storage.io import relation_from_csv, relation_to_csv
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, Schema


class TestRoundTrip:
    def test_int_relation(self, tmp_path, small_relation):
        path = tmp_path / "r.csv"
        relation_to_csv(small_relation, path)
        loaded = relation_from_csv("R2", path, small_relation.schema)
        assert loaded.rows == small_relation.rows
        assert loaded.schema == small_relation.schema

    def test_mixed_kinds(self, tmp_path):
        schema = Schema([Attribute("id", "int"), Attribute("score", "float"),
                         Attribute("city", "str")])
        relation = Relation("M", schema, [(1, 2.5, "paris"), (2, -1.0, "lyon")])
        path = tmp_path / "m.csv"
        relation_to_csv(relation, path)
        loaded = relation_from_csv("M", path, schema)
        assert loaded.rows == relation.rows

    def test_empty_relation(self, tmp_path, small_schema):
        relation = Relation("E", small_schema, [])
        path = tmp_path / "e.csv"
        relation_to_csv(relation, path)
        loaded = relation_from_csv("E", path, small_schema)
        assert loaded.rows == ()


class TestInference:
    def test_kinds_inferred(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("id,score,city\n1,2.5,paris\n2,3.5,lyon\n")
        loaded = relation_from_csv("I", path)
        assert [a.kind for a in loaded.schema] == ["int", "float", "str"]
        assert loaded.rows == ((1, 2.5, "paris"), (2, 3.5, "lyon"))

    def test_empty_file_with_header_defaults_to_str(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        loaded = relation_from_csv("H", path)
        assert loaded.cardinality == 0
        assert [a.kind for a in loaded.schema] == ["str", "str"]


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="header"):
            relation_from_csv("X", path)

    def test_header_schema_mismatch(self, tmp_path, small_schema):
        path = tmp_path / "x.csv"
        path.write_text("wrong,names\n1,2\n")
        with pytest.raises(SchemaError, match="does not match"):
            relation_from_csv("X", path, small_schema)

    def test_bad_value_reports_line(self, tmp_path, small_schema):
        path = tmp_path / "x.csv"
        path.write_text("key,payload\n1,2\nnope,4\n")
        with pytest.raises(SchemaError, match=":3"):
            relation_from_csv("X", path, small_schema)

    def test_wrong_column_count(self, tmp_path, small_schema):
        path = tmp_path / "x.csv"
        path.write_text("key,payload\n1,2,3\n")
        with pytest.raises(SchemaError, match="values for"):
            relation_from_csv("X", path, small_schema)


class TestEndToEnd:
    def test_loaded_relation_queries(self, tmp_path):
        from repro.core.database import DBS3
        path = tmp_path / "sales.csv"
        path.write_text("key,amount\n" + "".join(
            f"{i},{i * 3}\n" for i in range(200)))
        relation = relation_from_csv("Sales", path)
        db = DBS3(processors=4)
        db.create_table(relation, "key", 8)
        result = db.query("SELECT SUM(amount) FROM Sales WHERE key < 10")
        assert result.rows == [(sum(3 * i for i in range(10)),)]

"""Property-based tests: CSV round-trips and parser robustness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.io import relation_from_csv, relation_to_csv
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, Schema

# CSV-safe text: csv.writer quotes anything, but keep away from
# newline-only edge semantics of the csv module round-trip ('\r' gets
# normalized); printable without CR/LF is the realistic domain.
csv_text = st.text(
    alphabet=st.characters(blacklist_characters="\r\n",
                           blacklist_categories=("Cs",)),
    max_size=20)

int_rows = st.lists(st.tuples(st.integers(min_value=-10**12, max_value=10**12),
                              st.integers(min_value=-10**12, max_value=10**12)),
                    max_size=60)
mixed_rows = st.lists(
    st.tuples(st.integers(min_value=-10**6, max_value=10**6),
              st.floats(allow_nan=False, allow_infinity=False,
                        width=32),
              csv_text),
    max_size=60)


class TestCsvRoundTripProperties:
    @given(rows=int_rows)
    @settings(max_examples=50, deadline=None)
    def test_int_round_trip(self, rows, tmp_path_factory):
        schema = Schema.of_ints("a", "b")
        relation = Relation("R", schema, rows)
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        relation_to_csv(relation, path)
        loaded = relation_from_csv("R", path, schema)
        assert loaded.rows == tuple(rows)

    @given(rows=mixed_rows)
    @settings(max_examples=40, deadline=None)
    def test_mixed_round_trip(self, rows, tmp_path_factory):
        schema = Schema([Attribute("i", "int"), Attribute("f", "float"),
                         Attribute("s", "str")])
        relation = Relation("M", schema, rows)
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        relation_to_csv(relation, path)
        loaded = relation_from_csv("M", path, schema)
        for original, read_back in zip(rows, loaded.rows):
            assert read_back[0] == original[0]
            assert read_back[1] == float(original[1])
            assert read_back[2] == original[2]

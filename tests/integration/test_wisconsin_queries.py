"""The adapted Wisconsin query suite runs and verifies cardinalities."""

import pytest

from repro.bench.wisconsin_queries import (
    agg_min_grouped,
    join_a_bprime,
    join_a_sel_bprime,
    make_database,
    sel_1pct,
    sel_10pct,
    standard_suite,
)


@pytest.fixture(scope="module")
def db():
    return make_database(cardinality=2000, degree=20)


class TestIndividualQueries:
    def test_sel_1pct(self, db):
        result = sel_1pct(db).run(threads=4)
        assert result.cardinality == 20
        assert all(row[db.table("A").relation.schema.position("onePercent")]
                   == 7 for row in result.rows)

    def test_sel_10pct(self, db):
        result = sel_10pct(db).run(threads=4)
        assert result.cardinality == 200

    def test_join_a_bprime(self, db):
        result = join_a_bprime(db).run(threads=4)
        assert result.cardinality == 200
        assert "IdealJoin" in result.description

    def test_join_a_sel_bprime_uses_pipeline(self, db):
        result = join_a_sel_bprime(db).run(threads=4)
        assert result.cardinality == 20
        assert "FilterJoin" in result.description

    def test_agg_min_grouped(self, db):
        result = agg_min_grouped(db).run(threads=4)
        assert result.cardinality == 100
        # MIN(unique1) over onePercent = unique1 % 100 groups: the
        # minimum of group g is exactly g.
        assert sorted(result.rows) == [(g, g) for g in range(100)]

    def test_cardinality_mismatch_raises(self, db):
        from repro.bench.wisconsin_queries import WisconsinQuery
        bogus = WisconsinQuery("bogus", "SELECT * FROM A WHERE two = 0",
                               expected_cardinality=1, db=db)
        with pytest.raises(AssertionError, match="bogus"):
            bogus.run(threads=2)


class TestSuite:
    def test_standard_suite_runs_green(self, db):
        for query in standard_suite(db):
            result = query.run(threads=4)
            assert result.cardinality == query.expected_cardinality

    def test_temp_index_algorithm_variant(self, db):
        result = join_a_bprime(db).run(threads=4, algorithm="temp_index")
        assert result.cardinality == 200

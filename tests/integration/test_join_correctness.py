"""End-to-end join correctness against the sequential reference.

Every parallel execution must produce exactly the rows a sequential
hash join over the same relations produces — for every plan shape,
algorithm, strategy, thread count and skew level.
"""

import pytest

from repro.bench.workloads import make_join_database
from repro.engine.executor import Executor, QuerySchedule
from repro.lera.operators import JOIN_NESTED_LOOP, JOIN_TEMP_INDEX
from repro.lera.plans import assoc_join_plan, filter_join_plan, ideal_join_plan
from repro.lera.predicates import attribute_predicate
from repro.machine.machine import Machine


def _reference_pairs(database):
    """(a_row, b_row) matches from the sequential reference join."""
    joined = database.entry_a.relation.join(database.entry_b.relation,
                                            "key", "key")
    return sorted(joined.rows)


def _executor():
    return Executor(Machine.uniform(processors=8))


@pytest.mark.parametrize("algorithm", [JOIN_NESTED_LOOP, JOIN_TEMP_INDEX])
@pytest.mark.parametrize("theta", [0.0, 1.0])
class TestIdealJoin:
    def test_matches_reference(self, algorithm, theta):
        database = make_join_database(1000, 100, degree=10, theta=theta)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key", algorithm=algorithm)
        execution = _executor().execute(plan, QuerySchedule.for_plan(plan, 4))
        assert sorted(execution.result_rows) == _reference_pairs(database)


@pytest.mark.parametrize("algorithm", [JOIN_NESTED_LOOP, JOIN_TEMP_INDEX])
@pytest.mark.parametrize("theta", [0.0, 1.0])
class TestAssocJoin:
    def test_matches_reference(self, algorithm, theta):
        database = make_join_database(1000, 100, degree=10, theta=theta)
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key", algorithm=algorithm)
        execution = _executor().execute(plan, QuerySchedule.for_plan(plan, 3))
        # AssocJoin emits stream(B) + stored(A); reorder to compare.
        produced = sorted(row[2:] + row[:2] for row in execution.result_rows)
        assert produced == _reference_pairs(database)


class TestStrategiesAndThreads:
    @pytest.mark.parametrize("strategy", ["random", "lpt"])
    def test_strategy_does_not_change_results(self, strategy):
        database = make_join_database(1000, 100, degree=10, theta=1.0)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        execution = _executor().execute(
            plan, QuerySchedule.for_plan(plan, 4, strategy=strategy))
        assert sorted(execution.result_rows) == _reference_pairs(database)

    @pytest.mark.parametrize("threads", [1, 2, 5, 16])
    def test_thread_count_does_not_change_results(self, threads):
        database = make_join_database(600, 60, degree=6, theta=0.5)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        execution = _executor().execute(
            plan, QuerySchedule.for_plan(plan, threads))
        assert sorted(execution.result_rows) == _reference_pairs(database)


class TestFilterJoin:
    def test_matches_filtered_reference(self):
        database = make_join_database(1000, 100, degree=10, theta=0.0)
        predicate = attribute_predicate(database.entry_b.relation.schema,
                                        "key", "<", 500, selectivity=0.5)
        plan = filter_join_plan(database.entry_b, database.entry_a, predicate,
                                "key", "key")
        execution = _executor().execute(plan, QuerySchedule.for_plan(plan, 3))
        filtered_b = database.entry_b.relation.select(lambda row: row[0] < 500)
        reference = sorted(filtered_b.join(database.entry_a.relation,
                                           "key", "key").rows)
        assert sorted(execution.result_rows) == reference

    def test_empty_filter_output(self):
        database = make_join_database(500, 50, degree=5, theta=0.0)
        predicate = attribute_predicate(database.entry_b.relation.schema,
                                        "key", "<", 0, selectivity=0.0)
        plan = filter_join_plan(database.entry_b, database.entry_a, predicate,
                                "key", "key")
        execution = _executor().execute(plan, QuerySchedule.for_plan(plan, 2))
        assert execution.result_cardinality == 0

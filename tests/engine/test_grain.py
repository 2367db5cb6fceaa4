"""The chunked-trigger (grain of parallelism) extension.

The paper's conclusion proposes "allowing the choice of the grain of
parallelism independent of the operation semantics": with ``grain >
1`` each triggered join instance is split into sub-activations over
outer-fragment slices, making a triggered operator balance like a
pipelined one without repartitioning.
"""

import pytest

from repro.bench.workloads import make_join_database
from repro.engine.executor import Executor, QuerySchedule
from repro.errors import PlanError
from repro.lera.activation import CONTROL, chunk_trigger
from repro.lera.operators import JOIN_HASH, JOIN_NESTED_LOOP, JOIN_TEMP_INDEX
from repro.lera.plans import ideal_join_plan
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.machine import Machine


def _run(database, threads, grain, algorithm=JOIN_NESTED_LOOP,
         strategy="lpt"):
    plan = ideal_join_plan(database.entry_a, database.entry_b, "key", "key",
                           algorithm=algorithm, grain=grain)
    executor = Executor(Machine.uniform(processors=16))
    return executor.execute(plan,
                            QuerySchedule.for_plan(plan, threads, strategy))


class TestChunkBounds:
    def test_grain_one_covers_fragment(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        spec = plan.node("join").spec
        cardinality = join_db.entry_a.fragments[0].cardinality
        assert spec.chunk_bounds(0, None) == (0, cardinality)

    def test_chunks_tile_the_fragment(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key",
                               grain=4)
        spec = plan.node("join").spec
        cardinality = join_db.entry_a.fragments[0].cardinality
        covered = []
        for chunk in range(4):
            low, high = spec.chunk_bounds(0, chunk)
            covered.extend(range(low, high))
        assert covered == list(range(cardinality))

    def test_out_of_range_chunk_rejected(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key",
                               grain=2)
        with pytest.raises(PlanError):
            plan.node("join").spec.chunk_bounds(0, 5)

    def test_zero_grain_rejected(self, join_db):
        with pytest.raises(PlanError):
            ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key",
                            grain=0)


class TestEstimates:
    def test_per_activation_estimate_scales_down(self, join_db):
        coarse = ideal_join_plan(join_db.entry_a, join_db.entry_b,
                                 "key", "key").node("join").spec
        fine = ideal_join_plan(join_db.entry_a, join_db.entry_b,
                               "key", "key", grain=5).node("join").spec
        assert fine.estimated_instance_costs(DEFAULT_COSTS)[0] == pytest.approx(
            coarse.estimated_instance_costs(DEFAULT_COSTS)[0] / 5)

    def test_total_complexity_unchanged_nested_loop(self, join_db):
        coarse = ideal_join_plan(join_db.entry_a, join_db.entry_b,
                                 "key", "key").node("join").spec
        fine = ideal_join_plan(join_db.entry_a, join_db.entry_b,
                               "key", "key", grain=5).node("join").spec
        assert fine.total_complexity(DEFAULT_COSTS) == pytest.approx(
            coarse.total_complexity(DEFAULT_COSTS))

    def test_activation_count(self, join_db):
        spec = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key",
                               grain=3).node("join").spec
        assert spec.activations_per_instance() == 3
        assert spec.estimated_activations() == 3 * join_db.degree


class TestExecution:
    @pytest.mark.parametrize("algorithm", [JOIN_NESTED_LOOP, JOIN_TEMP_INDEX,
                                           JOIN_HASH])
    def test_results_identical_to_unchunked(self, algorithm):
        database = make_join_database(1000, 100, degree=10, theta=0.7)
        plain = _run(database, 4, grain=1, algorithm=algorithm)
        chunked = _run(database, 4, grain=4, algorithm=algorithm)
        assert sorted(plain.result_rows) == sorted(chunked.result_rows)

    def test_activation_counts(self):
        database = make_join_database(500, 50, degree=5, theta=0.0)
        execution = _run(database, 2, grain=8)
        assert execution.operation("join").activations == 5 * 8

    def test_grain_rescues_skewed_triggered_join(self):
        """The headline: at low degree with heavy skew, the grain does
        what a higher degree of partitioning would do."""
        database = make_join_database(20_000, 2000, degree=10, theta=1.0)
        coarse = _run(database, 10, grain=1)
        fine = _run(database, 10, grain=16)
        # grain=1: the response is pinned by the largest fragment
        pmax = coarse.operation("join").profile().max_cost
        assert coarse.response_time >= pmax
        # grain=16: far closer to the ideal time
        ideal = fine.operation("join").profile().total_cost / 10
        assert fine.response_time < coarse.response_time * 0.5
        assert fine.response_time < ideal * 1.3 + fine.startup_time

    def test_temp_index_grain_costs_more_total_work(self):
        """Finer grain is not free with an index: every chunk re-probes
        the inner operand against its slice index."""
        database = make_join_database(5000, 500, degree=5, theta=0.0)
        plain = _run(database, 4, grain=1, algorithm=JOIN_TEMP_INDEX)
        chunked = _run(database, 4, grain=8, algorithm=JOIN_TEMP_INDEX)
        assert chunked.work > plain.work

    def test_chunk_trigger_activation(self):
        activation = chunk_trigger(3, 2)
        assert activation.kind == CONTROL
        assert activation.instance == 3
        assert activation.chunk == 2

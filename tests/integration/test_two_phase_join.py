"""Multi-chain (Figure 5 style) execution: store + second-phase join."""

import pytest

from repro import DBS3, WorkloadError, WorkloadOptions
from repro.bench.workloads import make_join_database, skewed_fragments
from repro.engine.executor import Executor, QuerySchedule
from repro.errors import PlanError
from repro.lera.plans import two_phase_join_plan
from repro.machine.machine import Machine
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.storage.catalog import Catalog
from repro.storage.partitioning import PartitioningSpec


@pytest.fixture
def setup():
    """A,B co-partitioned (d=10); C partitioned on key (d=8)."""
    database = make_join_database(1000, 100, degree=10, theta=0.0)
    relation_c, fragments_c = skewed_fragments("C", 300, 8, 0.0)
    catalog = Catalog()
    entry_c = catalog.register_fragments(relation_c,
                                         PartitioningSpec.on("key", 8),
                                         fragments_c)
    return database, entry_c


def _reference(database, entry_c):
    t1 = database.entry_a.relation.join(database.entry_b.relation,
                                        "key", "key")
    return sorted(t1.join(entry_c.relation, "key", "key").rows)


class TestPlanShape:
    def test_two_chains(self, setup):
        database, entry_c = setup
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key")
        waves = plan.chain_waves()
        assert len(waves) == 2
        assert [n.name for n in waves[0][0].nodes] == ["join1", "store1"]
        assert [n.name for n in waves[1][0].nodes] == ["join2"]

    def test_intermediate_degree_matches_second_operand(self, setup):
        database, entry_c = setup
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key")
        assert plan.node("store1").instances == entry_c.degree
        assert plan.node("join2").instances == entry_c.degree

    def test_bad_intermediate_key_rejected(self, setup):
        database, entry_c = setup
        from repro.errors import SchemaError
        with pytest.raises(SchemaError):
            two_phase_join_plan(database.entry_a, database.entry_b,
                                "key", "key", entry_c, "ghost", "key")

    def test_second_operand_partitioning_checked(self, setup):
        database, entry_c = setup
        with pytest.raises(PlanError, match="partitioned on"):
            two_phase_join_plan(database.entry_a, database.entry_b,
                                "key", "key", entry_c, "key", "payload")


class TestExecution:
    def test_three_way_join_correct(self, setup):
        database, entry_c = setup
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key")
        machine = Machine.uniform(processors=16)
        schedule = AdaptiveScheduler(machine).schedule(plan, 8)
        execution = Executor(machine).execute(plan, schedule)
        assert sorted(execution.result_rows) == _reference(database, entry_c)

    def test_intermediate_materialized_before_second_join(self, setup):
        database, entry_c = setup
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key")
        execution = Executor(Machine.uniform()).execute(
            plan, QuerySchedule.for_plan(plan, 4))
        store = execution.operation("store1")
        join2 = execution.operation("join2")
        assert join2.started_at >= store.finished_at
        # the store consumed exactly the first join's output
        join1 = execution.operation("join1")
        assert store.activations == join1.enqueues

    def test_intermediate_fragments_are_hash_partitioned(self, setup):
        database, entry_c = setup
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key")
        Executor(Machine.uniform()).execute(plan,
                                            QuerySchedule.for_plan(plan, 4))
        from repro.storage.tuples import stable_hash
        spec = plan.node("store1").spec
        for fragment in spec.target_fragments:
            for row in fragment.rows:
                assert stable_hash(row[spec.key_position]) % 8 == fragment.index

    def test_expected_cardinality_feeds_estimates(self, setup):
        database, entry_c = setup
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key",
                                   expected_intermediate=100)
        from repro.machine.costs import DEFAULT_COSTS
        spec = plan.node("join2").spec
        # fragments are empty at plan time, yet estimates are non-zero
        assert spec.total_complexity(DEFAULT_COSTS) > 0

    def test_skewed_first_phase_still_correct(self):
        database = make_join_database(1000, 100, degree=10, theta=1.0)
        relation_c, fragments_c = skewed_fragments("C", 300, 8, 0.0)
        catalog = Catalog()
        entry_c = catalog.register_fragments(relation_c,
                                             PartitioningSpec.on("key", 8),
                                             fragments_c)
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key")
        execution = Executor(Machine.uniform()).execute(
            plan, QuerySchedule.for_plan(plan, 6))
        assert sorted(execution.result_rows) == _reference(database, entry_c)


class TestReExecution:
    """A Store's targets belong to the plan: every execution of the
    plan must start them empty, or a re-run returns the previous run's
    intermediate rows as well."""

    @pytest.fixture
    def plan_and_schedule(self, setup):
        database, entry_c = setup
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key")
        machine = Machine.uniform(processors=16)
        return plan, AdaptiveScheduler(machine).schedule(plan, 8), machine

    def test_three_runs_through_the_executor_agree(self, setup,
                                                   plan_and_schedule):
        plan, schedule, machine = plan_and_schedule
        runs = [Executor(machine).execute(plan, schedule) for _ in range(3)]
        for run in runs:
            assert sorted(run.result_rows) == _reference(*setup)
        assert len({run.response_time for run in runs}) == 1
        assert runs[0].operations == runs[1].operations == runs[2].operations

    def test_three_runs_through_sessions_agree(self, setup, plan_and_schedule):
        plan, schedule, machine = plan_and_schedule
        db = DBS3(machine=machine)
        schema = plan.node("join2").spec.output_schema
        results = []
        for _ in range(3):
            handle = db.session().submit_plan(plan, schema, schedule=schedule)
            results.append(handle.result())
        for result in results:
            assert sorted(result.rows) == _reference(*setup)
        assert len({result.response_time for result in results}) == 1
        # ...and the session path agrees with the bare executor.
        direct = Executor(machine).execute(plan, schedule)
        assert direct.response_time == results[0].response_time

    def test_serialized_submissions_of_one_plan_agree(self, setup,
                                                      plan_and_schedule):
        plan, schedule, machine = plan_and_schedule
        session = DBS3(machine=machine).session(
            WorkloadOptions(max_concurrent=1))
        schema = plan.node("join2").spec.output_schema
        handles = [session.submit_plan(plan, schema, schedule=schedule)
                   for _ in range(2)]
        for handle in handles:
            assert sorted(handle.result().rows) == _reference(*setup)

    def test_concurrent_submissions_of_one_plan_are_refused(
            self, plan_and_schedule):
        plan, schedule, machine = plan_and_schedule
        session = DBS3(machine=machine).session()
        schema = plan.node("join2").spec.output_schema
        for _ in range(2):
            session.submit_plan(plan, schema, schedule=schedule)
        with pytest.raises(WorkloadError, match="interleave Store targets"):
            session.run()

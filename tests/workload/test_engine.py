"""The workload engine: admission, step 0, and dynamic reallocation.

Acceptance behaviors from the concurrent-workload design:

* a multi-query batch finishes in strictly less virtual time than the
  same queries run back-to-back (the whole point of sharing the
  machine);
* with ``max_concurrent=1`` the workload degenerates to exactly the
  serial back-to-back timing (admission queueing is faithful);
* every query completion triggers an observable re-grant, and with
  ``rebalance`` helper threads join still-running waves mid-flight.
"""

import pytest

from repro import (
    DBS3,
    AdmissionError,
    SchedulingPolicy,
    WorkloadError,
    WorkloadExecutor,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.bench.wisconsin_queries import (
    join_a_bprime,
    join_a_sel_bprime,
    make_database,
)
from repro.bench.workloads import skewed_fragments
from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import (
    Executor,
    OperationSchedule,
    QuerySchedule,
)
from repro.engine.simulator import Simulator
from repro.errors import ExecutionError, PlanError
from repro.lera.graph import LeraGraph
from repro.lera.activation import PIPELINED
from repro.lera.operators import OperatorSpec, StoreSpec
from repro.lera.plans import ideal_join_plan
from repro.obs.bus import QUERY_ADMIT, QUERY_FINISH, QUERY_GRANT, QUERY_SUBMIT
from repro.serve.harness import build_submissions, default_templates
from repro.storage.partitioning import PartitioningSpec
from repro.workload import engine as engine_module
from repro.workload.admission import plan_footprint, runtime_footprint
from repro.workload.engine import QuerySubmission, _JobShape

QUERIES = [
    "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
    "SELECT * FROM C JOIN D ON C.unique1 = D.unique1",
    "SELECT * FROM A JOIN D ON A.unique1 = D.unique1",
    "SELECT * FROM C JOIN B ON C.unique1 = B.unique1",
]


@pytest.fixture(scope="module")
def db():
    db = DBS3(processors=72)
    db.create_table(generate_wisconsin("A", 6_000), "unique1", degree=60)
    db.create_table(generate_wisconsin("B", 600), "unique1", degree=60)
    db.create_table(generate_wisconsin("C", 4_000), "unique1", degree=60)
    db.create_table(generate_wisconsin("D", 400), "unique1", degree=60)
    return db


@pytest.fixture(scope="module")
def serial_times(db):
    return {sql: db.query(sql).execution.response_time for sql in QUERIES}


def _submission(db, sql, tag, arrival=0.0):
    compiled = db.compile(sql)
    schedule = db.scheduler.schedule(compiled.plan, None)
    return QuerySubmission(tag, compiled, schedule, arrival)


class TestConcurrentSpeedup:
    def test_concurrent_makespan_beats_serial(self, db, serial_times):
        session = db.session()
        for sql in QUERIES:
            session.submit(sql)
        result = session.run()
        serial = sum(serial_times.values())
        assert result.makespan < serial
        assert len(result.executions) == 4
        assert result.order == ("q0", "q1", "q2", "q3")

    def test_results_match_single_query_runs(self, db):
        session = db.session()
        handles = [session.submit(sql) for sql in QUERIES]
        for handle, sql in zip(handles, QUERIES):
            assert sorted(handle.result().rows) == sorted(db.query(sql).rows)

    def test_max_concurrent_one_degenerates_to_serial(self, db, serial_times):
        session = db.session(WorkloadOptions(max_concurrent=1))
        for sql in QUERIES:
            session.submit(sql)
        result = session.run()
        # One at a time, each with its full grant, start-ups chained:
        # the back-to-back serial execution.  Only the RNG stream
        # differs (one shared simulator vs a fresh one per query), so
        # the match is near- rather than bit-exact.
        assert result.makespan == pytest.approx(sum(serial_times.values()),
                                                rel=1e-3)
        admits = sorted(e.t for e in result.bus.events_of(QUERY_ADMIT))
        finishes = sorted(e.t for e in result.bus.events_of(QUERY_FINISH))
        # Each admission waits for the previous completion.
        assert admits[1:] == finishes[:-1]


class TestDynamicReallocation:
    def test_threads_regranted_at_each_completion(self, db):
        session = db.session()
        for sql in QUERIES:
            session.submit(sql)
        bus = session.run().bus
        finishes = [e.t for e in bus.events_of(QUERY_FINISH)]
        regrant_times = {e.t for e in bus.events_of(QUERY_GRANT)
                         if e.data["reason"] == "regrant"}
        # The first completion frees capacity the (still budget-
        # capped) survivors pick up; re-grants only ever happen at a
        # completion instant.  Later completions may find the
        # survivors already at full demand, hence no "every finish
        # re-grants" claim.
        assert finishes[0] in regrant_times
        assert regrant_times <= set(finishes[:-1])

    def test_helpers_join_running_waves(self, db):
        session = db.session()
        for sql in QUERIES:
            session.submit(sql)
        bus = session.run().bus
        helpers = [e for e in bus.events_of(QUERY_GRANT)
                   if e.data["reason"] == "helpers"]
        assert helpers, "no helper threads were added mid-wave"
        assert all(e.data["threads"] >= 1 and e.data["pool"] for e in helpers)

    def test_rebalance_off_still_completes(self, db, serial_times):
        session = db.session(WorkloadOptions(
            scheduling=SchedulingPolicy(rebalance=False)))
        for sql in QUERIES:
            session.submit(sql)
        result = session.run()
        assert result.makespan < sum(serial_times.values())
        bus = result.bus
        helpers = [e for e in bus.events_of(QUERY_GRANT)
                   if e.data["reason"] == "helpers"]
        assert not helpers

    def test_initial_grants_respect_the_budget(self, db):
        session = db.session()
        for sql in QUERIES:
            session.submit(sql)
        bus = session.run().bus
        initial = [e for e in bus.events_of(QUERY_GRANT)
                   if e.data["reason"] == "admission"]
        assert sum(e.data["threads"] for e in initial) <= 72


class TestArrivalsAndAdmission:
    def test_arrival_offsets_delay_execution(self, db):
        session = db.session()
        early = session.submit(QUERIES[0])
        late = session.submit(QUERIES[1], at=100.0)
        result = session.run()
        admits = {e.operation: e.t for e in result.bus.events_of(QUERY_ADMIT)}
        assert admits[early.tag] == 0.0
        assert admits[late.tag] == 100.0
        # Response time is measured from arrival, not from t=0.
        assert result.execution(late.tag).response_time < 100.0

    def test_submit_events_cover_every_query(self, db):
        session = db.session()
        for sql in QUERIES:
            session.submit(sql)
        bus = session.run().bus
        assert {e.operation for e in bus.events_of(QUERY_SUBMIT)} == \
            {"q0", "q1", "q2", "q3"}

    def test_memory_gate_staggers_admission(self, db):
        from repro.workload.admission import plan_footprint
        submissions = [_submission(db, QUERIES[0], "first"),
                       _submission(db, QUERIES[2], "second")]
        fp = max(plan_footprint(s.compiled.plan, db.machine.costs)
                 for s in submissions)
        executor = WorkloadExecutor(
            db.machine, db.executor.options,
            WorkloadOptions(memory_limit_bytes=fp))
        result = executor.execute(submissions)
        admits = sorted(e.t for e in result.bus.events_of(QUERY_ADMIT))
        # Both fit alone but not together: the second waits for the
        # first to release its footprint.
        assert admits[0] == 0.0
        assert admits[1] > 0.0

    def test_impossible_footprint_raises(self, db):
        submissions = [_submission(db, QUERIES[0], "big")]
        executor = WorkloadExecutor(db.machine, db.executor.options,
                                    WorkloadOptions(memory_limit_bytes=1))
        with pytest.raises(AdmissionError, match="never be admitted"):
            executor.execute(submissions)

    def test_duplicate_tags_rejected(self, db):
        submissions = [_submission(db, QUERIES[0], "same"),
                       _submission(db, QUERIES[1], "same")]
        with pytest.raises(WorkloadError, match="duplicate"):
            WorkloadExecutor(db.machine).execute(submissions)

    def test_fifo_admission_is_order_preserving(self, db):
        # Head is a big query, a small one queues behind it; with
        # max_concurrent=1 the small one must NOT slip past.
        session = db.session(WorkloadOptions(max_concurrent=1))
        big = session.submit(QUERIES[2])
        small = session.submit(QUERIES[1])
        bus = session.run().bus
        admits = sorted(bus.events_of(QUERY_ADMIT), key=lambda e: e.t)
        assert [e.operation for e in admits] == [big.tag, small.tag]


class TestEagerErrors:
    """A job is built when it is admitted, but a plan or schedule that
    cannot be built is refused where it always was: inside
    ``execute()``, before the first event — with the type and message
    the build itself raises (the literals below are the pre-lazy
    engine's).  The bad query arrives late and behind a running one, so
    a deferred error would surface mid-run."""

    @pytest.fixture
    def no_events(self, monkeypatch):
        def run(self, until=None):
            raise AssertionError("the simulation started")
        monkeypatch.setattr(Simulator, "run", run)

    def _execute(self, db, plan, schedule):
        good = _submission(db, QUERIES[0], "good")
        bad = QuerySubmission(
            "bad", CompiledQuery(plan, None, None, "bad"), schedule,
            arrival=5.0)
        WorkloadExecutor(
            db.machine, workload=WorkloadOptions(max_concurrent=1)
        ).execute([good, bad])

    def _join(self, db):
        return ideal_join_plan(db.table("A"), db.table("B"),
                               "unique1", "unique1")

    def test_invalid_plan(self, db, no_events):
        class OrphanSpec(OperatorSpec):
            trigger_mode = PIPELINED
            instances = 1

            def estimated_instance_costs(self, costs):
                return [1.0]

        plan = self._join(db)
        plan.add_node("orphan", OrphanSpec())
        with pytest.raises(PlanError) as raised:
            self._execute(db, plan, QuerySchedule.for_plan(plan, 4))
        assert str(raised.value) == (
            "pipelined node 'orphan' has no pipeline producer")

    def test_schedule_without_an_entry_for_a_node(self, db, no_events):
        with pytest.raises(ExecutionError) as raised:
            self._execute(db, self._join(db), QuerySchedule({}))
        assert str(raised.value) == "no schedule for operation 'join'"

    def test_spec_without_a_dbfunc(self, db, no_events):
        class MysterySpec(OperatorSpec):
            instances = 2

            def estimated_instance_costs(self, costs):
                return [1.0, 1.0]

        plan = LeraGraph()
        plan.add_node("mystery", MysterySpec())
        with pytest.raises(ExecutionError) as raised:
            self._execute(db, plan, QuerySchedule.for_plan(plan, 2))
        assert str(raised.value) == "no DBFunc for spec type MysterySpec"

    def test_unknown_strategy(self, db, no_events):
        plan = self._join(db)
        schedule = QuerySchedule({"join": OperationSchedule(4, "newest")})
        with pytest.raises(ExecutionError) as raised:
            self._execute(db, plan, schedule)
        assert str(raised.value).startswith(
            "unknown consumption strategy 'newest'")

    def test_raised_once_per_shape(self, db, monkeypatch):
        calls = []
        original = Executor.check_buildable
        monkeypatch.setattr(
            Executor, "check_buildable",
            lambda self, plan, schedule: (calls.append(plan),
                                          original(self, plan, schedule)))
        one = _submission(db, QUERIES[0], "one")
        twins = [QuerySubmission(f"q{i}", one.compiled, one.schedule, 0.1 * i)
                 for i in range(6)]
        WorkloadExecutor(db.machine).execute(twins)
        assert len(calls) == 1


def _plans(db, wisconsin, chain_db):
    for submission in build_submissions(default_templates(), [0.0] * 40):
        yield submission.compiled.plan, submission.schedule
    for sql, source in (
            (join_a_bprime(wisconsin).sql, wisconsin),
            (join_a_sel_bprime(wisconsin).sql, wisconsin),
            ("SELECT * FROM A JOIN B ON A.key = B.key "
             "JOIN C ON A.key = C.key", chain_db)):
        plan = source.compile(sql).plan
        yield plan, source.scheduler.schedule(plan, None)


class TestShapeEquality:
    """What a job reports before anything is built — start-up and
    footprint, which admission, EDF and the start-up thread read — is
    exactly what building it would give."""

    @pytest.fixture(scope="class")
    def chain_db(self):
        database = DBS3(processors=16)
        for name, card, degree in (("A", 800, 10), ("B", 200, 10),
                                   ("C", 300, 8)):
            relation, fragments = skewed_fragments(name, card, degree, 0.0)
            database.catalog.register_fragments(
                relation, PartitioningSpec.on("key", degree), fragments)
        return database

    def test_run_free_numbers_equal_the_built_ones(self, db, chain_db):
        wisconsin = make_database(600, degree=12)
        # Every plan is kept alive, so identity (not a recyclable id)
        # tells the templates' shared plans apart.
        seen, stores = [], set()
        for plan, schedule in _plans(db, wisconsin, chain_db):
            if any(plan is other for other in seen):
                continue
            seen.append(plan)
            executor = Executor(db.machine)
            shape = _JobShape(plan, schedule, executor, shared=True)
            runtimes = executor.build_runtimes(plan, schedule)
            assert shape.startup == executor.startup_time(runtimes, schedule)
            assert shape.footprint == runtime_footprint(runtimes)
            assert shape.footprint == plan_footprint(plan, db.machine.costs)
            assert shape.node_footprints == {
                name: runtime_footprint({name: runtime})
                for name, runtime in runtimes.items()}
            stores.update(node.name for node in plan.nodes
                          if isinstance(node.spec, StoreSpec))
        assert len(seen) == 6 and stores == {"store1"}

    def test_each_formula_is_load_bearing(self, db, monkeypatch):
        """Drift either side and the equality breaks."""
        submission = _submission(db, QUERIES[0], "q")
        plan, schedule = submission.compiled.plan, submission.schedule
        executor = Executor(db.machine)
        runtimes = executor.build_runtimes(plan, schedule)
        built = (executor.startup_time(runtimes, schedule),
                 runtime_footprint(runtimes))

        def shape():
            made = _JobShape(plan, schedule, executor, shared=False)
            return made.startup, made.footprint
        assert shape() == built
        original = Executor.plan_startup
        with monkeypatch.context() as patch:
            patch.setattr(Executor, "plan_startup",
                          lambda *args, **skip:
                          original(*args, **skip) + 1e-9)
            assert shape()[0] != built[0]
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "node_footprints",
                          lambda plan, costs: {"join": 1})
            assert shape()[1] != built[1]
        assert shape() == built

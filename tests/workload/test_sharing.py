"""Shared-work execution through the workload engine.

End-to-end contracts of the fold pass (``WorkloadOptions(shared=True)``):

* duplicate queries fold onto one shared operator and the batch beats
  private concurrent execution, with bit-equal result rows;
* a shared run that folds nothing is the private run, and folding
  changes no row: relation (e) of ``tests/properties/test_lattice.py``;
* cost attribution is exactly fractional (shares sum to one, a fully
  duplicate query runs on zero threads of its own);
* subscribers are reference-counted: cancelling one leaves the host
  and co-subscribers undisturbed, cancelling the *host* detaches its
  own delivery edge while the subscribers' edges keep feeding
  survivors — an interior edge between two folded operators included;
* a fault on a shared operator aborts the whole cohort — a subscriber
  cannot silently lose the stream it was riding;
* the foldability window is the host's sequential start-up phase:
  staggered arrivals inside it fold, later ones run private (and
  still return the right rows);
* a finished query lets go of its runtimes in shared mode as in
  private mode: the fold registry keeps at most its latest entry per
  fingerprint, and a finished job drops its shared operators.
"""

import gc
import weakref

import pytest

from repro import DBS3, WorkloadOptions, generate_wisconsin
from repro.engine.executor import Executor
from repro.faults import ActivationFaults, FaultPlan
from repro.obs.bus import QUERY_ABORT
from repro.workload.engine import _WorkloadRun
from repro.workload.session import CANCELLED, DONE, FAILED
from repro.workload.sharing import FoldRegistry, SharedOperator
from tests.plans import named_join

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"
SQL_CD = "SELECT * FROM C JOIN D ON C.unique1 = D.unique1"


@pytest.fixture(scope="module")
def db():
    db = DBS3(processors=48)
    db.create_table(generate_wisconsin("A", 2_000, seed=1), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("B", 200, seed=2), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("C", 1_500, seed=3), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("D", 150, seed=4), "unique1",
                    degree=20)
    return db


@pytest.fixture(scope="module")
def reference_rows(db):
    return {sql: sorted(db.query(sql).rows) for sql in (SQL, SQL_CD)}


def _run(db, sqls, shared, **knobs):
    session = db.session(options=WorkloadOptions(
        max_concurrent=len(sqls), shared=shared, **knobs))
    handles = [session.submit(sql, tag=f"q{i}")
               for i, sql in enumerate(sqls)]
    return session.run(), handles


def _folded(execution):
    return {name: op.cost_share
            for name, op in execution.operations.items()
            if op.cost_share < 1.0}


class TestFoldSpeedup:
    def test_duplicates_fold_and_beat_private(self, db, reference_rows):
        sqls = [SQL] * 3
        private, _ = _run(db, sqls, shared=False)
        shared, handles = _run(db, sqls, shared=True)
        assert shared.makespan < private.makespan
        for handle in handles:
            assert handle.status == DONE
            assert sorted(handle.result().rows) == reference_rows[SQL]
        # Liveness: the two subscribers actually rode the host's work.
        assert _folded(shared.execution("q1"))
        assert _folded(shared.execution("q2"))

    def test_mixed_batch_only_folds_the_duplicates(self, db,
                                                   reference_rows):
        shared, handles = _run(db, [SQL, SQL_CD, SQL], shared=True)
        assert not _folded(shared.execution("q1"))
        assert _folded(shared.execution("q2"))
        assert sorted(handles[0].result().rows) == reference_rows[SQL]
        assert sorted(handles[1].result().rows) == reference_rows[SQL_CD]
        assert sorted(handles[2].result().rows) == reference_rows[SQL]


class TestFractionalAccounting:
    def test_cost_shares_sum_to_one(self, db):
        """Three subscribers on one operator: every appearance carries
        exactly 1/3, and the three appearances cover the whole cost."""
        shared, _ = _run(db, [SQL] * 3, shared=True)
        shares: dict[str, float] = {}
        for tag in shared.order:
            for name, op in shared.execution(tag).operations.items():
                if op.cost_share < 1.0:
                    assert op.cost_share == pytest.approx(1.0 / 3.0)
                    shares[name] = shares.get(name, 0.0) + op.cost_share
        assert shares, "no folded operator in a batch of duplicates"
        for name, total in shares.items():
            assert total == pytest.approx(1.0), name

    def test_fully_duplicate_query_runs_on_zero_threads(self, db):
        shared, _ = _run(db, [SQL] * 2, shared=True)
        assert shared.execution("q0").total_threads > 0
        assert shared.execution("q1").total_threads == 0


class TestSubscriberCancellation:
    def test_cancelling_one_subscriber_leaves_the_rest_intact(
            self, db, reference_rows):
        session = db.session(options=WorkloadOptions(
            max_concurrent=3, shared=True))
        host = session.submit(SQL, tag="q0")
        victim = session.submit(SQL, tag="q1")
        other = session.submit(SQL, tag="q2")
        victim.cancel(at=0.05)
        session.run()
        assert victim.status == CANCELLED
        assert host.status == DONE
        assert other.status == DONE
        assert sorted(host.result().rows) == reference_rows[SQL]
        assert sorted(other.result().rows) == reference_rows[SQL]

    def test_cancelling_the_host_detaches_but_taps_keep_flowing(
            self, db, reference_rows):
        session = db.session(options=WorkloadOptions(
            max_concurrent=2, shared=True))
        host = session.submit(SQL, tag="q0")
        survivor = session.submit(SQL, tag="q1")
        host.cancel(at=0.05)
        session.run()
        assert host.status == CANCELLED
        assert survivor.status == DONE
        assert sorted(survivor.result().rows) == reference_rows[SQL]

    @pytest.mark.parametrize("at", [0.01, 0.35])
    def test_cancelling_the_host_keeps_an_interior_edge_flowing(
            self, db, at):
        """transmit -> join, both folded: the survivor rides the host's
        transmit through the host's own edge into the shared join, so
        the host's departure must neither drain that transmit nor stop
        that edge — and the survivor pays half of each operator."""
        sql = "SELECT * FROM A JOIN B ON A.unique2 = B.unique1"
        expected = sorted(db.query(sql).rows)
        session = db.session(options=WorkloadOptions(
            max_concurrent=2, shared=True))
        host = session.submit(sql, tag="q0")
        survivor = session.submit(sql, tag="q1")
        host.cancel(at=at)
        result = session.run()
        assert host.status == CANCELLED
        assert survivor.status == DONE
        assert len(expected) == 200
        assert sorted(survivor.result().rows) == expected
        assert _folded(result.execution("q1")) == {"transmit": 0.5,
                                                   "join": 0.5}


class TestCohortAbort:
    def test_host_fault_aborts_every_subscriber(self, db,
                                                reference_rows):
        """The fault targets only the host's node name; the subscriber
        folded onto it (structural fingerprints ignore names), so its
        failure can only come from the cohort abort."""
        faults = FaultPlan(activations=(
            ActivationFaults(operation="doomed_join", rate=1.0,
                             max_retries=2),))
        session = db.session(options=WorkloadOptions(
            max_concurrent=3, shared=True, faults=faults))
        schema = db.table("A").relation.schema.concat(
            db.table("B").relation.schema)
        host = session.submit_plan(
            named_join(db, "doomed_join"),
            schema, threads=10, tag="qa")
        rider = session.submit_plan(
            named_join(db, "rider_join"),
            schema, threads=10, tag="qb")
        bystander = session.submit(SQL_CD, tag="qc")
        result = session.run()
        assert host.status == FAILED
        assert rider.status == FAILED
        assert bystander.status == DONE
        assert sorted(bystander.result().rows) == reference_rows[SQL_CD]
        aborts = {e.operation: e.data for e in result.bus.events
                  if e.kind == QUERY_ABORT}
        assert set(aborts) == {"qa", "qb"}
        assert "hosted by 'qa'" in aborts["qb"]["error"]


class TestFoldabilityWindow:
    def test_arrival_inside_startup_window_folds(self, db,
                                                 reference_rows):
        session = db.session(options=WorkloadOptions(
            max_concurrent=2, shared=True))
        session.submit(SQL, tag="q0")
        late = session.submit(SQL, tag="q1", at=0.02)
        result = session.run()
        assert _folded(result.execution("q1"))
        assert sorted(late.result().rows) == reference_rows[SQL]

    def test_arrival_past_the_window_stays_private(self, db,
                                                   reference_rows):
        """By t=0.1 the host's pool has delivered rows; a fold would
        miss them, so the late duplicate must run privately — and
        still return the full result."""
        session = db.session(options=WorkloadOptions(
            max_concurrent=2, shared=True))
        session.submit(SQL, tag="q0")
        late = session.submit(SQL, tag="q1", at=0.1)
        result = session.run()
        assert not _folded(result.execution("q1"))
        assert result.execution("q1").total_threads > 0
        assert sorted(late.result().rows) == reference_rows[SQL]


class _Runtime:
    """What the fold registry reads of a runtime: an unbuilt pool."""

    threads = ()
    started_at = 0.0
    shared = None


class TestRetention:
    def test_a_replaced_registry_entry_lets_go_of_its_runtime(self):
        registry = FoldRegistry()
        first = SharedOperator(_Runtime(), "q0", ("scan",), 1.0)
        runtime = weakref.ref(first.runtime)
        assert registry.register(first, 0.0)
        first.dead = True  # its host finished
        assert registry.register(
            SharedOperator(_Runtime(), "q1", ("scan",), 1.0), 0.0)
        del first
        gc.collect()
        assert runtime() is None

    def test_sequential_shared_queries_let_go_of_their_runtimes(
            self, db, monkeypatch):
        """Twenty identical queries one after another: none folds (each
        host has finished when the next is admitted), and by the end
        only the registry's latest entry may still hold a runtime."""
        built, live = [], []
        build_runtimes = Executor.build_runtimes
        assemble = _WorkloadRun._assemble

        def counting_build(executor, *args, **kwargs):
            runtimes = build_runtimes(executor, *args, **kwargs)
            built.extend(weakref.ref(rt) for rt in runtimes.values())
            return runtimes

        def counting_assemble(run):
            gc.collect()
            live.append(sum(ref() is not None for ref in built))
            return assemble(run)

        monkeypatch.setattr(Executor, "build_runtimes", counting_build)
        monkeypatch.setattr(_WorkloadRun, "_assemble", counting_assemble)
        session = db.session(options=WorkloadOptions(
            max_concurrent=1, shared=True))
        for i in range(20):
            session.submit(SQL, tag=f"q{i}")
        session.run()
        assert len(built) == 20
        assert live[0] <= 1

"""A terminal query owns no cycle.

Each case runs with the cycle collector off, builds a run, checks it
ended the way the case is about, and drops it; then the collector is
asked what it would free.  Reference counting must already have freed
every object whose type is defined in ``repro``: the runtime graph
(``OperationRuntime.release`` severs the pool's back-pointers when the
operation completes), the run (its simulator callbacks and consumer
subscriptions and the profiler's method wrappers go when ``run``
returns) and the session (it keeps submissions, not handles).  The
doctored cases put the pool back-reference or the profiler's wrappers
back and show that the census sees them.
"""

import gc
from collections import Counter

import pytest

from repro import (
    DBS3,
    ObservabilityOptions,
    ServingPolicy,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.engine.operation import OperationRuntime
from repro.faults import ActivationFaults, FaultPlan
from repro.machine.machine import Machine
from repro.obs.monitor import default_monitors
from repro.prof import profile
from repro.prof.profiler import EngineProfiler
from repro.serve.harness import run_serving
from repro.workload.session import CANCELLED, DONE, FAILED
from tests.plans import named_join

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"


@pytest.fixture(scope="module")
def db():
    db = DBS3(processors=48)
    db.create_table(generate_wisconsin("A", 1_000, seed=1), "unique1",
                    degree=10)
    db.create_table(generate_wisconsin("B", 100, seed=2), "unique1",
                    degree=10)
    return db


def _cyclic_garbage(case, db) -> Counter:
    """Objects of ``repro`` types that ``case(db)`` leaves to the
    cycle collector, by type name."""
    gc.collect()
    gc.disable()
    try:
        case(db)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("repro."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _query(db):
    assert db.query(SQL).cardinality == 100


def _serving(db):
    result = run_serving(
        rate=300.0, count=60, seed=0, machine=Machine.uniform(processors=8),
        workload=WorkloadOptions(max_concurrent=2, serving=ServingPolicy(
            policy="fifo", queue_limit=30)))
    statuses = {execution.status
                for execution in result.executions.values()}
    assert {"done", "shed", "timed_out"} <= statuses


def _observed(db):
    session = db.session(WorkloadOptions(
        scheduling="adaptive", observability=ObservabilityOptions(
            observe=True, monitors=default_monitors(slo=1e-6))))
    handles = [session.submit(SQL, at=0.01 * i) for i in range(3)]
    assert [handle.result().cardinality for handle in handles] == [100] * 3
    assert session.report().render() and len(session.alerts())


def _cancelled(db):
    session = db.session()
    victim = session.submit(SQL, threads=10)
    victim.cancel(at=0.01)
    assert victim.execution.status == CANCELLED and victim.execution.operations


def _fault_aborted(db):
    faults = FaultPlan(activations=(
        ActivationFaults(operation="doomed_join", rate=1.0, max_retries=2),))
    session = db.session(WorkloadOptions(faults=faults))
    plan = named_join(db, "doomed_join")
    schema = db.table("A").relation.schema.concat(
        db.table("B").relation.schema)
    victim = session.submit_plan(plan, schema, threads=10)
    assert victim.execution.status == FAILED


def _shared_fold(db):
    session = db.session(WorkloadOptions(max_concurrent=2, shared=True))
    host, rider = session.submit(SQL), session.submit(SQL)
    assert rider.execution.total_threads == 0
    assert host.status == rider.status == DONE


def _profiled(db):
    session = db.session(WorkloadOptions(
        observability=ObservabilityOptions(profile=True)))
    handle = session.submit(SQL)
    assert handle.result().cardinality == 100
    assert session.run().profile.nodes


def _ambient_profile(db):
    with profile() as prof:
        _query(db)
    assert prof.nodes


CASES = {"query": _query, "serving": _serving, "observed": _observed,
         "cancelled": _cancelled, "fault_aborted": _fault_aborted,
         "shared_fold": _shared_fold, "profiled": _profiled,
         "ambient_profile": _ambient_profile}


@pytest.mark.parametrize("name", CASES)
def test_a_finished_run_leaves_no_cyclic_garbage(db, name):
    assert _cyclic_garbage(CASES[name], db) == Counter()


def test_the_census_sees_a_pool_back_reference(db, monkeypatch):
    monkeypatch.setattr(OperationRuntime, "release", lambda runtime: None)
    garbage = _cyclic_garbage(_query, db)
    assert garbage["OperationRuntime"] and garbage["WorkerThread"]


def test_the_census_sees_the_profiler_wrappers(db, monkeypatch):
    monkeypatch.setattr(EngineProfiler, "restore", lambda profiler: None)
    garbage = _cyclic_garbage(_profiled, db)
    assert garbage["_WorkloadRun"] and garbage["Simulator"]

"""The control-point seam, white box: a bare run registers no
consumer, and a fault-free run leaves the shared empty-plan injector as
built.

That observers never move the run, in any combination with the engine
features, is relation (a) of ``tests/properties/test_lattice.py``;
this file's workload is one of its examples.
"""

import math
import random

import pytest

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.faults.injector import NO_FAULTS
from repro.obs.bus import QUERY_ADMIT, QUERY_GRANT
from repro.obs.monitor import default_monitors
from repro.workload.engine import QuerySubmission, _WorkloadRun

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"
SQL_CD = "SELECT * FROM C JOIN D ON C.unique1 = D.unique1"
#: Two waves, so the wave barrier has a next wave to feed.
SQL_ABD = ("SELECT * FROM A JOIN B ON A.unique1 = B.unique1 "
           "JOIN D ON A.unique1 = D.unique1")

#: Staggered arrivals inside the foldability window; q1 times out
#: while running: (tag, sql, arrival, timeout).
WORKLOAD = (
    ("q0", SQL, 0.0, None),
    ("q1", SQL, 0.002, 0.06),
    ("q2", SQL_ABD, 0.004, None),
    ("q3", SQL_CD, 0.006, None),
)

@pytest.fixture(scope="module")
def db():
    db = DBS3(processors=16)
    for name, rows, seed in (("A", 600, 1), ("B", 60, 2),
                             ("C", 500, 3), ("D", 50, 4)):
        db.create_table(generate_wisconsin(name, rows, seed=seed),
                        "unique1", degree=8)
    return db


def _options(**knobs):
    # two 8-thread queries contend
    return WorkloadOptions(max_concurrent=2, thread_budget=12, **knobs)


def test_a_bare_run_registers_no_consumer(db):
    compiled = db.compile(SQL)
    submissions = [QuerySubmission(
        "q0", compiled, db.scheduler.schedule(compiled.plan, 8))]
    bare = _WorkloadRun(db.machine, ExecutionOptions(), WorkloadOptions(),
                        submissions)
    assert bare._listeners == {}
    everything = _WorkloadRun(
        db.machine, ExecutionOptions(),
        _options(scheduling="adaptive", observability=ObservabilityOptions(
            observe=True, monitors=default_monitors(slo=0.05))),
        submissions)
    assert everything._listeners


def test_a_fault_free_run_shares_the_empty_plan_injector(db):
    """Without a fault plan the simulator holds :data:`NO_FAULTS`, one
    object for every run — so nothing a run does may write to it: a
    timeout, helper grants and folds all leave its ledger,
    announcements, counters and RNG as built."""
    submissions = []
    for tag, sql, at, timeout in WORKLOAD:
        compiled = db.compile(sql)
        submissions.append(QuerySubmission(
            tag, compiled, db.scheduler.schedule(compiled.plan, 8),
            arrival=at, timeout=timeout))
    run = _WorkloadRun(db.machine, ExecutionOptions(),
                       _options(shared=True), submissions)
    result = run.run()
    reasons = {e.data["reason"] for e in result.bus.events_of(QUERY_GRANT)}
    assert "helpers" in reasons
    assert any("folds" in e.data for e in result.bus.events_of(QUERY_ADMIT))
    assert result.status_of("q1") == "timed_out"
    injector = run.simulator._injector
    assert injector is NO_FAULTS
    assert injector._attempts == {} and injector._announced == set()
    assert injector.next_time_at == math.inf
    assert (injector.rng.getstate()
            == random.Random(injector.plan.seed).getstate())

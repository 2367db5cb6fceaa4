"""The control-point seam: observers never move the run, in combination.

Telemetry (``observe``), monitor rules and the self-profiler are pure
consumers of the workload engine's control points.  Each is checked
alone elsewhere with the other features off; here one fixed workload
runs over the full product observers on/off x engine feature set, and
within a feature set every observer setting must produce the same
workload-bus event list and the same per-query outcome.  A bare run
must not register a single consumer.
"""

import math
import random
from itertools import product

import pytest

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    ServingPolicy,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.faults.injector import NO_FAULTS
from repro.obs.bus import QUERY_ADMIT, QUERY_GRANT, QUERY_REJECT
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

FEATURES = {
    "bare": {},
    "shared": {"shared": True},
    "serving": {"serving": ServingPolicy("edf", queue_limit=1)},
    "adaptive": {"scheduling": "adaptive"},
}

OBSERVERS = list(product((False, True), repeat=3))


@pytest.fixture(scope="module")
def db():
    db = DBS3(processors=16)
    for name, rows, seed in (("A", 600, 1), ("B", 60, 2),
                             ("C", 500, 3), ("D", 50, 4)):
        db.create_table(generate_wisconsin(name, rows, seed=seed),
                        "unique1", degree=8)
    return db


def _options(feature, observe, monitors, profile):
    return WorkloadOptions(
        max_concurrent=2, thread_budget=12,  # two 8-thread queries contend
        observability=ObservabilityOptions(
            observe=observe,
            monitors=default_monitors(slo=0.05) if monitors else (),
            profile=profile),
        **FEATURES[feature])


def _run(db, options):
    session = db.session(options)
    for tag, sql, at, timeout in WORKLOAD:
        session.submit(sql, at=at, tag=tag, threads=8, timeout=timeout)
    return session.run()


def _events(result):
    return [(e.kind, e.t, e.operation, e.data) for e in result.bus.events]


def _outcomes(result):
    return {tag: (e.status, e.response_time, sorted(e.result_rows))
            for tag, e in result.executions.items()}


@pytest.mark.parametrize("feature", FEATURES)
def test_no_observer_combination_moves_the_run(db, feature):
    baseline = _run(db, _options(feature, False, False, False))
    assert baseline.metrics is None and baseline.alerts is None
    for observe, monitors, profile in OBSERVERS[1:]:
        observed = _run(db, _options(feature, observe, monitors, profile))
        setting = (feature, observe, monitors, profile)
        assert _events(observed) == _events(baseline), setting
        assert _outcomes(observed) == _outcomes(baseline), setting
        assert (observed.metrics is not None) == (observe or monitors)
        assert (observed.alerts is not None) == monitors
        assert (observed.profile is not None) == profile


def test_the_feature_sets_exercise_their_features(db):
    """Guards the product test against vacuity: re-grants with helper
    threads, a mid-run timeout, folds and shedding actually happen in
    the runs it compares."""
    bare = _run(db, _options("bare", False, False, False))
    reasons = {e.data["reason"] for e in bare.bus.events_of(QUERY_GRANT)}
    assert {"admission", "regrant", "helpers"} <= reasons
    assert bare.status_of("q1") == "timed_out"
    assert bare.execution("q1").operations  # it was running
    shared = _run(db, _options("shared", False, False, False))
    assert any("folds" in e.data for e in shared.bus.events_of(QUERY_ADMIT))
    serving = _run(db, _options("serving", False, False, False))
    assert serving.bus.events_of(QUERY_REJECT)


def test_a_bare_run_registers_no_consumer(db):
    compiled = db.compile(SQL)
    submissions = [QuerySubmission(
        "q0", compiled, db.scheduler.schedule(compiled.plan, 8))]
    bare = _WorkloadRun(db.machine, ExecutionOptions(), WorkloadOptions(),
                        submissions)
    assert bare._listeners == {}
    everything = _WorkloadRun(
        db.machine, ExecutionOptions(),
        _options("adaptive", True, True, False), submissions)
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
                       _options("shared", False, False, False), submissions)
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

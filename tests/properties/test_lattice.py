"""One lattice property holds every "off changes nothing" promise.

A draw is a small Wisconsin database (degrees on both sides of
``READY_INDEX_MIN_INSTANCES``), statements of the ``compiler/parser.py``
grammar and one point of the option product: every field of the five
option blocks, a seeded fault plan, a bystander cancel or timeout, the
consumption strategy, a uniform or KSR1 machine, bounded queues and a
compiled statement submitted twice.  Through ``db.session()`` every
query that finishes returns what ``sqlite3`` returns and ``audit_run``
finds nothing; the draw's neighbour with one feature off obeys that
feature's relation in :data:`RELATIONS`.  The hand-built tests the
relations replaced live on as examples (:data:`RETIRED`), as do the
draws that found bugs (:data:`FOUND`).  :func:`check` is the body, so
a doctored engine can be shown to fail it.  Tier-1 runs a fixed,
derandomized set of draws (``tests/conftest.py``); ``make fuzz`` runs
thousands.  A falsifying draw prints as a ``Point(...)`` to paste into
:data:`FOUND`.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, reject
from hypothesis import strategies as st

from repro import DBS3, ServingPolicy, WorkloadOptions, generate_wisconsin
from repro.bench.chaos import audit_run, build_adaptive_scenario
from repro.bench.workloads import make_join_database
from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import (PLACEMENTS, ExecutionOptions,
                                   ObservabilityOptions, QuerySchedule)
from repro.engine.operation import READY_INDEX_MIN_INSTANCES
from repro.engine.simulator import Simulator
from repro.engine.strategies import LPT, STRATEGIES
from repro.faults import (ActivationFaults, FaultPlan, MemoryPressure,
                          SlowdownWindow, StallWindow)  # noqa: F401
from repro.faults.injector import NO_FAULTS
from repro.lera.plans import assoc_join_plan
from repro.machine.machine import Machine
from repro.obs.bus import (BLOCK, QUERY_CANCEL, QUERY_GRANT, QUERY_REJECT,
                           QUERY_SUBMIT, SCHEDULE_RESPLIT, SCHEDULE_SWITCH)
from repro.obs.monitor import (AdmissionWaitMonitor,  # noqa: F401
                               LatencySloMonitor, RetryStormMonitor,
                               StragglerMonitor, default_monitors)
from repro.serve.policies import POLICIES as SERVING_POLICIES
from repro.workload.engine import _WorkloadRun
from repro.workload.options import POLICIES
from repro.workload.session import DONE
from tests.oracle import sqlite_rows


@dataclass(frozen=True)
class Table:
    """A Wisconsin relation hash partitioned on ``unique1``."""

    name: str
    rows: int
    seed: int
    degree: int
    index: str | None = None

    def register(self, db):
        db.create_table(generate_wisconsin(self.name, self.rows,
                                           seed=self.seed),
                        "unique1", self.degree)
        if self.index is not None:
            db.create_index(self.name, self.index)


@dataclass(frozen=True)
class SkewedPair:
    """``make_join_database``'s A and B, partitioned on ``key``."""

    card_a: int
    card_b: int
    degree: int
    theta: float

    def register(self, db):
        make_join_database(self.card_a, self.card_b, self.degree,
                           self.theta, catalog=db.catalog)


@dataclass(frozen=True)
class Query:
    """One submission.  ``again`` resubmits the previous query's
    compiled plan and schedule objects; ``plan`` names a hand-built
    plan of :data:`PLANS`, and ``sql`` is then what sqlite3 runs."""

    sql: str
    at: float = 0.0
    threads: int | None = None
    timeout: float | None = None
    cancel_at: float | None = None
    priority: int = 0
    again: bool = False
    plan: str | None = None


@dataclass(frozen=True)
class Point:
    """One point of the lattice.  ``relation`` names the feature its
    neighbour turns off; ``strategy``, ``cache_size`` and
    ``allow_secondary`` override every operation's schedule."""

    tables: tuple
    queries: tuple
    relation: str
    execution: ExecutionOptions = ExecutionOptions()
    workload: WorkloadOptions = WorkloadOptions()
    processors: int = 16
    ksr1: bool = False
    strategy: str | None = None
    cache_size: int | None = None
    allow_secondary: bool = True


def _assoc_join(db):
    a, b = db.table("A"), db.table("B")
    return (assoc_join_plan(a, b, "key", "key"),
            b.relation.schema.concat(a.relation.schema))


#: Hand-built plans a :class:`Query` may name: ``db -> (plan, schema)``.
PLANS = {"assoc_join": _assoc_join,
         "chained_joins": lambda db: build_adaptive_scenario()[1:]}


class Run(NamedTuple):
    result: object
    handles: dict    # tag -> (handle, the statement sqlite3 answers)
    db: DBS3


def _run(point: Point, execution, workload) -> Run:
    machine = (Machine.ksr1 if point.ksr1 else Machine.uniform)(
        processors=point.processors)
    db = DBS3(machine, options=execution)
    for table in point.tables:
        table.register(db)
    session = db.session(workload)
    handles = {}
    for i, query in enumerate(point.queries):
        if not query.again:
            if query.plan is None:
                compiled, schedule = db.prepare(query.sql, query.threads)
            else:
                plan, schema = PLANS[query.plan](db)
                compiled = CompiledQuery(plan, schema, None, query.plan)
                schedule = db.scheduler.schedule(plan, query.threads)
            if point.strategy or point.cache_size or not point.allow_secondary:
                schedule = QuerySchedule({name: replace(
                    op, strategy=point.strategy or op.strategy,
                    cache_size=point.cache_size or op.cache_size,
                    allow_secondary=point.allow_secondary)
                    for name, op in schedule.operations.items()})
        handle = session.submit_compiled(
            compiled, at=query.at, schedule=schedule, tag=f"q{i}",
            timeout=query.timeout, priority=query.priority)
        if query.cancel_at is not None:
            handle.cancel(at=query.cancel_at)
        handles[handle.tag] = handle, query.sql
    return Run(session.run(), handles, db)


# -- the relations ------------------------------------------------------------


def _events(run):
    return run.result.bus.events


def _outcomes(run):
    return (run.result.makespan,
            {tag: (e.status, e.response_time, e.result_rows)
             for tag, e in run.result.executions.items()})


def _counters(run):
    return {tag: {name: (m.polls, m.secondary_accesses, m.dequeue_batches,
                         m.enqueues, m.busy_time, m.idle_time, m.finished_at)
                  for name, m in e.operations.items()}
            for tag, e in run.result.executions.items()}


def _same(main, off, *views):
    for view in views:
        assert view(main) == view(off), view.__name__


def _folded(run):
    return any(m.cost_share < 1.0 for e in run.result.executions.values()
               for m in e.operations.values())


def _observers(point, main, off):
    """(a) Observers move neither the workload bus nor any query; their
    products are there exactly when asked for."""
    _same(main, off, _events, _outcomes)
    wanted = point.workload.observability
    assert (main.result.metrics is not None) == (
        point.execution.observe or wanted.observe or bool(wanted.monitors))
    assert (main.result.alerts is not None) == bool(wanted.monitors)
    assert (main.result.profile is not None) == wanted.profile
    assert off.result.metrics is off.result.alerts is off.result.profile \
        is None
    return True


def _faults(point, main, off):
    """(b) An empty plan is no plan, counter for counter."""
    _same(main, off, _events, _outcomes, _counters)
    return True


def _serving(point, main, off):
    """(c) ``ServingPolicy()`` is no serving block."""
    _same(main, off, _outcomes)
    return True


def _adaptive(point, main, off):
    """(d) A controller that decided nothing is the static run."""
    assert off.result.decisions is None
    if len(main.result.decisions):
        return False
    _same(main, off, _outcomes)
    assert not main.result.bus.events_of(SCHEDULE_RESPLIT)
    assert not main.result.bus.events_of(SCHEDULE_SWITCH)
    return True


def _sharing(point, main, off):
    """(e) A shared run whose queries share no subplan is the private
    run (where a fold was on offer, only the rows are held: sqlite3's)."""
    assert not _folded(off)
    prints = [{f for f in handle.compiled.plan.fingerprints().values() if f}
              for handle, _ in main.handles.values()]
    if any(a & b for i, a in enumerate(prints) for b in prints[i + 1:]):
        return False
    assert not _folded(main)
    _same(main, off, _outcomes)
    return True


_NO_OBSERVERS = ObservabilityOptions()

#: relation -> (the neighbour's ``(execution, workload)``, the check,
#: which returns whether its premise held).
RELATIONS = {
    "a": (lambda p: (replace(p.execution, observability=_NO_OBSERVERS),
                     replace(p.workload, observability=_NO_OBSERVERS)),
          _observers),
    "b": (lambda p: (p.execution, replace(p.workload, faults=None)), _faults),
    "c": (lambda p: (p.execution, replace(p.workload, serving=None)),
          _serving),
    "d": (lambda p: (p.execution, replace(p.workload, scheduling="static")),
          _adaptive),
    "e": (lambda p: (p.execution, replace(p.workload, shared=False)),
          _sharing),
}


def _answers(run, oracle):
    """The run passes the audit; every done query's rows are sqlite3's."""
    assert audit_run(run.result, len(run.handles)) == []
    relations = [entry.relation for entry in run.db.catalog]
    for tag, (handle, sql) in run.handles.items():
        if handle.status == DONE:
            if sql not in oracle:
                oracle[sql] = sqlite_rows(relations, sql)
            assert Counter(handle.result().rows) == oracle[sql], tag


def _corners(point, run) -> set[str]:
    executions = run.result.executions.values()
    worked = [m for e in executions for m in e.operations.values()
              if m.activations]
    ends = {(e.status, bool(e.operations)) for e in executions}
    grants = {e.data["reason"] for e in run.result.bus.events_of(QUERY_GRANT)}
    done = {tag for tag, (h, _) in run.handles.items() if h.status == DONE}
    reached = {
        "index": any(m.instances >= READY_INDEX_MIN_INSTANCES for m in worked),
        "scan": any(m.instances < READY_INDEX_MIN_INSTANCES for m in worked),
        "sliced": any(e.dilation > 1.0 for e in executions),
        "ksr1": point.ksr1 and bool(done),
        "lpt": any(m.strategy == LPT for m in worked),
        "blocked": any(e.obs and e.obs.events_of(BLOCK) for e in executions),
        "regrant": "regrant" in grants,
        "helpers": "helpers" in grants,
        "fold": _folded(run),
        "shed": ("shed", False) in ends,
        "timeout": ("timed_out", True) in ends,
        "cancel": ("cancelled", True) in ends,
        "retry": any(m.fault_retries for m in worked),
        "again": any(q.again and f"q{i}" in done
                     for i, q in enumerate(point.queries)),
        "all done": len(done) == len(point.queries),
    }
    return {corner for corner, hit in reached.items() if hit}


#: What the workload engine emits at an arrival or deadline instant.
CONTROL_EVENTS = (QUERY_SUBMIT, QUERY_CANCEL, QUERY_REJECT)


def _known_bug(run) -> bool:
    """The open FOUND line of CHANGES.md: an arrival or deadline
    applied after a query finish the event loop stamped past it (an
    operation's last step started at or before the instant and its
    finalize ended after it)."""
    latest = 0.0
    for event in run.result.bus.events:
        if event.t < latest - 1e-9 and event.kind in CONTROL_EVENTS:
            return True
        latest = max(latest, event.t)
    return False


def check(point: Point) -> set[str]:
    """The property on one point; returns the corners it reached."""
    neighbour, relation = RELATIONS[point.relation]
    main = _run(point, point.execution, point.workload)
    off = _run(point, *neighbour(point))
    if _known_bug(main) or _known_bug(off):
        reject()
    oracle = {}
    _answers(main, oracle)
    _answers(off, oracle)
    corners = _corners(point, main)
    if relation(point, main, off):
        corners.add(f"relation {point.relation}")
    return corners


# -- the strategy -------------------------------------------------------------

ATTRIBUTES = ("unique2", "two", "four", "ten", "twenty", "onePercent",
              "tenPercent", "twentyPercent", "fiftyPercent", "unique3",
              "evenOnePercent", "oddOnePercent")
COLUMNS = ("unique1",) + ATTRIBUTES
#: Operator names the grammar's plans use (the fault plans' targets).
OPERATIONS = ("filter", "index_scan", "transmit", "join", "aggregate",
              "join1", "store1", "join2")


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def _where(draw, qualifier=""):
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        column = draw(st.sampled_from(COLUMNS))
        value = draw(st.integers(-2, 420 if "unique" in column else 101))
        op = draw(st.sampled_from(("<", "<=", ">", ">=", "=", "<>")))
        half = draw(st.sampled_from(("", "", "", ".5")))
        terms.append(f"{qualifier}{column} {op} {value}{half}")
    return " WHERE " + " AND ".join(terms)


@st.composite
def statements(draw, tables):
    """A selection or projection, a key or non-key join (filtered on an
    operand whose partner is partitioned on its key), a chain, or an
    aggregate with or without ``GROUP BY``."""
    names = [table.name for table in tables]
    kind = draw(st.sampled_from(("select", "aggregate", "join", "join",
                                 "chain")))
    where = draw(st.one_of(st.just(""), _where()))
    if kind == "select":
        columns = draw(st.lists(st.sampled_from(COLUMNS), max_size=3))
        return (f"SELECT {', '.join(columns) or '*'} "
                f"FROM {draw(st.sampled_from(names))}{where}")
    if kind == "aggregate":
        items = [draw(st.sampled_from(("COUNT(*)", "COUNT({})", "SUM({})",
                                       "MIN({})", "MAX({})", "AVG({})"))
                      ).format(draw(st.sampled_from(COLUMNS)))
                 for _ in range(draw(st.integers(1, 3)))]
        group = draw(_maybe(st.sampled_from(ATTRIBUTES[1:5])))
        if group is not None:
            items.insert(draw(st.integers(0, len(items))), group)
            where += f" GROUP BY {group}"
        return (f"SELECT {', '.join(items)} "
                f"FROM {draw(st.sampled_from(names))}{where}")
    if kind == "chain" and tables[0].degree == tables[1].degree:
        via = draw(st.sampled_from(("A.unique1", "B.unique1", "A.ten")))
        return ("SELECT * FROM A JOIN B ON A.unique1 = B.unique1 "
                f"JOIN C ON {via} = C.unique1")
    left, right = draw(st.permutations(names))[:2]
    keys = draw(st.sampled_from([("unique1", "unique1")]
                                + [(a, "unique1") for a in ATTRIBUTES[:5]]
                                + [("unique1", a) for a in ATTRIBUTES[:5]]))
    filterable = [side for side, key in ((left, keys[1]), (right, keys[0]))
                  if key == "unique1"]
    where = draw(st.one_of(st.just(""), _where(
        f"{draw(st.sampled_from(filterable))}.")))
    columns = draw(st.lists(st.sampled_from(
        [f"{n}.{c}" for n in (left, right) for c in COLUMNS]), max_size=3))
    return (f"SELECT {', '.join(columns) or '*'} FROM {left} JOIN {right} "
            f"ON {left}.{keys[0]} = {right}.{keys[1]}{where}")


@st.composite
def points(draw):
    relation = draw(st.sampled_from(sorted(RELATIONS)))
    degree = draw(st.one_of(st.integers(2, 12), st.integers(
        READY_INDEX_MIN_INSTANCES, READY_INDEX_MIN_INSTANCES + 24)))
    seeds = st.integers(0, 9)
    tables = (
        Table("A", draw(st.integers(60, 400)), draw(seeds), degree,
              draw(st.sampled_from((None, None, "unique2", "ten")))),
        Table("B", draw(st.integers(10, 120)), draw(seeds),
              draw(st.one_of(st.just(degree), st.integers(2, 12)))),
        Table("C", draw(st.integers(10, 120)), draw(seeds),
              draw(st.integers(2, 12))))
    instants = st.integers(0, 30).map(lambda ms: ms / 1000)
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        sql = draw(statements(tables))
        queries.append(Query(sql, draw(instants),
                             draw(_maybe(st.integers(1, 16))),
                             priority=draw(st.integers(0, 2))))
        if "JOIN C" not in sql and draw(st.integers(0, 3)) == 0:
            queries.append(replace(queries[-1], at=draw(instants), again=True))
    i, wait = draw(st.integers(0, len(queries) - 1)), draw(st.integers(1, 200))
    queries[i] = replace(queries[i], **(
        {"timeout": wait / 1000} if draw(st.booleans())
        else {"cancel_at": queries[i].at + wait / 1000}))
    seed = draw(st.integers(0, 2**16))
    faults = draw(st.sampled_from((None, FaultPlan(seed=seed), "generate")))
    if relation == "b":
        faults = FaultPlan(seed=seed)
    elif faults == "generate":
        faults = FaultPlan.generate(seed, OPERATIONS,
                                    horizon=draw(st.sampled_from((0.05, 0.2))))
    per_query, observe, monitors, profile = draw(st.tuples(*[st.booleans()] * 4))
    if relation == "a" and not (per_query or observe or monitors or profile):
        observe = True
    execution = ExecutionOptions(
        placement=draw(st.sampled_from(PLACEMENTS)),
        queue_capacity=draw(_maybe(st.integers(1, 6))),
        seed=draw(st.integers(0, 3)),
        observability=ObservabilityOptions(observe=per_query))
    serving = draw(_maybe(st.builds(ServingPolicy,
                                    st.sampled_from(SERVING_POLICIES),
                                    _maybe(st.integers(1, 3)))))
    workload = WorkloadOptions(
        max_concurrent=draw(st.integers(1, 4)),
        thread_budget=draw(_maybe(st.integers(1, 32))),
        shared=relation == "e" or draw(st.booleans()),
        scheduling="adaptive" if relation == "d"
        else draw(st.sampled_from(POLICIES)),
        observability=ObservabilityOptions(
            observe=observe, profile=profile,
            monitors=default_monitors(slo=0.05) if monitors else ()),
        faults=faults,
        serving=ServingPolicy() if relation == "c" else serving)
    allow_secondary = draw(st.booleans())
    # One-slot queues and join threads that may not steal deadlock, a
    # known hang (tests/engine/test_robustness.py::TestDeadlockDetection).
    assume(allow_secondary or execution.queue_capacity is None)
    return Point(tables, tuple(queries), relation, execution, workload,
                 draw(st.integers(2, 24)), draw(st.booleans()),
                 draw(st.sampled_from((None, *STRATEGIES))),
                 draw(_maybe(st.integers(1, 8))), allow_secondary)


# -- the retired hand-built tests, and the draws that found bugs ---------------

AB = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"
CD = "SELECT * FROM C JOIN D ON C.unique1 = D.unique1"
AD = "SELECT * FROM A JOIN D ON A.unique1 = D.unique1"
ABD = AB + " JOIN D ON A.unique1 = D.unique1"


def _wisconsin(degree, *sizes):
    return tuple(Table(name, rows, seed, degree)
                 for name, rows, seed in zip("ABCD", sizes, (1, 2, 3, 4)))


def _observed(monitors=False, profile=False, **workload):
    return WorkloadOptions(**workload, observability=ObservabilityOptions(
        observe=True, profile=profile,
        monitors=default_monitors(slo=0.05) if monitors else ()))


#: test_control_points' four queries: staggered, q1 times out while
#: running, q2 has a second wave; two 8-thread queries contend.
CONTROL = (Query(AB, threads=8), Query(AB, 0.002, 8, timeout=0.06),
           Query(ABD, 0.004, 8), Query(CD, 0.006, 8))
FEATURES = {"bare": ({}, {"regrant", "helpers", "timeout"}),
            "shared": ({"shared": True}, {"fold"}),
            "serving": ({"serving": ServingPolicy("edf", queue_limit=1)},
                        {"shed"}),
            "adaptive": ({"scheduling": "adaptive"}, set())}
CHAOS_TABLES = _wisconsin(20, 2_000, 200, 1_500, 150)

#: Retired test -> (its workload as a point, the corners the check must
#: reach on it: the relation's premise and what the test asserted).
RETIRED = {
    **{f"test_control_points.py::test_no_observer_combination_moves_the_run"
       f"[{name}] observe={o} monitors={m} profile={p}": (
           Point(_wisconsin(8, 600, 60, 500, 50), CONTROL, "a",
                 workload=WorkloadOptions(
                     max_concurrent=2, thread_budget=12,
                     observability=ObservabilityOptions(
                         observe=o, profile=p,
                         monitors=default_monitors(slo=0.05) if m else ()),
                     **knobs)), {"relation a", *corners})
       for name, (knobs, corners) in FEATURES.items()
       for o in (False, True) for m in (False, True) for p in (False, True)
       if o or m or p},
    "test_telemetry.py::TestDisabledMode::test_event_stream_bit_identical": (
        Point(_wisconsin(10, 1_000, 100, 800, 80),
              tuple(Query(sql, i * 0.005)
                    for i, sql in enumerate((AB, CD, AD, AB))),
              "a", workload=_observed(), processors=48), {"relation a"}),
    "test_injection.py::TestFaultFreeParity::"
    "test_empty_plan_bit_identical_to_no_plan": (
        Point((SkewedPair(2_000, 200, 20, 0.0),),
              (Query("SELECT * FROM B JOIN A ON B.key = A.key", threads=8,
                     plan="assoc_join"),),
              "b", workload=WorkloadOptions(faults=FaultPlan(seed=3))),
        {"relation b", "all done"}),
    "test_serving.py::TestEscapeHatch": (
        Point(_wisconsin(8, 600, 60),
              tuple(Query(AB, i * 0.01, 8) for i in range(4)), "c",
              ExecutionOptions(observability=ObservabilityOptions(
                  observe=True)),
              WorkloadOptions(max_concurrent=2, serving=ServingPolicy())),
        {"relation c", "all done"}),
    "test_adaptive_policy.py::TestEscapeHatch": (
        Point(CHAOS_TABLES, (Query(
            AB + " JOIN C ON A.unique1 = C.unique1"
            " JOIN D ON A.unique1 = D.unique1", threads=10,
            plan="chained_joins"),), "d",
            workload=WorkloadOptions(scheduling="adaptive"), processors=48),
        {"relation d", "all done"}),
    "test_sharing.py::TestDisjointParity": (
        Point(CHAOS_TABLES, (Query(AB), Query(CD)), "e",
              workload=WorkloadOptions(max_concurrent=2, shared=True),
              processors=48), {"relation e", "all done"}),
    # Vacuous as written (WorkloadOptions() == WorkloadOptions(shared=False));
    # here the duplicate folds, so the example holds folding to sqlite3.
    "test_sharing.py::TestEscapeHatch": (
        Point(CHAOS_TABLES, (Query(AB), Query(CD), Query(AB)), "e",
              workload=WorkloadOptions(shared=True), processors=48),
        {"fold", "all done"}),
}

_SMALL = (Table("A", 60, 0, 2), Table("B", 10, 0, 2), Table("C", 10, 0, 2))
_FOLDED = ("FROM B JOIN A ON B.unique1 = A.unique2 "
           "WHERE A.fiftyPercent <= 16 AND A.ten <> 62")

_AB2 = "SELECT * FROM A JOIN B ON A.unique2 = B.unique1"
#: A host cancelled while a query rode its join: the join detached and
#: went on for the rider, but the thread finishes it had recorded
#: before stayed on the host's stream, splitting the operator.
SPLIT_FINISHES = Point(
    _SMALL, (Query(_AB2, cancel_at=0.038), Query(_AB2, again=True)), "e",
    ExecutionOptions(observability=ObservabilityOptions(observe=True)),
    WorkloadOptions(max_concurrent=2, shared=True), processors=6,
    allow_secondary=False)

#: Draws the property falsified, each kept once its bug was fixed.
FOUND = (
    # A fully folded query queued for the start-up thread behind a
    # chain's start-up and finished past the event loop's clock: the
    # workload bus ran backwards.
    Point(_SMALL, (Query("SELECT * FROM A"), Query("SELECT * FROM A", 0.001),
                   Query(AB + " JOIN C ON A.unique1 = C.unique1")), "e",
          workload=WorkloadOptions(shared=True), processors=2),
    # EDF took a queued shared job's start-up as 0.0, so it never shed
    # one its deadline had already doomed, as the private run did.
    Point(_SMALL, (Query("SELECT * FROM A", cancel_at=0.001),
                   Query("SELECT * FROM B")), "e",
          workload=WorkloadOptions(max_concurrent=1, shared=True,
                                   serving=ServingPolicy("edf")),
          processors=2),
    # q1 hosts the aggregate q2 rides on and rides q0's filter itself;
    # cancelling q1 cut the filter's edge into that aggregate, whose
    # input then never closed: q2 hung.
    Point(_SMALL, (Query("SELECT * FROM B"),
                   Query("SELECT COUNT(*) FROM B", cancel_at=0.001),
                   Query("SELECT COUNT(*) FROM B")), "e",
          workload=WorkloadOptions(max_concurrent=3, shared=True),
          processors=2),
    # Cancelling a host while a query rode its operator left the
    # operator's thread finishes on the host's stream, where no
    # appearance of the operator could place them.
    Point(_SMALL, (Query("SELECT * FROM A", cancel_at=0.001),
                   Query("SELECT * FROM A")), "e",
          ExecutionOptions(observability=ObservabilityOptions(observe=True)),
          WorkloadOptions(shared=True), processors=2),
    # SELECT * over an AssocJoin that streams the FROM table listed
    # the streamed operand's columns first.
    Point((Table("A", 300, 1, 100), Table("B", 60, 2, 6)), (Query(AB),), "a",
          workload=_observed()),
    # SUM over no row was 0.0; SQL says NULL.
    Point(_SMALL, (Query("SELECT SUM(unique1), COUNT(*) FROM B "
                         "WHERE ten = 30"),), "a", workload=_observed()),
    # The fault-accounting audit summed a folded operation's faults
    # once per query riding it.
    Point((Table("A", 337, 0, 7), Table("B", 66, 0, 8),
           Table("C", 103, 0, 11)),
          (Query("SELECT * " + _FOLDED),
           Query("SELECT A.unique2 " + _FOLDED, 0.022),
           Query("SELECT unique1 FROM B", 0.02, timeout=0.127)), "e",
          ExecutionOptions(queue_capacity=3),
          _observed(shared=True, scheduling="adaptive", faults=FaultPlan(
              seed=619, slowdowns=(SlowdownWindow(
                  0.018499438492388824, 0.03531916912537121,
                  2.316385732486596),),
              memory=(MemoryPressure(0.01563809973180576,
                                     0.33561217882303634),),
              activations=(ActivationFaults(
                  "join", 0.022567287085295665, 25,
                  0.0028956907473355084, 0.08),))),
          processors=10, strategy=LPT, cache_size=5),
    SPLIT_FINISHES,
)

#: A tier-1 draw kept as an example: no retired test or found bug
#: reaches ``blocked``, ``cancel``, ``ksr1`` or ``sliced``, and with it
#: the corner check holds on the examples alone, whatever draws
#: hypothesis derandomizes to.
_AC = "SELECT C.unique1, C.twenty FROM A JOIN C ON "
CORNER_DRAW = Point(
    (Table("A", 232, 5, 106), Table("B", 93, 0, 106), Table("C", 29, 8, 8)),
    (Query("SELECT * FROM B JOIN C ON B.twenty = C.unique1", 0.02,
           cancel_at=0.191, priority=1),
     Query(_AC + "A.two = C.unique1 WHERE A.evenOnePercent >= 38", 0.026,
           priority=1),
     Query(_AC + "A.ten = C.unique1", 0.025, 10, priority=2),
     Query(_AC + "A.unique1 = C.unique2 WHERE C.onePercent <> 47", 0.025, 6)),
    "c", ExecutionOptions(placement="warm", queue_capacity=4, seed=2,
                          observability=ObservabilityOptions(observe=True)),
    _observed(monitors=True, profile=True, max_concurrent=1, shared=True,
              scheduling="adaptive", faults=FaultPlan(seed=1),
              serving=ServingPolicy()),
    processors=6, ksr1=True, strategy="random", cache_size=5)

#: Draws the property still falsifies, one per open FOUND line of
#: CHANGES.md.  Each test below fails until its defect is fixed; then
#: strict ``xfail`` fails it, and the draw moves to :data:`FOUND`.
FINISH_BACKWARDS = Point(
    (Table("A", 135, 0, 96), Table("B", 77, 0, 4), Table("C", 61, 0, 10)),
    (Query(AB, threads=4, cancel_at=0.001), Query(AB, threads=4, again=True),
     Query("SELECT * FROM B JOIN C ON B.ten = C.unique1 "
           "WHERE B.twenty < 11.5"),
     Query("SELECT * FROM A"), Query("SELECT * FROM A", again=True)), "d",
    workload=WorkloadOptions(max_concurrent=2, scheduling="adaptive"),
    processors=8)


def test_a_host_cancelled_under_a_rider_keeps_one_finish_stream():
    check(SPLIT_FINISHES)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: the lattice property lets a finish-order defect through "
    "when no arrival or deadline is involved (a query.finish goes "
    "backwards)"))
def test_query_finishes_never_go_backwards():
    check(FINISH_BACKWARDS)


#: What the property must reach over the tier-1 example set.
CORNERS = {"index", "scan", "sliced", "ksr1", "lpt", "blocked", "regrant",
           "helpers", "fold", "shed", "timeout", "cancel", "retry", "again",
           *(f"relation {name}" for name in RELATIONS)}

#: ``(point, corners)`` of every point the property checked.
REACHED = []


#: The points tier-1 always checks: every retired test and found bug,
#: and the corner draw.
EXAMPLES = (*(point for point, _ in RETIRED.values()), *FOUND, CORNER_DRAW)


def _examples(test):
    for point in EXAMPLES:
        test = example(point)(test)
    return test


@_examples
@given(points())
def test_lattice(point):
    REACHED.append((point, check(point)))


def _examples_reached() -> list:
    """:data:`REACHED`, plus a check of every example it lacks (this
    test alone, or after a draw stopped ``test_lattice`` early), so a
    failing draw fails once."""
    checked = {id(point) for point, _ in REACHED}
    return REACHED + [(point, check(point)) for point in EXAMPLES
                      if id(point) not in checked]


def test_the_examples_reach_every_corner():
    reached_by = _examples_reached()
    reached = set().union(*(corners for _, corners in reached_by))
    assert CORNERS <= reached, sorted(CORNERS - reached)
    for name, (point, needed) in RETIRED.items():
        corners = next(c for p, c in reached_by if p is point)
        assert needed <= corners, name


def test_the_corner_check_checks_the_examples_it_lacks(monkeypatch):
    point = FOUND[0]
    monkeypatch.setitem(globals(), "REACHED", [(point, check(point))])
    test_the_examples_reach_every_corner()


# -- doctored engines: the check must fail -------------------------------------

OBSERVED = RETIRED["test_telemetry.py::TestDisabledMode::"
                   "test_event_stream_bit_identical"][0]
FAULT_FREE = RETIRED["test_injection.py::TestFaultFreeParity::"
                     "test_empty_plan_bit_identical_to_no_plan"][0]


def test_an_observer_that_moves_an_event_is_caught(monkeypatch):
    original = _WorkloadRun.run

    def shifted(run):
        result = original(run)
        if run.workload.observability.observe:
            last = result.bus.events[-1]
            result.bus.events[-1] = last._replace(
                t=math.nextafter(last.t, math.inf))
        return result
    monkeypatch.setattr(_WorkloadRun, "run", shifted)
    with pytest.raises(AssertionError, match="_events"):
        check(OBSERVED)


def test_an_empty_plan_that_draws_is_caught(monkeypatch):
    original = Simulator.__init__

    def drawing(simulator, machine, seed, injector, *args):
        original(simulator, machine, seed, injector, *args)
        if injector is not NO_FAULTS and not injector.plan.activations:
            simulator.rng.random()
    monkeypatch.setattr(Simulator, "__init__", drawing)
    with pytest.raises(AssertionError):
        check(FAULT_FREE)


def test_a_dropped_row_is_caught(monkeypatch):
    original = CompiledQuery.shape_rows
    monkeypatch.setattr(CompiledQuery, "shape_rows",
                        lambda compiled, rows: original(compiled, rows)[1:])
    with pytest.raises(AssertionError, match="q0"):
        check(OBSERVED)

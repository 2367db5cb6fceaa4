"""The five workloads: seeded inputs, one op, and its correctness check.

Each workload is three functions over a state object:

* ``setup(seed, scale, spans)`` builds everything an op needs from the
  seed — and nothing the simulator could learn the seed from;
* ``op(state, spans)`` runs one op through the library's front door.
  With ``spans=None`` (every end-to-end measurement) it is the plain
  public call; with a :class:`Spans` recorder it makes the same calls
  stage by stage so each layer's share is timed from outside;
* ``check(state, outcome)`` returns the list of correctness problems of
  one op's outcome (empty = correct).  It runs outside the timed region
  and leans on oracles the repo did not write: stdlib ``sqlite3`` for
  SQL, a dict join written here for the plan workloads.  A fact that is
  costly to derive (the serving decision digest) is added to
  ``outcome.extra`` here rather than inside the timed op.

Sizes are the issue's; ``scale.divisor`` shrinks them for the smoke
test only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sqlite3
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro import (
    DBS3,
    ExecutionOptions,
    Fragment,
    Machine,
    ObservabilityOptions,
    Relation,
    ServingPolicy,
    WorkloadExecutor,
    WorkloadOptions,
    assoc_join_plan,
    generate_wisconsin,
    ideal_join_plan,
    zipf_cardinalities,
)
from repro.bench.runners import chain_worst_time
from repro.bench.workloads import JOIN_SCHEMA, JoinDatabase
from repro.compiler import normalize, parallelize, parse
from repro.diag.critical_path import critical_path
from repro.obs.export import jsonl_records, verify_against_metrics
from repro.obs.monitor import default_monitors
from repro.obs.spans import verify_spans
from repro.serve.arrivals import make_arrival_process
from repro.serve.harness import (
    build_submissions,
    decision_digest,
    default_templates,
    run_serving,
    serving_stats,
)


@dataclass(frozen=True)
class Scale:
    name: str
    divisor: int


FULL = Scale("full", 1)
#: Twenty times smaller inputs: for ``test_smoke.py`` only, never compared.
SMOKE = Scale("smoke", 20)


class Spans:
    """Outside spans: name, start, end and the span that caused it.

    Kept in memory for the whole traced pass; :meth:`totals` folds them
    into per-name call counts, total time and self time (total minus
    the part child spans cover).
    """

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or None]
        self.records: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        record = [name, time.perf_counter_ns(), 0, parent]
        self.records.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, total_ns, self_ns]."""
        child_ns = [0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict[str, list[int]] = {}
        for index, (name, start, end, _) in enumerate(self.records):
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[index]
        return totals


_UNTRACED = contextlib.nullcontext()


def _span(spans: Spans | None, name: str):
    return _UNTRACED if spans is None else spans(name)


@dataclass
class Outcome:
    """What one op produced: the simulated facts plus what check needs."""

    executions: list
    """Every submitted query's ``QueryExecution``, terminal or not."""
    makespan: float
    """Virtual seconds (summed where the op's queries each ran alone)."""
    payload: object = None
    extra: dict = field(default_factory=dict)
    """Workload-specific exact facts: per-layer values (``serve.*``,
    ``obs.*``) and the serving decision digest.  Like every simulated
    fact they must repeat op after op."""
    sample_s: list[float] | None = None
    """Wall seconds of the op's parts, where the op is many short
    requests (the latency sample is then per request, not per op)."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    op: Callable
    check: Callable
    #: Optional ``extras(state) -> dict`` of per-layer values that need
    #: runs of their own (traced pass only, untimed).
    extras: Callable | None = None


def _machine(processors: int = 70) -> Machine:
    # 70 of the KSR1's 72 processors, as the paper's join experiments.
    return Machine.uniform(processors=processors)


# -- join workloads ----------------------------------------------------------

def _fragments(name: str, cardinalities: list[int], payload_base: int):
    """Fragment ``i`` holds keys ``i, i + degree, ...`` — a legal hash
    partitioning on ``key``, as ``repro.bench.workloads`` builds it."""
    degree = len(cardinalities)
    fragments, rows_all = [], []
    for i, count in enumerate(cardinalities):
        rows = [(i + degree * j, payload_base + i + degree * j)
                for j in range(count)]
        fragments.append(Fragment(name, i, JOIN_SCHEMA, rows))
        rows_all.extend(rows)
    return Relation(name, JOIN_SCHEMA, rows_all), fragments


def build_join_database(db: DBS3, card_a: int, card_b: int, degree: int,
                        theta: float, seed: int,
                        spans: Spans | None) -> JoinDatabase:
    """Skewed A, uniform B', co-partitioned, registered in *db*.

    The paper's Zipf law fixes the fragment cardinalities; *which*
    fragment holds which rank is the seeded input.
    """
    with _span(spans, "storage.generate"):
        cards_a = zipf_cardinalities(card_a, degree, theta)
        random.Random(seed).shuffle(cards_a)
        cards_b = zipf_cardinalities(card_b, degree, 0.0)
        relation_a, fragments_a = _fragments("A", cards_a, 0)
        relation_b, fragments_b = _fragments("B", cards_b, 1_000_000_000)
    with _span(spans, "storage.partition"):
        entry_a = db.create_table_from_fragments(relation_a, "key",
                                                 fragments_a)
        entry_b = db.create_table_from_fragments(relation_b, "key",
                                                 fragments_b)
    return JoinDatabase(entry_a, entry_b, theta)


def dict_join(rows_a, rows_b) -> Counter:
    """The outside oracle for the plan workloads: an equi-join on the
    first column, as a multiset of concatenated rows."""
    by_key: dict = {}
    for row in rows_b:
        by_key.setdefault(row[0], []).append(row)
    joined: Counter = Counter()
    for row in rows_a:
        for match in by_key.get(row[0], ()):
            joined[row + match] += 1
    return joined


@dataclass
class JoinState:
    db: DBS3
    database: JoinDatabase
    builders: tuple
    threads: int
    expected: Counter | None = None

    def expected_rows(self) -> Counter:
        if self.expected is None:
            self.expected = dict_join(self.database.entry_a.relation.rows,
                                      self.database.entry_b.relation.rows)
        return self.expected


def _join_setup(card_a: int, card_b: int, degree: int, theta: float,
                builders: tuple):
    def setup(seed: int, scale: Scale, spans: Spans | None) -> JoinState:
        db = DBS3(machine=_machine(), options=ExecutionOptions(seed=seed))
        database = build_join_database(
            db, card_a // scale.divisor, card_b // scale.divisor, degree,
            theta, seed, spans)
        return JoinState(db, database, builders, threads=20)
    return setup


def _submit_join(state: JoinState, session, builder, spans: Spans | None):
    entry_a, entry_b = state.database.entry_a, state.database.entry_b
    with _span(spans, "lera.plan_build"):
        plan = builder(entry_a, entry_b, "key", "key")
    with _span(spans, "scheduler.schedule"):
        schedule = state.db.scheduler.schedule(plan, state.threads)
    return session.submit_plan(plan, JOIN_SCHEMA, schedule=schedule)


def _join_op(state: JoinState, spans: Spans | None = None) -> Outcome:
    """Each builder's query alone in its own session."""
    results = []
    for builder in state.builders:
        session = state.db.session()
        handle = _submit_join(state, session, builder, spans)
        with _span(spans, "workload.execute"):
            session.run()
        with _span(spans, "core.result"):
            results.append(handle.result())
    executions = [result.execution for result in results]
    return Outcome(executions,
                   makespan=sum(e.response_time for e in executions),
                   payload=results)


def _check_join_rows(state: JoinState, rows, label: str) -> list[str]:
    expected = state.expected_rows()
    count = sum(expected.values())
    if count != state.database.expected_matches:
        return [f"{label}: oracle {count} rows != expected_matches "
                f"{state.database.expected_matches}"]
    if len(rows) != count:
        return [f"{label}: {len(rows)} rows, oracle has {count}"]
    # The probing side's columns come first, so AssocJoin emits B' + A
    # and IdealJoin A + B'; B' payloads are the ones >= 1e9.
    a_first = [row if row[1] < row[3] else row[2:] + row[:2] for row in rows]
    if Counter(a_first) != expected:
        return [f"{label}: rows differ from the dict-join oracle"]
    return []


def _check_join(state: JoinState, outcome: Outcome) -> list[str]:
    problems = []
    for index, result in enumerate(outcome.payload):
        problems += _check_join_rows(state, result.rows, f"query {index}")
    return problems


def _check_triggered(state: JoinState, outcome: Outcome) -> list[str]:
    """Row check plus the paper's section 4.1 bounds on the skewed join."""
    problems = _check_join(state, outcome)
    for index, execution in enumerate(outcome.executions):
        worst = chain_worst_time(execution)
        if execution.response_time > worst * (1 + 1e-9):
            problems.append(
                f"query {index}: response {execution.response_time} exceeds "
                f"eq. 2 Tworst {worst}")
        speedup = execution.work / execution.response_time
        ceiling = execution.operation("join").profile().nmax
        if speedup > ceiling * (1 + 1e-9):
            problems.append(
                f"query {index}: speed-up {speedup} above nmax {ceiling}")
    return problems


# -- sql_short ---------------------------------------------------------------

@dataclass
class SqlState:
    db: DBS3
    statements: list[str]
    relations: tuple
    expected: dict[str, Counter] | None = None

    def expected_rows(self) -> dict[str, Counter]:
        """Every distinct statement's rows according to sqlite3."""
        if self.expected is None:
            connection = sqlite3.connect(":memory:")
            try:
                for relation in self.relations:
                    names = relation.schema.names
                    connection.execute(
                        f"CREATE TABLE {relation.name} "
                        f"({', '.join(f'{n} INTEGER' for n in names)})")
                    connection.executemany(
                        f"INSERT INTO {relation.name} VALUES "
                        f"({', '.join('?' * len(names))})", relation.rows)
                self.expected = {
                    sql: Counter(connection.execute(sql).fetchall())
                    for sql in set(self.statements)}
            finally:
                connection.close()
        return self.expected


def _sql_setup(seed: int, scale: Scale, spans: Spans | None) -> SqlState:
    card_a, card_b = 10_000 // scale.divisor, 1_000 // scale.divisor
    cycles = max(40 // scale.divisor, 2)
    db = DBS3(machine=_machine(), options=ExecutionOptions(seed=seed))
    with _span(spans, "storage.generate"):
        a = generate_wisconsin("A", card_a, seed=2 * seed + 1)
        b = generate_wisconsin("B", card_b, seed=2 * seed + 2)
    with _span(spans, "storage.partition"):
        # Degree 10 is below READY_INDEX_MIN_INSTANCES: the linear
        # ready scan, the path the other workloads never take.
        db.create_table(a, "unique1", degree=10)
        db.create_table(b, "unique1", degree=10)
    with _span(spans, "storage.index_build"):
        db.create_index("A", "unique2")
    rng = random.Random(seed)
    statements = []
    # Short statements (0.3-2.5 ms each) so that the fixed cost per
    # query is a visible share; constants are drawn so that result
    # sizes, hence op times, barely depend on the seed.
    for _ in range(cycles):
        statements += [
            f"SELECT * FROM A WHERE unique2 = {rng.randrange(card_a)}",
            f"SELECT * FROM A WHERE unique1 < {rng.randrange(90, 111)}",
            f"SELECT unique1, ten FROM B WHERE onePercent = "
            f"{rng.randrange(100)}",
            "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
            f"SELECT COUNT(*) FROM B WHERE ten = {rng.randrange(10)}",
        ]
    return SqlState(db, statements, (a, b))


def _sql_statement(db: DBS3, sql: str, spans: Spans):
    """``db.query(sql)`` taken apart at its public seams."""
    with spans("compiler.parse"):
        tree = parse(sql)
    with spans("compiler.normalize"):
        query = normalize(tree, db.catalog)
    with spans("compiler.parallelize"):
        compiled = parallelize(query, db.catalog, "nested_loop")
    with spans("scheduler.schedule"):
        schedule = db.scheduler.schedule(compiled.plan, None)
    session = db.session()
    handle = session.submit_compiled(compiled, schedule=schedule)
    with spans("workload.execute"):
        session.run()
    with spans("core.result"):
        return handle.result()


def _sql_op(state: SqlState, spans: Spans | None = None) -> Outcome:
    results, statement_s = [], []
    clock = time.perf_counter
    for sql in state.statements:
        started = clock()
        if spans is None:
            results.append(state.db.query(sql))
        else:
            results.append(_sql_statement(state.db, sql, spans))
        statement_s.append(clock() - started)
    executions = [result.execution for result in results]
    return Outcome(executions,
                   makespan=sum(e.response_time for e in executions),
                   payload=results, sample_s=statement_s)


def _check_sql(state: SqlState, outcome: Outcome) -> list[str]:
    expected = state.expected_rows()
    problems = []
    for sql, result in zip(state.statements, outcome.payload):
        if Counter(result.rows) != expected[sql]:
            problems.append(f"rows differ from sqlite3 for: {sql}")
    return problems


# -- serving_edf_2x ----------------------------------------------------------

#: Fixed, not derived from a measured saturation, so that a model
#: change cannot silently change the offered load.  2.0 x the 38.5 q/s
#: closed-batch saturation of the default mix on this machine.
SERVING_RATE = 77.0
#: The fixed rates of the latency-limit sweep (0.75x, 1x, 2x).
SWEEP_RATES = (("r29", 29.0), ("r38", 38.5), ("r77", 77.0))
SLO_SHARE = 0.99
TERMINAL = ("done", "shed", "rejected", "timed_out", "failed", "cancelled")
CLASS_NAMES = {"p2": "interactive", "p1": "standard", "p0": "batch"}


@dataclass
class ServingState:
    seed: int
    count: int
    machine: Machine
    options: WorkloadOptions


def _serving_setup(seed: int, scale: Scale,
                   spans: Spans | None) -> ServingState:
    # The small serving machine of repro.bench.fig_serving: overload
    # must be reachable at rates a run sweeps in seconds.
    options = WorkloadOptions(
        max_concurrent=2,
        serving=ServingPolicy(policy="edf", queue_limit=6))
    return ServingState(seed, 4_000 // scale.divisor, _machine(8), options)


def _serve(state: ServingState, rate: float, count: int,
           spans: Spans | None):
    if spans is None:
        return run_serving(arrival="poisson", rate=rate, count=count,
                           seed=state.seed, machine=state.machine,
                           workload=state.options, observe=False)
    # run_serving, stage by stage.
    templates = default_templates()
    with spans("serve.arrivals"):
        times = make_arrival_process("poisson", rate).times(
            count, seed=state.seed)
    with spans("serve.build_submissions"):
        submissions = build_submissions(templates, times,
                                        machine=state.machine,
                                        seed=state.seed)
    executor = WorkloadExecutor(state.machine,
                                ExecutionOptions(seed=state.seed),
                                state.options)
    with spans("workload.execute"):
        return executor.execute(submissions)


def _serving_op(state: ServingState, spans: Spans | None = None) -> Outcome:
    result = _serve(state, SERVING_RATE, state.count, spans)
    with _span(spans, "serve.stats"):
        stats = serving_stats(result)
    statuses = stats["statuses"]
    extra = {"serve.submitted": stats["queries"]}
    for status in ("done", "shed", "rejected", "timed_out"):
        extra[f"serve.{status}"] = statuses.get(status, 0)
    for klass, name in CLASS_NAMES.items():
        extra[f"serve.p99_{name}_s"] = stats["classes"].get(
            klass, {}).get("p99")
    return Outcome(list(result.executions.values()), result.makespan,
                   payload=(result, stats), extra=extra)


def _check_serving(state: ServingState, outcome: Outcome) -> list[str]:
    result, stats = outcome.payload
    # Hashed here, outside the timed region; as a fact of the outcome it
    # must then repeat op after op, and ``run`` compares it across runs.
    outcome.extra["serve.decision_digest"] = decision_digest(result)
    problems = []
    statuses = stats["statuses"]
    unknown = sorted(set(statuses) - set(TERMINAL))
    if unknown:
        problems.append(f"non-terminal statuses {unknown}")
    if sum(statuses.values()) != state.count:
        problems.append(
            f"conservation: {statuses} does not sum to {state.count}")
    return problems


def _serving_extras(state: ServingState) -> dict:
    """The latency-limit sweep: in-SLO share of the interactive class
    at three fixed rates, half the arrivals of the main op each.  A
    shed, rejected or timed-out query misses its limit."""
    extras = {}
    best = 0.0
    for label, rate in SWEEP_RATES:
        result = _serve(state, rate, state.count // 2, None)
        interactive = serving_stats(result)["classes"]["p2"]
        share = interactive["done"] / interactive["submitted"]
        extras[f"serve.in_slo_share_{label}"] = share
        if share >= SLO_SHARE:
            best = max(best, rate)
    extras["serve.max_rate_in_slo_qps"] = best
    return extras


# -- concurrent_mpl4_observed ------------------------------------------------

MPL = 4


@dataclass
class ObservedState(JoinState):
    options: WorkloadOptions | None = None


def _observed_setup(seed: int, scale: Scale,
                    spans: Spans | None) -> ObservedState:
    observability = ObservabilityOptions(observe=True)
    db = DBS3(machine=_machine(),
              options=ExecutionOptions(seed=seed,
                                       observability=observability))
    database = build_join_database(
        db, 100_000 // scale.divisor, 10_000 // scale.divisor, 200, 0.0,
        seed, spans)
    options = WorkloadOptions(observability=ObservabilityOptions(
        observe=True, monitors=default_monitors()))
    builders = (ideal_join_plan, assoc_join_plan) * (MPL // 2)
    return ObservedState(db, database, builders, threads=20, options=options)


def _execute_concurrent(state: ObservedState, spans: Spans | None):
    session = state.db.session(state.options)
    handles = [_submit_join(state, session, builder, spans)
               for builder in state.builders]
    with _span(spans, "workload.execute"):
        session.run()
    return session, handles


def _observed_op(state: ObservedState, spans: Spans | None = None) -> Outcome:
    session, handles = _execute_concurrent(state, spans)
    with _span(spans, "core.result"):
        results = [handle.result() for handle in handles]
    with _span(spans, "obs.report"):
        report = session.report().render()
    with _span(spans, "obs.export"):
        buffer = io.StringIO()
        records = 0
        for result in results:
            for record in jsonl_records(result.execution):
                buffer.write(json.dumps(record))
                buffer.write("\n")
                records += 1
        exported = buffer.tell()
    with _span(spans, "diag.critical_path"):
        paths = [critical_path(result.execution) for result in results]
    run = session.result
    extra = {
        "obs.export_records": records,
        "obs.export_bytes": exported,
        "obs.events": len(run.bus.events) + sum(
            len(result.execution.obs.events) for result in results),
        "obs.alerts": len(run.alerts),
        "diag.critical_path_virtual_s": max(path.length for path in paths),
    }
    return Outcome([result.execution for result in results], run.makespan,
                   payload=(run, results, paths, report), extra=extra)


def _check_observed(state: ObservedState, outcome: Outcome) -> list[str]:
    run, results, paths, report = outcome.payload
    problems = list(verify_spans(run.spans, run.executions, run.makespan))
    if not report:
        problems.append("empty workload report")
    for index, (result, path) in enumerate(zip(results, paths)):
        label = f"query {index}"
        problems += _check_join_rows(state, result.rows, label)
        problems += [f"{label}: {problem}" for problem
                     in verify_against_metrics(result.execution)]
        if path.length > result.response_time * (1 + 1e-9):
            problems.append(
                f"{label}: critical path {path.length} longer than "
                f"response time {result.response_time}")
    return problems


def _observed_extras(state: ObservedState) -> dict:
    """Execute time observed / plain, from interleaved pairs.  The
    plain twin is a second DBS3 over the same fragments with every
    observability option at its default (off)."""
    seed = state.db.executor.options.seed
    db = DBS3(machine=_machine(), options=ExecutionOptions(seed=seed))
    entries = [db.create_table_from_fragments(entry.relation, "key",
                                              entry.fragments)
               for entry in (state.database.entry_a, state.database.entry_b)]
    plain = replace(state, db=db, options=WorkloadOptions(),
                    database=JoinDatabase(*entries, state.database.theta))
    ratios = []
    clock = time.perf_counter
    for _ in range(3):
        started = clock()
        _execute_concurrent(state, None)
        observed = clock() - started
        started = clock()
        _execute_concurrent(plain, None)
        ratios.append(observed / (clock() - started))
    return {"obs.observed_over_plain": sorted(ratios)[1]}


# -- registry ----------------------------------------------------------------

_REGISTRY = (
    Workload("pipelined_d200",
             _join_setup(100_000, 10_000, 200, 0.0, (assoc_join_plan,)),
             _join_op, _check_join),
    Workload("triggered_d1500_skew",
             _join_setup(400_000, 40_000, 1500, 0.6, (ideal_join_plan,) * 3),
             _join_op, _check_triggered),
    Workload("sql_short", _sql_setup, _sql_op, _check_sql),
    Workload("serving_edf_2x", _serving_setup, _serving_op, _check_serving,
             _serving_extras),
    Workload("concurrent_mpl4_observed", _observed_setup, _observed_op,
             _check_observed, _observed_extras),
)
BY_NAME = {workload.name: workload for workload in _REGISTRY}


def storage_size(state) -> tuple[int, int]:
    """(rows, fragments) the workload's inputs hold."""
    if isinstance(state, ServingState):
        # build_submissions makes one two-fragment table pair per
        # template, inside every op.
        templates = default_templates()
        return (sum(t.card_a + t.card_b for t in templates),
                4 * len(templates))
    entries = list(state.db.catalog)
    return (sum(entry.cardinality for entry in entries),
            sum(entry.degree for entry in entries))

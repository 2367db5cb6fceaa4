"""Chaos harness: one audit for every run, one table of robustness rows.

The robustness counterpart of the twin table: instead of asking *how
fast*, it asks *does anything break*.  Two kinds of statement live
here, and they live apart:

* an **invariant** holds for *every* workload run, whatever was
  injected, cancelled, folded or shed.  Invariants are the rows of
  :data:`INVARIANTS` and :func:`audit_run` is the only function that
  walks them — activation conservation (``enqueued == processed +
  retries + aborts + discarded``: a fault may delay or destroy work,
  never invent or leak it), monotone virtual time, no orphaned
  threads, cost shares of one physical operator summing to at most 1,
  and so on.  Each names the *precondition* it needs (an event
  stream, a metrics registry, a submission count); a run that lacks
  it skips that invariant, and :func:`skipped_audits` says so.
* an **expectation** belongs to one scenario — "q2 ends cancelled",
  "something must shed", "pooled beats static", "the survivors' rows
  equal the private reference".  Expectations are the ``relations`` /
  ``parity`` tuples and the pins of a :class:`~repro.bench.twins.Twin`
  row of :data:`CHAOS`.

Every row's variants report the same facts — ``violations`` (pinned
``[]``), the skipped audits, virtual makespan, status tally, fault /
alert / decision counts — and :func:`repro.bench.twins.drive` runs,
gates and prints the table against ``twins_pins.json`` exactly as it
does the twin table.  A run-twice determinism check is a two-variant
parity group.

To add an invariant, add a line to :data:`INVARIANTS` (and a doctoring
to ``tests/analysis/test_chaos_audit.py``); to add a scenario, add a
row to :data:`CHAOS` and re-record the pins
(``python -m repro.bench.twins --record``).

CLI: ``python -m repro chaos`` runs the table (``make chaos-demo``);
``--seed N`` runs only the seeded fault row for *N* — any seed must
pass every audit and relation, pinned or not.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, Iterator

from repro.bench.twins import Twin, digest
from repro.core.database import DBS3
from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
    OperationSchedule,
    QuerySchedule,
)
from repro.engine.metrics import STATUS_DONE
from repro.engine.strategies import LPT
from repro.faults import FaultPlan, SlowdownWindow
from repro.obs.bus import THREAD_FINISH
from repro.obs.metrics import (
    FAULT_ABORTS,
    FAULT_MEMORY_EVENTS,
    FAULT_RETRIES,
    FAULTS_INJECTED,
    FOLD_HITS,
)
from repro.obs.spans import verify_spans
from repro.storage.wisconsin import generate_wisconsin
from repro.workload.engine import TERMINAL_STATES, WorkloadExecutor
from repro.workload.options import WorkloadOptions

#: The chaos workload: three joins sharing one simulation.
CHAOS_QUERIES = (
    "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
    "SELECT * FROM C JOIN D ON C.unique1 = D.unique1",
    "SELECT * FROM A JOIN D ON A.unique1 = D.unique1",
)

#: Virtual instant at which one query is cancelled (roughly mid-flight
#: for the workload sizes below).
CANCEL_AT = 0.08

#: Tolerance for span/endpoint containment checks (floating point).
_EPS = 1e-9


def _chaos_db(observe: bool = True) -> DBS3:
    """The small four-relation database every chaos run executes on."""
    options = ExecutionOptions(observability=ObservabilityOptions(
        trace=observe, observe=observe))
    db = DBS3(processors=48, options=options)
    db.create_table(generate_wisconsin("A", 2_000, seed=1), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("B", 200, seed=2), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("C", 1_500, seed=3), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("D", 150, seed=4), "unique1",
                    degree=20)
    return db


# -- invariants ---------------------------------------------------------------

def _operations(result) -> Iterator[tuple]:
    """Every ``(tag, name, OperationMetrics)`` appearance of a run."""
    for tag, execution in result.executions.items():
        for name, op in execution.operations.items():
            yield tag, name, op


def _physical(name: str, op) -> tuple:
    """Identity of the physical execution behind one appearance.

    A folded operation runs once and shows up in every subscriber's
    execution with the same raw numbers (window, activation profile),
    so appearances with equal keys are one physical operator.
    """
    return (name, op.started_at, op.finished_at, op.activations,
            round(sum(op.activation_costs), 9))


def _terminal_statuses(result, submitted) -> Iterator[str]:
    """Overload may *re-route* a query (shed it, reject it, time it
    out, let a fault fail it) but every query ends in one terminal
    status."""
    for tag, execution in result.executions.items():
        if execution.status not in TERMINAL_STATES:
            yield f"{tag} ended in non-terminal status {execution.status!r}"


def _query_conservation(result, submitted) -> Iterator[str]:
    """The terminal executions account for every submission — nothing
    vanishes, nothing is double-counted."""
    if len(result.executions) != submitted:
        tally = dict(Counter(e.status for e in result.executions.values()))
        yield (f"{submitted} submitted but {len(result.executions)} "
               f"terminal executions ({tally})")


def _activation_conservation(result, submitted) -> Iterator[str]:
    """``enqueued == processed + retries + aborts + discarded``."""
    for tag, name, op in _operations(result):
        enqueued = sum(op.queue_activations)
        if enqueued != (op.activations + op.fault_retries + op.fault_aborts
                        + op.discarded):
            yield (f"{tag}/{name}: {enqueued} enqueued != {op.activations} "
                   f"processed + {op.fault_retries} retries + "
                   f"{op.fault_aborts} aborts + {op.discarded} discarded")


def _monotone_time(result, submitted) -> Iterator[str]:
    """Operation windows ordered and inside the run, no span running
    backwards, the workload event stream never moving back in time."""
    for tag, name, op in _operations(result):
        if op.finished_at + _EPS < op.started_at:
            yield (f"{tag}/{name}: finished_at {op.finished_at} before "
                   f"started_at {op.started_at}")
        if op.finished_at > result.makespan + _EPS:
            yield (f"{tag}/{name}: finished_at {op.finished_at} past the "
                   f"makespan {result.makespan}")
    for tag, execution in result.executions.items():
        spans = execution.trace.events if execution.trace is not None else ()
        backwards = next((s for s in spans if s.end + _EPS < s.start), None)
        if backwards is not None:
            yield (f"{tag}: span {backwards.operation}/{backwards.kind} runs "
                   f"backwards ({backwards.start} -> {backwards.end})")
    last = 0.0
    for event in result.bus.events:
        if event.t + _EPS < last:
            yield (f"workload bus went backwards: {event.kind} at "
                   f"{event.t} after t={last}")
            break
        last = max(last, event.t)


def _thread_orphans(result, submitted) -> Iterator[str]:
    """Every pool thread terminated, cancelled and folded ones too.

    A folded operation's pool belongs to its host, so its
    ``thread.finish`` events appear on the host's bus only — and a
    subscriber's appearance can even carry ``cost_share == 1.0`` (the
    host finished before anyone else folded in), so share alone does
    not tell private from folded.  The uniform statement: group every
    appearance that did work by its physical identity; each physical
    operation has exactly one carrier — one appearance whose bus
    accounts for all its threads — and every other appearance carries
    none of them.  Appearances that never ran (the query was cancelled
    while still queued) have no threads to orphan.
    """
    carriers: Counter = Counter()
    appearances: Counter = Counter()
    for tag, execution in result.executions.items():
        if execution.obs is None:
            continue
        finishes = Counter(event.operation for event in execution.obs.events
                           if event.kind == THREAD_FINISH)
        for name, op in execution.operations.items():
            finished = finishes[name]
            if (finished == 0 and not op.activations and not op.busy_time
                    and not sum(op.queue_activations)):
                continue
            key = _physical(name, op)
            appearances[key] += 1
            if finished == op.threads:
                carriers[key] += 1
            elif finished != 0:
                yield (f"{tag}/{name}: {finished} of {op.threads} "
                       f"thread.finish events (must be all of them on the "
                       f"carrier or none on a subscriber)")
    for key, count in appearances.items():
        if carriers[key] != 1:
            yield (f"operation {key[0]!r} with {count} appearances has "
                   f"{carriers[key]} thread-finish carriers (expected "
                   f"exactly one)")


def _shed_before_work(result, submitted) -> Iterator[str]:
    """Load shedding happens strictly pre-admission — before a query
    materializes operator state or joins a shared-fold cohort; a shed
    execution carrying operations would have been torn out mid-cohort."""
    for tag, execution in result.executions.items():
        if execution.status in ("shed", "rejected") and execution.operations:
            yield (f"{tag} was {execution.status} yet carries "
                   f"{len(execution.operations)} operations")


def _cost_shares(result, submitted) -> Iterator[str]:
    """Shared work is counted at most once: the fractional
    ``cost_share``s of one physical operator never sum past 1.0.  (A
    subscriber cancelled before the operator finished drops its
    appearance, so the sum may fall short — conservative, never
    double-counted.)"""
    groups: dict[tuple, list] = {}
    for tag, name, op in _operations(result):
        if op.cost_share < 1.0:
            groups.setdefault(_physical(name, op), []).append(
                (f"{tag}/{name}", op.cost_share))
    for members in groups.values():
        total = sum(share for _, share in members)
        if total > 1.0 + _EPS:
            yield (f"{', '.join(who for who, _ in members)} attribute "
                   f"{total:.4f} of one operation (> 1.0)")


def fault_counter_totals(result) -> dict[str, float]:
    """Workload-wide fault counters, read off the metrics registry
    (the telemetry layer is their source of truth)."""
    return {
        "injected": result.metrics.total(FAULTS_INJECTED),
        "retries": result.metrics.total(FAULT_RETRIES),
        "aborts": result.metrics.total(FAULT_ABORTS),
        "memory_events": result.metrics.total(FAULT_MEMORY_EVENTS),
    }


def _fault_accounting(result, submitted) -> Iterator[str]:
    """The injector increments the registry the moment a fault lands;
    every operation tallies the same events on its own metrics.  Two
    independent counts of one fault stream agree exactly — cancelled
    queries included (their executions snapshot what landed before the
    cut)."""
    counters = fault_counter_totals(result)
    for key, attribute in (("injected", "faults_injected"),
                           ("retries", "fault_retries"),
                           ("aborts", "fault_aborts")):
        summed = sum(getattr(op, attribute)
                     for _, _, op in _operations(result))
        if counters[key] != summed:
            yield (f"registry counts {counters[key]:g} {key} but the "
                   f"per-operation metrics sum to {summed}")


def _span_audit(result, submitted) -> Iterator[str]:
    """The reconstructed query spans agree with the executions."""
    yield from verify_spans(result.spans, result.executions, result.makespan)


# The preconditions: what a run must carry for an invariant to apply.

def _always(result, submitted) -> bool:
    return True


def _submissions_counted(result, submitted) -> bool:
    """The caller said how many queries it submitted."""
    return submitted is not None


def _has_event_streams(result, submitted) -> bool:
    """Some execution was observed (``thread.finish`` events exist)."""
    return any(e.obs is not None for e in result.executions.values())


def _has_registry(result, submitted) -> bool:
    return result.metrics is not None


def _has_spans(result, submitted) -> bool:
    return result.spans is not None


#: ``(name, precondition, check)``: the laws of every workload run.
#: ``precondition(result, submitted)`` says whether the run carries what
#: the law reads; ``check(result, submitted)`` yields one string per
#: breach.
INVARIANTS: tuple[tuple[str, Callable, Callable], ...] = (
    ("terminal statuses", _always, _terminal_statuses),
    ("query conservation", _submissions_counted, _query_conservation),
    ("activation conservation", _always, _activation_conservation),
    ("monotone time", _always, _monotone_time),
    ("thread orphans", _has_event_streams, _thread_orphans),
    ("shed before work", _always, _shed_before_work),
    ("cost shares", _always, _cost_shares),
    ("fault accounting", _has_registry, _fault_accounting),
    ("span audit", _has_spans, _span_audit),
)


def audit_run(result, submitted: int | None = None) -> list[str]:
    """Every universal invariant *result* breaks (``[]`` when clean).

    *result* is any :class:`~repro.workload.engine.WorkloadResult`;
    an invariant whose precondition the run lacks is skipped (see
    :func:`skipped_audits`), never failed.
    """
    return [f"{name}: {problem}"
            for name, precondition, check in INVARIANTS
            if precondition(result, submitted)
            for problem in check(result, submitted)]


def skipped_audits(result, submitted: int | None = None) -> list[str]:
    """Names of the invariants :func:`audit_run` could not apply."""
    return [name for name, precondition, _ in INVARIANTS
            if not precondition(result, submitted)]


# -- facts --------------------------------------------------------------------

def _facts(result, submitted: int, **extra) -> dict:
    """The facts every audited variant reports."""
    statuses = Counter(e.status for e in result.executions.values())
    return {"violations": audit_run(result, submitted),
            "skipped": skipped_audits(result, submitted),
            "virtual_s": result.makespan,
            "statuses": dict(sorted(statuses.items())), **extra}


def _by_tag(result) -> dict[str, str]:
    """Per-query statuses as flat facts (relations read flat facts)."""
    return {tag: result.status_of(tag) for tag in result.order}


# -- seeded faults + cancellation ---------------------------------------------

def seeded_run(seed: int):
    """One seeded chaos run: inject, cancel.

    The fault plan is drawn deterministically from *seed* (same seed,
    same faults, same virtual trajectory — chaos runs are replayable).
    The third query is cancelled mid-run on top of whatever the plan
    injects, so the cancellation path is exercised under fire.
    """
    db = _chaos_db()
    operations = sorted({node.name
                         for sql in CHAOS_QUERIES
                         for node in db.compile(sql).plan.nodes})
    plan = FaultPlan.generate(seed, operations, horizon=0.4)
    session = db.session(options=WorkloadOptions(faults=plan))
    handles = [session.submit(sql, at=0.01 * i, tag=f"q{i}")
               for i, sql in enumerate(CHAOS_QUERIES)]
    handles[-1].cancel(at=CANCEL_AT)
    return session.run()


def seeded(seed: int) -> Twin:
    """The seeded row for *seed*: the cancelled query ends cancelled
    (or failed first), and only the injected faults may stop the
    other two."""
    def run():
        result = seeded_run(seed)
        return _facts(result, len(CHAOS_QUERIES), **_by_tag(result),
                      faults=fault_counter_totals(result))
    return Twin(f"seeded@{seed}", ("run",), lambda: {"run": run},
                relations=(("run.q0", "in", (STATUS_DONE, "failed")),
                           ("run.q1", "in", (STATUS_DONE, "failed")),
                           ("run.q2", "in", ("cancelled", "failed"))))


# -- shared work under cancellation -------------------------------------------

#: The shared-work chaos workload: three copies of one join (they fold
#: onto a single physical execution) plus one disjoint join (it stays
#: private), with the *middle subscriber* — not the host — cancelled.
SHARED_CHAOS_QUERIES = (CHAOS_QUERIES[0],) * 3 + (CHAOS_QUERIES[1],)
SHARED_CHAOS_CANCELLED = 1


def shared_run():
    """Fold three identical joins, cancel one subscriber mid-run."""
    session = _chaos_db().session(options=WorkloadOptions(shared=True))
    handles = [session.submit(sql, tag=f"q{i}")
               for i, sql in enumerate(SHARED_CHAOS_QUERIES)]
    handles[SHARED_CHAOS_CANCELLED].cancel(at=CANCEL_AT)
    return session.run()


def _build_shared():
    """The fold survives a subscriber's cancellation: the survivors'
    rows are exactly what a fault-free private run produces."""
    survivors = [i for i in range(len(SHARED_CHAOS_QUERIES))
                 if i != SHARED_CHAOS_CANCELLED]

    def run():
        result = shared_run()
        return _facts(
            result, len(SHARED_CHAOS_QUERIES), **_by_tag(result),
            folded=sum(op.cost_share < 1.0
                       for _, _, op in _operations(result)),
            survivor_rows=digest([
                sorted(result.execution(f"q{i}").result_rows)
                for i in survivors]))

    def reference():
        db = _chaos_db(observe=False)
        rows = {sql: sorted(db.query(sql).rows)
                for sql in set(SHARED_CHAOS_QUERIES)}
        return {"survivor_rows": digest(
            [rows[SHARED_CHAOS_QUERIES[i]] for i in survivors])}

    return {"run": run, "reference": reference}


# -- graceful degradation and the monitors watching it --------------------------

#: Slowdown grid of the degradation, alert and adaptive rows: the
#: uniform cell plus three slowed ones.
SLOWDOWN_FACTORS = (1.0, 3.0, 6.0, 12.0)
SLOWED_FACTORS = SLOWDOWN_FACTORS[1:]

#: Headroom of the alert row's calibrated latency SLO over the uniform
#: cell's makespan: the fault-free cell sits comfortably under it, the
#: slowed cells (2 of N threads, statically bound) blow past it.
ALERT_SLO_HEADROOM = 1.2


def _slowed_join(threads: int = 10):
    """The first chaos join with threads 0 and 1 of its join pool
    permanently slowed.  Returns ``(db, plan, schedule, faults)``:
    ``schedule(pooled)`` binds dynamically (the paper's engine: fast
    threads drain the slowed threads' queues through secondary access)
    or statically (Gamma-style one thread per instance: the slowed
    threads' work is stranded); ``faults(factor)`` is the plan."""
    db = _chaos_db(observe=False)
    plan = db.compile(CHAOS_QUERIES[0]).plan
    names = [node.name for node in plan.nodes]

    def schedule(pooled: bool) -> QuerySchedule:
        return QuerySchedule({
            name: OperationSchedule(threads, strategy=LPT,
                                    allow_secondary=pooled)
            for name in names})

    def faults(factor: float) -> FaultPlan | None:
        return None if factor == 1.0 else FaultPlan(seed=0, slowdowns=(
            SlowdownWindow(0.0, float("inf"), factor, operation=names[-1],
                           thread_ids=(0, 1)),))

    return db, plan, schedule, faults


def _build_degradation():
    """Pooled dynamic consumption degrades strictly less than the
    static binding at every factor > 1 — what "graceful" means here."""
    db, plan, schedule, faults = _slowed_join()

    def cell(factor, pooled):
        execution = Executor(db.machine, ExecutionOptions(
            faults=faults(factor))).execute(plan, schedule(pooled))
        return {"virtual_s": execution.response_time,
                "rows": execution.result_cardinality}

    return {f"{label}_x{factor:g}": (lambda f=factor, p=pooled: cell(f, p))
            for factor in SLOWDOWN_FACTORS
            for label, pooled in (("pooled", True), ("static", False))}


def _build_alerts():
    """The statically bound slowed join through a monitored session.
    The latency SLO is calibrated off an unmonitored uniform run — its
    makespan times :data:`ALERT_SLO_HEADROOM` — so the uniform cell
    stays silent and every slowed cell fires straggler and/or SLO
    alerts, identically on a twin run."""
    from repro.obs.monitor import default_monitors

    db, _, schedule, faults = _slowed_join()

    def session_run(factor, rules):
        session = db.session(options=WorkloadOptions(
            faults=faults(factor),
            observability=ObservabilityOptions(monitors=rules)))
        session.submit(CHAOS_QUERIES[0], schedule=schedule(False), tag="q0")
        return session.run()

    rules = default_monitors(
        slo=session_run(1.0, ()).makespan * ALERT_SLO_HEADROOM)

    def cell(factor):
        result = session_run(factor, rules)
        log = [(a.rule, a.key, a.severity, a.fired_at, a.value)
               for a in result.alerts]
        fired = sorted({entry[0] for entry in log})
        return _facts(result, 1, alerts=len(log), alert_log=digest(log),
                      fired=fired, straggler_or_slo=len(
                          {"straggler", "latency_slo"}.intersection(fired)))

    variants = {"uniform": lambda: cell(1.0)}
    for factor in SLOWED_FACTORS:
        variants[f"x{factor:g}"] = variants[f"x{factor:g}_twin"] = (
            lambda f=factor: cell(f))
    return variants


# -- adaptive policy ------------------------------------------------------------

#: Chunked-trigger grain of the scenario's joins: fine-grained
#: activations, so extra producer threads translate into wall-clock
#: progress instead of vanishing into round-count quantization.
ADAPTIVE_GRAIN = 4

#: The query's demanded thread count (its four-step schedule total).
ADAPTIVE_THREADS = 10


def build_adaptive_scenario():
    """A fresh database plus the three-wave chained-join plan.

    The plan is ``join1 -> store1  ||  join2 -> store2  ||  join3`` —
    every wave but the last pairs a triggered producer with a
    pipelined store consumer, which is exactly the shape the adaptive
    controller's queue-wait attribution reads: when the joins run slow
    (the row's injected fault), the store pools starve in wave 0 and
    the controller moves their idle threads to ``join2`` at the wave-1
    boundary.  Returns ``(db, plan, output_schema)``; build a fresh
    scenario per run — plans hold runtime fragment state.
    """
    from repro.lera.graph import MATERIALIZED, PIPELINE, LeraGraph
    from repro.lera.operators import JoinSpec, StoreSpec
    from repro.storage.fragment import Fragment

    db = _chaos_db(observe=False)
    entry_a = db.catalog.entry("A")
    entry_b = db.catalog.entry("B")
    entry_c = db.catalog.entry("C")
    entry_d = db.catalog.entry("D")
    graph = LeraGraph()
    graph.add_node("join1", JoinSpec(
        outer_fragments=entry_a.fragments,
        inner_fragments=entry_b.fragments,
        outer_key="unique1", inner_key="unique1",
        grain=ADAPTIVE_GRAIN))
    schema1 = entry_a.relation.schema.concat(entry_b.relation.schema)
    expected1 = min(entry_a.cardinality, entry_b.cardinality)
    target1 = [Fragment("T1", i, schema1) for i in range(entry_c.degree)]
    graph.add_node("store1", StoreSpec(
        target_fragments=target1, stream_schema=schema1,
        key="unique1", expected_cardinality=expected1))
    graph.add_edge("join1", "store1", PIPELINE)
    graph.add_node("join2", JoinSpec(
        outer_fragments=target1, inner_fragments=entry_c.fragments,
        outer_key="unique1", inner_key="unique1",
        grain=ADAPTIVE_GRAIN, outer_expected_total=expected1))
    graph.add_edge("store1", "join2", MATERIALIZED)
    schema2 = schema1.concat(entry_c.relation.schema)
    expected2 = min(expected1, entry_d.cardinality)
    target2 = [Fragment("T2", i, schema2) for i in range(entry_d.degree)]
    graph.add_node("store2", StoreSpec(
        target_fragments=target2, stream_schema=schema2,
        key="unique1", expected_cardinality=expected2))
    graph.add_edge("join2", "store2", PIPELINE)
    graph.add_node("join3", JoinSpec(
        outer_fragments=target2, inner_fragments=entry_d.fragments,
        outer_key="unique1", inner_key="unique1",
        grain=ADAPTIVE_GRAIN, outer_expected_total=expected2))
    graph.add_edge("store2", "join3", MATERIALIZED)
    graph.validate()
    return db, graph, schema2.concat(entry_d.relation.schema)


def run_adaptive_workload(factor: float, policy: str):
    """One cell of the adaptive grid: the chained-join scenario under
    a join slowdown of *factor*, scheduled by *policy*.

    The slowdown hits both producer joins — the same mis-estimation
    persisting across the blocking boundary, which is what makes the
    wave-0 evidence transfer to wave 1.  Returns the
    :class:`~repro.workload.engine.WorkloadResult`.
    """
    from repro.adapt.policy import SchedulingPolicy

    db, plan, schema = build_adaptive_scenario()
    faults = None if factor == 1.0 else FaultPlan(seed=0, slowdowns=(
        SlowdownWindow(0.0, float("inf"), factor, operation="join1"),
        SlowdownWindow(0.0, float("inf"), factor, operation="join2"),
    ))
    session = db.session(options=WorkloadOptions(
        scheduling=SchedulingPolicy(policy=policy), faults=faults))
    session.submit_plan(plan, schema, threads=ADAPTIVE_THREADS, tag="q0")
    return session.run()


def _build_adaptive():
    """The closed loop: adaptive beats static wherever it acts (with a
    recorded decision explaining why), is bit-identical with zero
    decisions where no signal fires, and moves threads, never answers
    — the rows agree everywhere."""
    def cell(factor, policy):
        result = run_adaptive_workload(factor, policy)
        decisions = (result.decisions.to_json()
                     if result.decisions is not None else [])
        return _facts(result, 1, decisions=len(decisions),
                      decision_log=digest(decisions),
                      rows=digest(sorted(result.execution("q0").result_rows)))

    variants = {}
    for factor in SLOWDOWN_FACTORS:
        x = f"x{factor:g}"
        variants[f"static_{x}"] = lambda f=factor: cell(f, "static")
        variants[f"adaptive_{x}"] = variants[f"adaptive_{x}_twin"] = (
            lambda f=factor: cell(f, "adaptive"))
    return variants


# -- serving under fire -------------------------------------------------------

#: Arrival-rate multiplier of the serving chaos row over the measured
#: saturation throughput of its mix — solidly past the knee.
SERVING_CHAOS_OVERLOAD = 2.0

#: Queries per serving chaos run.
SERVING_CHAOS_COUNT = 80

#: Bounded wait-queue depth of the serving chaos row.
SERVING_CHAOS_QUEUE_LIMIT = 6

#: How many mid-run queries get a cancellation fired on top of the
#: overload + faults (spread across the run).
SERVING_CHAOS_CANCELS = 3


def serving_run(seed: int = 0):
    """Overload, faults, shared folding and cancellation at once.

    The serving mix arrives open-loop at
    :data:`SERVING_CHAOS_OVERLOAD` times its measured saturation
    throughput on a deliberately small machine, under a priority
    policy with a bounded queue, with shared-work folding on, a seeded
    fault plan injected *and* several mid-run cancellations fired —
    every robustness subsystem under fire.  Returns ``(result,
    cancelled_tags)``.
    """
    from repro.serve.arrivals import make_arrival_process
    from repro.serve.harness import (
        MAX_CONCURRENT,
        build_submissions,
        default_templates,
        measure_saturation,
        serving_machine,
    )
    from repro.serve.policies import ServingPolicy

    machine = serving_machine()
    templates = default_templates()
    rate = SERVING_CHAOS_OVERLOAD * measure_saturation(
        templates, machine=machine, count=60, seed=seed)
    times = make_arrival_process("poisson", rate).times(
        SERVING_CHAOS_COUNT, seed=seed)
    submissions = build_submissions(templates, times, machine=machine,
                                    seed=seed)
    # Cancellation under fire: a few queries spread across the run get
    # cancelled shortly after arriving — under overload they are still
    # queued, so the cancel races admission and shedding.
    step = SERVING_CHAOS_COUNT // (SERVING_CHAOS_CANCELS + 1)
    cancelled = []
    for index in range(step, step * (SERVING_CHAOS_CANCELS + 1), step):
        submissions[index] = dataclasses.replace(
            submissions[index], cancel_at=submissions[index].arrival + 0.02)
        cancelled.append(submissions[index].tag)
    operations = sorted({node.name for submission in submissions
                         for node in submission.compiled.plan.nodes})
    workload = WorkloadOptions(
        max_concurrent=MAX_CONCURRENT, shared=True,
        faults=FaultPlan.generate(seed, tuple(operations),
                                  horizon=times[-1] * 1.2),
        serving=ServingPolicy(policy="priority",
                              queue_limit=SERVING_CHAOS_QUEUE_LIMIT))
    options = ExecutionOptions(
        seed=seed,
        observability=ObservabilityOptions(trace=True, observe=True))
    return (WorkloadExecutor(machine, options, workload).execute(submissions),
            cancelled)


def _build_serving():
    """The overflow sheds, the duplicate templates fold, every cancel
    lands ``cancelled`` (or ``shed`` if the overflow got there first,
    but not all of them), and a twin run of the same seed reproduces
    the decision log byte for byte."""
    from repro.serve.harness import decision_digest

    def run():
        result, cancelled = serving_run()
        ends = Counter(result.status_of(tag) for tag in cancelled)
        return _facts(result, SERVING_CHAOS_COUNT,
                      faults=fault_counter_totals(result),
                      shed=sum(e.status == "shed"
                               for e in result.executions.values()),
                      folds=result.metrics.total(FOLD_HITS),
                      cancels_landed=ends["cancelled"],
                      cancels_resolved=ends["cancelled"] + ends["shed"],
                      decision_digest=decision_digest(result)[:16])

    return {"run": run, "twin": run}


# -- the table ------------------------------------------------------------------

def _pairs(*labels: str) -> tuple[tuple[str, str], ...]:
    """``(label, label_twin)`` parity groups."""
    return tuple((label, f"{label}_twin") for label in labels)


_SLOWED = [f"x{factor:g}" for factor in SLOWED_FACTORS]

CHAOS: tuple[Twin, ...] = (
    *(seeded(seed) for seed in (0, 1, 2)),
    Twin("shared_cancel", ("run", "reference"), _build_shared,
         relations=(
             ("run.q1", "in", ("cancelled",)),
             *((f"run.q{i}", "in", (STATUS_DONE,)) for i in (0, 2, 3)),
             ("run.folded", ">", 0),
             ("run.survivor_rows", "==", "reference.survivor_rows"))),
    Twin("degradation",
         tuple(f"{label}_x{factor:g}" for factor in SLOWDOWN_FACTORS
               for label in ("pooled", "static")),
         _build_degradation,
         relations=tuple((f"pooled_{x}.virtual_s", "<", f"static_{x}.virtual_s")
                         for x in _SLOWED)),
    Twin("alerts",
         ("uniform", *(label for pair in _pairs(*_SLOWED) for label in pair)),
         _build_alerts,
         parity=_pairs(*_SLOWED),
         relations=(("uniform.alerts", "==", 0),
                    *((f"{x}.straggler_or_slo", ">", 0) for x in _SLOWED))),
    Twin("adaptive_sweep",
         ("static_x1", "adaptive_x1",
          *(label for x in _SLOWED for label in
            (f"static_{x}", f"adaptive_{x}", f"adaptive_{x}_twin"))),
         _build_adaptive,
         parity=(("static_x1", "adaptive_x1"),
                 *_pairs(*(f"adaptive_{x}" for x in _SLOWED))),
         relations=tuple(
             gate for x in _SLOWED for gate in (
                 (f"adaptive_{x}.virtual_s", "<", f"static_{x}.virtual_s"),
                 (f"adaptive_{x}.decisions", ">=", 1),
                 (f"adaptive_{x}.rows", "==", f"static_{x}.rows")))),
    Twin("serving_fire", ("run", "twin"), _build_serving,
         parity=(("run", "twin"),),
         relations=(("run.shed", ">", 0),
                    ("run.folds", ">", 0),
                    ("run.cancels_landed", ">=", 1),
                    ("run.cancels_resolved", "==", SERVING_CHAOS_CANCELS))),
)

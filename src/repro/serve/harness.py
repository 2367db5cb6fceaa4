"""The open-loop serving harness.

Turns a seeded Poisson arrival stream (:mod:`repro.serve.arrivals`)
plus a weighted mix of :class:`QueryTemplate`\\ s into a workload-engine
submission list — the bridge between "requests per virtual second" and the
closed batch API the engine executes.  The ``fig_serving`` row of
:data:`repro.bench.figures.FIGURES`, the twin and chaos tables and the
``serve`` CLI command all drive overload through here, on the small
:func:`serving_machine` and against :func:`measure_saturation`.

Everything is a pure function of ``(templates, process, count,
seed)``: template choice and arrival instants come from dedicated
``random.Random`` streams, so two runs with the same inputs produce
byte-identical submission lists — and, the engine being
deterministic, byte-identical decision logs
(:func:`decision_log` / :func:`decision_digest` pin this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.executor import ExecutionOptions, ObservabilityOptions
from repro.errors import WorkloadError
from repro.machine.machine import Machine
from repro.obs.bus import (
    QUERY_ADMIT,
    QUERY_CANCEL,
    QUERY_FINISH,
    QUERY_REJECT,
    QUERY_SUBMIT,
    SERVE_BACKPRESSURE,
)
from repro.obs.metrics import percentile
from repro.serve.arrivals import make_arrival_process
from repro.serve.policies import ServingPolicy
from repro.workload.engine import (
    QuerySubmission,
    WorkloadExecutor,
    WorkloadResult,
)
from repro.workload.options import WorkloadOptions

#: The constrained serving machine: deliberately small (8 processors,
#: MPL 2), so overload is *reachable* at rates a run sweeps in seconds.
PROCESSORS = 8
MAX_CONCURRENT = 2

#: Bounded wait-queue depth of the protected configurations.
QUEUE_LIMIT = 6


def serving_machine() -> Machine:
    return Machine.uniform(processors=PROCESSORS)


@dataclass(frozen=True)
class QueryTemplate:
    """One entry of the serving mix.

    A template names a query *shape* (join over a table pair of the
    given cardinalities) plus its serving attributes.  ``slo`` is the
    per-query deadline in virtual seconds — it rides the engine's
    existing timeout machinery, so an admitted query that overruns it
    ends ``timed_out`` (wasted machine time, the cost load shedding
    exists to avoid) and EDF can reason about it *before* admission.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    tenant: str = "default"
    slo: float | None = None
    card_a: int = 60
    card_b: int = 40
    assoc: bool = False

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError(
                f"template weight must be > 0, got {self.weight} "
                f"for {self.name!r}")
        if self.slo is not None and self.slo <= 0:
            raise WorkloadError(
                f"slo must be > 0, got {self.slo} for {self.name!r}")


def default_templates() -> tuple[QueryTemplate, ...]:
    """The benchmark's three-class, two-tenant serving mix.

    Interactive point-ish joins dominate arrivals and carry the tight
    SLO and the high priority; batch analytics queries are rare, big,
    deadline-free and low-priority — the classic mix where FIFO
    under overload lets the batch tail push the interactive p99 over
    its SLO.
    """
    return (
        QueryTemplate("interactive", weight=6.0, priority=2, tenant="web",
                      slo=1.0, card_a=24, card_b=16),
        QueryTemplate("standard", weight=3.0, priority=1, tenant="web",
                      slo=3.0, card_a=60, card_b=40),
        QueryTemplate("batch", weight=1.0, priority=0, tenant="analytics",
                      slo=None, card_a=140, card_b=90, assoc=True),
    )


def build_submissions(templates, times, machine=None, seed: int = 0,
                      timeouts: bool = True) -> list[QuerySubmission]:
    """Materialize one submission per arrival instant.

    The template of each arrival is drawn (weighted) from a dedicated
    ``random.Random(seed)`` stream — independent of the arrival-time
    stream, so changing the mix does not perturb the arrival times.
    Each template is planned and scheduled (adaptive scheduler over
    *machine*) once and all its arrivals share that pair: a plan without
    a ``StoreSpec`` holds no run state — runtimes, queues, dbfunc state,
    and bus are per job, as folding already assumes.  With
    ``timeouts=False`` the SLOs are dropped — the pure-queueing FIFO
    baseline the benchmark contrasts against.
    """
    from repro.bench.runners import default_machine
    from repro.bench.workloads import make_join_database
    from repro.compiler.parallelizer import CompiledQuery
    from repro.lera.plans import assoc_join_plan, ideal_join_plan
    from repro.scheduler.adaptive import AdaptiveScheduler

    if not templates:
        raise WorkloadError("empty template mix")
    machine = machine or default_machine()
    scheduler = AdaptiveScheduler(machine)
    rng = random.Random(seed)
    compiled = {}
    for template in templates:
        database = make_join_database(
            template.card_a, template.card_b, degree=2, theta=0.0,
            name_a=f"{template.name}_a", name_b=f"{template.name}_b")
        builder = assoc_join_plan if template.assoc else ideal_join_plan
        plan = builder(database.entry_a, database.entry_b, "key", "key")
        compiled[template.name] = (
            CompiledQuery(plan, None, None, f"serving {template.name}"),
            scheduler.schedule(plan, None))
    weights = [template.weight for template in templates]
    submissions: list[QuerySubmission] = []
    for index, at in enumerate(times):
        template = rng.choices(templates, weights)[0]
        query, schedule = compiled[template.name]
        submissions.append(QuerySubmission(
            f"{template.name}-{index}", query, schedule, arrival=at,
            timeout=template.slo if timeouts else None,
            priority=template.priority, tenant=template.tenant))
    return submissions


def run_serving(templates=None, arrival: str = "poisson",
                rate: float = 1.0, count: int = 100, seed: int = 0,
                machine=None, workload: WorkloadOptions | None = None,
                observe: bool = True,
                timeouts: bool = True) -> WorkloadResult:
    """One open-loop serving run, end to end.

    Generates *count* arrivals from the named arrival process at
    long-run *rate*, draws the template mix, and executes
    under *workload* (the default options when ``None``).
    """
    from repro.bench.runners import default_machine

    templates = tuple(templates) if templates else default_templates()
    machine = machine or default_machine()
    times = make_arrival_process(arrival, rate).times(count, seed=seed)
    submissions = build_submissions(templates, times, machine=machine,
                                    seed=seed, timeouts=timeouts)
    options = ExecutionOptions(
        seed=seed, observability=ObservabilityOptions(observe=observe))
    return WorkloadExecutor(machine, options, workload).execute(submissions)


def measure_saturation(templates, machine=None, count: int = 200,
                       seed: int = 0,
                       max_concurrent: int = MAX_CONCURRENT) -> float:
    """Saturation throughput of the mix: a closed batch, all at t=0.

    With every query already waiting, the machine is never idle, so
    ``count / makespan`` is the maximum completion rate this mix can
    sustain — the ceiling every open-loop rate is measured against.
    """
    machine = machine or serving_machine()
    submissions = build_submissions(default_templates() if templates is None
                                    else templates,
                                    [0.0] * count, machine=machine,
                                    seed=seed, timeouts=False)
    workload = WorkloadOptions(max_concurrent=max_concurrent,
                               serving=ServingPolicy())
    result = WorkloadExecutor(machine, ExecutionOptions(seed=seed),
                              workload).execute(submissions)
    return count / result.makespan


# -- analysis ----------------------------------------------------------------

#: Event kinds whose full payloads constitute the run's decision log.
DECISION_KINDS = (QUERY_SUBMIT, QUERY_ADMIT, QUERY_REJECT, QUERY_CANCEL,
                  QUERY_FINISH, SERVE_BACKPRESSURE)


def decision_log(result: WorkloadResult) -> tuple:
    """The run's full arrival + admission decision sequence.

    Every submit/admit/reject/cancel/finish and every backpressure
    transition, in emission order, with full payloads.  Two
    runs of the same seed must produce *equal* logs — the per-seed
    determinism property the hypothesis suite and the chaos twin
    audit pin.
    """
    log = []
    for event in result.bus.events:
        if event.kind not in DECISION_KINDS:
            continue
        data = (tuple(sorted((key, repr(value))
                             for key, value in event.data.items()))
                if event.data else ())
        log.append((event.kind, event.t, event.operation, data))
    return tuple(log)


def decision_digest(result: WorkloadResult) -> str:
    """Stable hex digest of :func:`decision_log` (twin-run identity)."""
    import hashlib
    payload = repr(decision_log(result)).encode()
    return hashlib.sha256(payload).hexdigest()


def serving_stats(result: WorkloadResult) -> dict:
    """Distil one serving run into the benchmark's row.

    * ``statuses`` — terminal-status tally (conservation check:
      the values sum to the submission count).
    * ``goodput`` — queries that completed *within their SLO* per
      virtual second.  SLOs ride the timeout machinery, so ``done``
      already means "within SLO" when timeouts are armed.
    * ``classes`` — per-priority-class p50/p95/p99 latency over
      completed queries, plus that class's shed/timed-out counts (the
      per-class fate of the overload).
    """
    statuses: dict[str, int] = {}
    for execution in result.executions.values():
        statuses[execution.status] = statuses.get(execution.status, 0) + 1
    done = statuses.get("done", 0)
    goodput = done / result.makespan if result.makespan > 0 else 0.0

    per_class: dict[str, dict] = {}
    latencies: dict[str, list[float]] = {}
    submission_priority: dict[str, int] = {}
    for event in result.bus.events:
        if event.kind == QUERY_SUBMIT and event.data:
            priority = event.data.get("priority")
            if priority is not None:
                submission_priority[event.operation] = priority
    for tag, execution in result.executions.items():
        priority = submission_priority.get(tag, 0)
        klass = f"p{priority}"
        stats = per_class.setdefault(
            klass, {"submitted": 0, "done": 0, "shed": 0, "timed_out": 0})
        stats["submitted"] += 1
        if execution.status in stats:
            stats[execution.status] = stats.get(execution.status, 0) + 1
        if execution.status == "done":
            latencies.setdefault(klass, []).append(execution.response_time)
    for klass, values in latencies.items():
        per_class[klass].update(
            p50=percentile(values, 50), p95=percentile(values, 95),
            p99=percentile(values, 99))
    return {
        "queries": len(result.executions),
        "statuses": statuses,
        "makespan": result.makespan,
        "goodput": goodput,
        "classes": dict(sorted(per_class.items())),
    }

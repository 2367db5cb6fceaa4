"""Shared experiment runners.

Thin wrappers that build the paper's two plans over a
:class:`~repro.bench.workloads.JoinDatabase`, schedule them with the
adaptive scheduler (strategy overridable, as the experiments fix
Random or LPT explicitly), and execute on a uniform 72-processor
machine unless told otherwise.
"""

from __future__ import annotations

import functools

from repro.bench.workloads import JoinDatabase
from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
    QuerySchedule,
)
from repro.engine.metrics import QueryExecution
from repro.lera.operators import JOIN_NESTED_LOOP
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.workload.engine import (
    QuerySubmission,
    WorkloadExecutor,
    WorkloadResult,
)
from repro.workload.options import WorkloadOptions

#: The experiments reserve 70 of the KSR1's 72 processors (Section 5.5).
RESERVED_PROCESSORS = 70


def default_machine(processors: int = RESERVED_PROCESSORS) -> Machine:
    """A uniform shared-memory machine, as the join experiments assume
    (the Allcache penalty is the subject of Figures 8-9 only)."""
    return Machine.uniform(processors=processors)


def _run_join(build_plan, database: JoinDatabase, threads: int,
              strategy: str | None = None,
              algorithm: str = JOIN_NESTED_LOOP,
              machine: Machine | None = None,
              seed: int = 0, observe: bool = False) -> QueryExecution:
    """Plan one join over *database*, schedule it with *threads*
    threads (*strategy* overrides step 4's choice) and execute it."""
    machine = machine or default_machine()
    plan = build_plan(database.entry_a, database.entry_b, "key", "key",
                      algorithm=algorithm)
    schedule = AdaptiveScheduler(machine).schedule(plan, threads)
    if strategy is not None:
        schedule = schedule.with_strategy("join", strategy)
    return Executor(machine, ExecutionOptions(
        seed=seed, observability=ObservabilityOptions(observe=observe)
    )).execute(plan, schedule)


#: Execute IdealJoin, or AssocJoin (Transmit + pipelined join), over
#: ``database`` with ``threads`` threads; two names over one body.
run_ideal_join = functools.partial(_run_join, ideal_join_plan)
run_assoc_join = functools.partial(_run_join, assoc_join_plan)


def run_concurrent_workload(database: JoinDatabase, count: int,
                            threads: int | None = None,
                            machine: Machine | None = None,
                            workload: WorkloadOptions | None = None,
                            seed: int = 0) -> WorkloadResult:
    """Execute *count* queries concurrently in one shared simulation.

    The queries alternate the paper's two disciplines (triggered
    IdealJoin, pipelined AssocJoin) over *database*, each scheduled
    independently by the adaptive scheduler; the workload layer then
    splits the machine across them and re-grants threads as they
    complete.
    """
    machine = machine or default_machine()
    scheduler = AdaptiveScheduler(machine)
    builders = (ideal_join_plan, assoc_join_plan)
    submissions = []
    for index in range(count):
        builder = builders[index % len(builders)]
        plan = builder(database.entry_a, database.entry_b, "key", "key")
        schedule = scheduler.schedule(plan, threads)
        submissions.append(QuerySubmission(
            f"q{index}", CompiledQuery.of_plan(plan), schedule))
    return WorkloadExecutor(machine, ExecutionOptions(seed=seed),
                            workload).execute(submissions)


def run_overlap_workload(databases: list[JoinDatabase], overlap: float,
                         shared: bool, threads: int | None = None,
                         machine: Machine | None = None,
                         seed: int = 0) -> WorkloadResult:
    """One MPL-``len(databases)`` workload with controlled scan overlap.

    Query ``i`` is the triggered IdealJoin over ``databases[0]`` when
    ``i < round(overlap * mpl)`` and over its own ``databases[i]``
    otherwise, so *overlap* is exactly the fraction of queries whose
    scans (and join — the plans are identical) can fold onto common
    work.  At ``overlap=0.0`` every query reads disjoint fragments and
    the fold pass finds nothing; at ``overlap=1.0`` the whole workload
    is one physical query fanned out ``mpl`` ways.  All queries arrive
    at t=0 with the admission bound lifted to the MPL, so every
    duplicate lands inside the foldability window.
    """
    count = len(databases)
    machine = machine or default_machine()
    scheduler = AdaptiveScheduler(machine)
    common = round(overlap * count)
    submissions = []
    for index in range(count):
        database = databases[0] if index < common else databases[index]
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        schedule = scheduler.schedule(plan, threads)
        submissions.append(QuerySubmission(
            f"q{index}", CompiledQuery.of_plan(plan), schedule))
    options = ExecutionOptions(seed=seed)
    workload = WorkloadOptions(max_concurrent=count, shared=shared)
    return WorkloadExecutor(machine, options, workload).execute(submissions)


def chain_ideal_time(execution: QueryExecution) -> float:
    """Analytic ``Tideal`` for a (possibly pipelined) chain execution.

    Operations of one chain run concurrently, so the chain cannot
    finish before its slowest operation's ideal time; start-up is
    sequential and adds on top (equation 1 applied to the bottleneck).
    """
    bottleneck = max(
        op.profile().ideal_time(op.threads) * execution.dilation
        for op in execution.operations.values())
    return execution.startup_time + bottleneck


def chain_worst_time(execution: QueryExecution) -> float:
    """Analytic ``Tworst`` (equation 2) applied to the bottleneck op."""
    bottleneck = max(
        op.profile().worst_time(op.threads) * execution.dilation
        for op in execution.operations.values())
    return execution.startup_time + bottleneck


def sequential_time(execution: QueryExecution) -> float:
    """The Tseq baseline: total un-dilated activation work.

    A perfectly sequential execution does exactly this work with no
    queue machinery, idling, or parallel start-up — the reference the
    paper's speed-up figures divide by.
    """
    return execution.work

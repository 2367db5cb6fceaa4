"""Multi-user throughput and the [Rahm93] thread-damping hook.

Scheduler step 1 can reduce the single-user thread optimum "according
to the average processor utilization in order to increase the
multi-user throughput".  This bench runs a batch of concurrent joins
at several damping factors and measures makespan and throughput.
"""

from conftest import run_once

from repro.bench.workloads import make_join_database
from repro.compiler.parallelizer import CompiledQuery
from repro.lera.plans import ideal_join_plan
from repro.machine.machine import Machine
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.workload.engine import QuerySubmission, WorkloadExecutor
from repro.workload.options import WorkloadOptions

PROCESSORS = 16
QUERIES = 6


def _run_batch(machine, workload):
    """Run every (plan, schedule) pair at once with its full thread
    demand: the whole batch is admitted together, and the thread budget
    covers the total demand so step 0 never trims a schedule (the bench
    studies the scheduler's damping, not the engine's)."""
    submissions = [
        QuerySubmission(f"q{i}", CompiledQuery(plan, None, None, "bench"),
                        schedule)
        for i, (plan, schedule) in enumerate(workload)]
    demand = sum(sum(op.threads for op in schedule.operations.values())
                 for _, schedule in workload)
    options = WorkloadOptions(max_concurrent=len(workload),
                              thread_budget=demand)
    return WorkloadExecutor(machine, workload=options).execute(submissions)


def _batch(multi_user_factor: float):
    machine = Machine.uniform(processors=PROCESSORS)
    scheduler = AdaptiveScheduler(machine,
                                  multi_user_factor=multi_user_factor)
    workload = []
    for i in range(QUERIES):
        database = make_join_database(20_000, 2_000, degree=40, theta=0.0,
                                      name_a=f"A{i}", name_b=f"B{i}")
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        workload.append((plan, scheduler.schedule(plan)))
    return _run_batch(machine, workload), workload


def test_multiuser_throughput(benchmark, record_result):
    def run():
        return {factor: _batch(factor) for factor in (1.0, 0.5, 0.25)}

    batches = run_once(benchmark, run)

    from repro.bench.harness import ExperimentResult
    result = ExperimentResult(
        experiment_id="multiuser",
        title=(f"{QUERIES} concurrent IdealJoins on {PROCESSORS} processors "
               f"vs scheduler damping factor"),
        x_label="factor",
        x_values=(1.0, 0.5, 0.25),
    )
    result.add_series("makespan",
                      [batches[f][0].makespan for f in (1.0, 0.5, 0.25)])
    result.add_series("threads", [
        sum(e.total_threads for e in batches[f][0].executions.values())
        for f in (1.0, 0.5, 0.25)])
    result.add_series("mean response", [
        batches[f][0].mean_response_time for f in (1.0, 0.5, 0.25)])
    record_result(result)

    full, _ = batches[1.0]
    damped, _ = batches[0.5]
    # Damping cuts total thread allocation substantially ...
    assert (sum(e.total_threads for e in damped.executions.values())
            < sum(e.total_threads for e in full.executions.values()) * 0.75)
    # ... while the saturated machine keeps near-equal throughput.
    assert damped.makespan < full.makespan * 1.25
    # Every query still returns its full result.
    assert all(e.result_cardinality == 2000 for e in full.executions.values())


def test_multiuser_vs_serial(benchmark):
    """Concurrency wins when the machine has spare processors."""
    machine = Machine.uniform(processors=32)
    scheduler = AdaptiveScheduler(machine)

    def run():
        from repro.engine.executor import Executor
        workload = []
        for i in range(4):
            database = make_join_database(10_000, 1_000, degree=20,
                                          theta=0.0,
                                          name_a=f"S{i}", name_b=f"T{i}")
            plan = ideal_join_plan(database.entry_a, database.entry_b,
                                   "key", "key")
            workload.append((plan, scheduler.schedule(plan, 6)))
        concurrent = _run_batch(machine, workload)
        serial = sum(Executor(machine).execute(plan, schedule).response_time
                     for plan, schedule in workload)
        return concurrent, serial

    concurrent, serial = run_once(benchmark, run)
    assert concurrent.makespan < serial * 0.6

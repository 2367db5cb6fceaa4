"""Skew handling: Random vs LPT vs static binding, and why degree helps.

Run:  python examples/skew_handling.py

Reproduces the paper's Section 5.4 story at a laptop-friendly size:
a triggered IdealJoin over a Zipf-skewed relation is executed

* with the classic static one-thread-per-instance binding (baseline),
* with DBS3's shared queues + Random consumption,
* with DBS3's shared queues + LPT consumption,
* and finally at a much higher degree of partitioning,

showing response time and the skew overhead ``v = T/Tideal - 1``.
"""

from repro import (
    ExecutionOptions,
    Executor,
    Machine,
    ObservabilityOptions,
    QuerySchedule,
    StaticScheduler,
    ideal_join_plan,
)
from repro.bench.workloads import make_join_database

CARD_A, CARD_B = 50_000, 5_000
THREADS = 10
THETA = 0.8


def run_case(label, plan, schedule, executor, ideal):
    execution = executor.execute(plan, schedule)
    v = execution.response_time / ideal - 1
    print(f"  {label:<38} {execution.response_time:8.2f}s   v = {v:+.2f}")
    return execution


def main() -> None:
    machine = Machine.uniform(processors=16)
    executor = Executor(machine)

    print(f"IdealJoin, |A|={CARD_A}, |B'|={CARD_B}, Zipf={THETA}, "
          f"{THREADS} threads\n")

    for degree in (20, 400):
        database = make_join_database(CARD_A, CARD_B, degree, THETA)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        probe = executor.execute(plan, QuerySchedule.for_plan(plan, THREADS))
        ideal = (probe.startup_time
                 + probe.operation("join").profile().ideal_time(THREADS))
        skew = database.entry_a.statistics.skew_ratio
        print(f"degree of partitioning = {degree} "
              f"(largest fragment {skew:.1f}x the mean):")
        run_case("static binding (1 thread/instance)", plan,
                 StaticScheduler(machine).schedule(plan), executor, ideal)
        run_case("DBS3 shared queues, Random", plan,
                 QuerySchedule.for_plan(plan, THREADS, strategy="random"),
                 executor, ideal)
        run_case("DBS3 shared queues, LPT", plan,
                 QuerySchedule.for_plan(plan, THREADS, strategy="lpt"),
                 executor, ideal)
        print()

    print("Takeaways (matching the paper):")
    print(" * static binding is at the mercy of the largest fragment;")
    print(" * shared queues balance; LPT schedules the heavy fragments first;")
    print(" * raising the degree of partitioning shrinks the unit of work,")
    print("   making even a heavily skewed join nearly skew-insensitive.")

    print("\nThe straggler, made visible (degree 20, LPT, traced):")
    database = make_join_database(CARD_A // 5, CARD_B // 5, 20, 1.0)
    plan = ideal_join_plan(database.entry_a, database.entry_b, "key", "key")
    traced = Executor(machine, ExecutionOptions(observability=ObservabilityOptions(observe=True))).execute(
        plan, QuerySchedule.for_plan(plan, THREADS, strategy="lpt"))
    print(traced.obs.trace.gantt(width=70))


if __name__ == "__main__":
    main()

"""The KSR1 Allcache memory model (Figures 7-9 of the paper).

Run:  python examples/allcache_memory.py

Runs the same parallel selection with data pre-cached locally versus
starting in remote caches, on the simulated KSR1 (physically
distributed, virtually shared memory, remote line access ~6x local),
and contrasts with a uniform (Encore-style) shared-memory machine.
"""

from repro import (
    Catalog,
    ExecutionOptions,
    Executor,
    Machine,
    QuerySchedule,
    attribute_predicate,
    selection_plan,
)
from repro.bench.workloads import make_selection_table
from repro.engine.executor import PLACEMENT_COLD, PLACEMENT_WARM


def main() -> None:
    catalog = Catalog()
    entry = make_selection_table(cardinality=50_000, degree=100,
                                 catalog=catalog)
    predicate = attribute_predicate(entry.relation.schema, "unique2", "<",
                                    500, selectivity=0.01)
    plan = selection_plan(entry, predicate)

    print("Parallel selection over a 50K-tuple Wisconsin relation")
    print(f"{'threads':>8}  {'Tl local':>9}  {'Tr remote':>9}  "
          f"{'Tr-Tl':>8}  {'penalty':>8}")
    for threads in (5, 10, 20, 30):
        schedule = QuerySchedule.for_plan(plan, threads)
        times = {}
        for placement in (PLACEMENT_WARM, PLACEMENT_COLD):
            machine = Machine.ksr1(processors=32)
            executor = Executor(machine,
                                ExecutionOptions(placement=placement))
            times[placement] = executor.execute(plan, schedule)
        tl = times[PLACEMENT_WARM].response_time
        tr = times[PLACEMENT_COLD].response_time
        print(f"{threads:>8}  {tl:>8.3f}s  {tr:>8.3f}s  "
              f"{tr - tl:>7.3f}s  {(tr - tl) / tr:>7.1%}")

    print("\nThe penalty is a few percent of total time and shrinks with")
    print("the thread count: line shipping is parallelized, exactly the")
    print("paper's Figure 9 behaviour.")

    print("\nOn a uniform shared-memory machine placement is irrelevant:")
    machine = Machine.uniform(processors=32)
    executor = Executor(machine)
    t = executor.execute(plan, QuerySchedule.for_plan(plan, 10)).response_time
    print(f"  uniform machine, 10 threads: {t:.3f}s regardless of placement")

    cold = times[PLACEMENT_COLD].operations["filter"]
    print(f"\nAllcache counters for the last remote run: "
          f"{cold.memory_penalty:.3f}s of virtual time spent shipping lines.")


if __name__ == "__main__":
    main()

"""The four-step adaptive scheduler on a multi-chain query.

Run:  python examples/adaptive_scheduling.py

Builds a Figure-5-style plan — two producer chains materializing into
a final join chain — and shows how the scheduler (1) sizes the thread
budget from estimated complexity, (2) splits it across the chain tree,
(3) splits each chain's share across its operators, and (4) picks
Random or LPT per operator from fragment statistics.
"""

from repro import (
    AdaptiveScheduler,
    Catalog,
    Executor,
    Machine,
    PartitioningSpec,
    assoc_join_plan,
    attribute_predicate,
    generate_wisconsin,
    selection_plan,
)
from repro.bench.workloads import make_join_database
from repro.lera.plans import materialized
from repro.scheduler.complexity import query_complexity


def main() -> None:
    machine = Machine.uniform(processors=32)
    scheduler = AdaptiveScheduler(machine)
    catalog = Catalog()

    # A skewed join database plus an independent Wisconsin relation.
    database = make_join_database(30_000, 3_000, degree=60, theta=0.9,
                                  catalog=catalog)
    wisconsin = catalog.register(generate_wisconsin("W", 10_000, seed=4),
                                 PartitioningSpec.on("unique1", 60))

    # Chain 1: filter W (materialized); chain 2: AssocJoin A with B'.
    predicate = attribute_predicate(wisconsin.relation.schema,
                                    "tenPercent", "=", 0, selectivity=0.1)
    producer = selection_plan(wisconsin, predicate, node_name="w_filter")
    consumer = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
    plan = materialized(producer, consumer, "w_filter", "transmit")

    print("Plan chains (the paper's subqueries):")
    for chain in plan.chains():
        print(f"  {chain.name}: {' -> '.join(chain.node_names())}")

    work = query_complexity(plan, machine.costs)
    print(f"\nEstimated sequential complexity: {work:.1f}s")

    print("\nStep 1 — thread budget chosen from complexity:")
    for label, threads in (("auto", None), ("forced 8", 8)):
        schedule = scheduler.schedule(plan, threads)
        total = sum(s.threads for s in schedule.operations.values())
        print(f"  [{label}] query runs with {total} threads:")
        for node in plan.nodes:
            op = schedule.of(node.name)
            print(f"    {node.name:<10} {node.trigger_mode:<9} "
                  f"x{node.instances:<4} -> {op.threads:>2} threads, "
                  f"{op.strategy}")

    print("\nExecuting with the automatic schedule...")
    schedule = scheduler.schedule(plan)
    execution = Executor(machine).execute(plan, schedule)
    print(f"  response time: {execution.response_time:.2f}s "
          f"(start-up {execution.startup_time:.2f}s)")
    for name, op in execution.operations.items():
        print(f"  {name:<10} {op.activations:>6} activations, "
              f"utilization {op.utilization:.0%}")
    print(f"  result rows: {execution.result_cardinality} "
          f"(filter output + join output)")
    print("\nNote the skewed triggered transmit got LPT while the uniform")
    print("filter kept Random — step 4 reads the fragment statistics.")


if __name__ == "__main__":
    main()

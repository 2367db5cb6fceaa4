"""Multi-chain queries: three-way joins and grouped aggregation.

Run:  python examples/multi_chain_queries.py

Two capabilities beyond the paper's two-plan evaluation:

* a three-way join executed as two chains with a materialized,
  hash-partitioned intermediate (Figure 5's multi-subquery execution);
* pipelined grouped aggregation (COUNT/SUM/MIN/MAX/AVG with GROUP BY),
  where each instance folds its hash bucket of groups and emits them
  when the pipeline closes.
"""

from repro import (
    DBS3,
    AdaptiveScheduler,
    Catalog,
    Executor,
    Machine,
    PartitioningSpec,
    Relation,
    Schema,
    chain_join_plan,
)
from repro.bench.workloads import make_join_database, skewed_fragments


def three_way_join() -> None:
    print("-- Three-way join (two chains, materialized intermediate) -----")
    machine = Machine.uniform(processors=16)
    catalog = Catalog()
    database = make_join_database(20_000, 2_000, degree=40, theta=0.0,
                                  catalog=catalog)
    relation_c, fragments_c = skewed_fragments("C", 5_000, 16, 0.0)
    entry_c = catalog.register_fragments(relation_c,
                                         PartitioningSpec.on("key", 16),
                                         fragments_c)

    plan = chain_join_plan(database.entry_a, database.entry_b,
                           "key", "key", [(entry_c, "key", "key")])
    print("chains:")
    for chain in plan.chains():
        print(f"  {chain.name}: {' -> '.join(chain.node_names())}")

    schedule = AdaptiveScheduler(machine).schedule(plan, 12)
    execution = Executor(machine).execute(plan, schedule)
    store = execution.operation("store1")
    join2 = execution.operation("join2")
    print(f"chain 1 materializes {store.activations} intermediate tuples "
          f"into {store.instances} fragments (co-partitioned with C);")
    print(f"chain 2 starts at t={join2.started_at:.2f}s "
          f"(after the store finishes at {store.finished_at:.2f}s)")
    print(f"result: {execution.result_cardinality} rows "
          f"in {execution.response_time:.2f}s virtual time\n")


def grouped_aggregation() -> None:
    print("-- Grouped aggregation through SQL ------------------------------")
    db = DBS3(processors=16)
    schema = Schema.of_ints("key", "region", "amount")
    rows = [(i, i % 6, (i * 37) % 1000) for i in range(30_000)]
    db.create_table(Relation("Sales", schema, rows), "key", 30)

    sql = ("SELECT region, COUNT(*), SUM(amount), AVG(amount) "
           "FROM Sales WHERE amount >= 100 GROUP BY region")
    print(db.explain(sql, threads=8))
    result = db.query(sql, threads=8)
    print(f"{'region':>7}  {'count':>6}  {'sum':>9}  {'avg':>8}")
    for region, count, total, avg in sorted(result.rows):
        print(f"{region:>7}  {count:>6}  {total:>9.0f}  {avg:>8.2f}")
    print(f"response: {result.response_time:.2f}s virtual time")
    aggregate = result.execution.operation("aggregate")
    print(f"aggregate instances: {aggregate.instances}, "
          f"tuples folded: {aggregate.activations}")


def main() -> None:
    three_way_join()
    grouped_aggregation()


if __name__ == "__main__":
    main()

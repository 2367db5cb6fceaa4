"""Concurrent workloads: several queries sharing one simulated machine.

Run:  python examples/concurrent_workload.py

Opens a :class:`~repro.Session`, submits four joins (two arriving
immediately, two a little later), and lets the workload engine admit
them, split the machine's threads across them by complexity, and
re-grant threads to the survivors as each query completes.  What it
prints is ``WorkloadResult.render()``: the admission/grant/finish event
stream straight off the workload bus, then one line per query — the
same block ``python -m repro run --concurrent 4`` prints.
"""

from repro import DBS3, Session, WorkloadOptions, generate_wisconsin


def main() -> None:
    db = DBS3(processors=32)
    print("Loading Wisconsin relations (A: 30,000 tuples, B: 3,000)...")
    db.create_table(generate_wisconsin("A", 30_000, seed=1), "unique1",
                    degree=60)
    db.create_table(generate_wisconsin("B", 3_000, seed=2), "unique1",
                    degree=60)

    join = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"
    filtered = ("SELECT A.unique1, B.unique2 FROM A JOIN B "
                "ON A.unique1 = B.unique1 WHERE B.two = 0")

    print("\n-- Serial reference (back-to-back, one query at a time) -------")
    serial = sum(db.query(sql).response_time
                 for sql in (join, filtered, join, filtered))
    print(f"back-to-back total: {serial:.3f}s")

    print("\n-- The same four queries through one Session ------------------")
    session: Session = db.session(WorkloadOptions(max_concurrent=3))
    session.submit(join, tag="join-0")
    session.submit(filtered, tag="filter-0")
    session.submit(join, at=0.2, tag="join-1")
    session.submit(filtered, at=0.4, tag="filter-1")
    workload = session.run()              # drives the whole workload once
    print(workload.render())
    print(f"back-to-back : {serial:.4f}s — concurrency gains "
          f"{serial / workload.makespan:.2f}x; "
          f"{workload.throughput:.2f} queries/s, "
          f"mean response {workload.mean_response_time:.3f}s")


if __name__ == "__main__":
    main()

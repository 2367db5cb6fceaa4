"""Command-line demo driver.

Usage::

    python -m repro                 # run the built-in demo
    python -m repro figures         # run the paper's figures at the
                                    # paper's scale against their pins
                                    # (repro.bench.figures.FIGURES);
                                    # exit 1 on any pin or relation
    python -m repro run --concurrent 4 [--shared]
                                    # the multi-query workload demo:
                                    # N queries share one simulation;
                                    # prints the admission/grant
                                    # timeline and the gain over one
                                    # query at a time (--shared: fold
                                    # identical subplans, and the gain
                                    # over private execution)
    python -m repro run --explain --trace-out trace.json \\
                        --events-out events.jsonl
                                    # run one observed query: scheduler
                                    # explain + Chrome trace (open in
                                    # https://ui.perfetto.dev) + JSONL
                                    # event log
    python -m repro diagnose --theta 0.8 --strategy lpt
                                    # run the skewed-join diagnostics
                                    # demo: critical path + imbalance
                                    # doctor
    python -m repro diagnose --from-events events.jsonl
                                    # diagnose a previously exported
                                    # JSONL event log instead
    python -m repro serve --overload 2 --policy edf
                                    # open-loop serving demo: seeded
                                    # arrivals at 2x saturation through
                                    # the overload-protection layer
    python -m repro chaos           # the chaos table against its pins

The CLI demonstrates and holds no gate of its own: ``figures`` and
``chaos`` hand a gate table to :func:`repro.bench.twins.drive`, every
other subcommand prints what one library call returns and exits 0
unless the run itself is inconsistent.

The demo loads two Wisconsin relations, runs each supported query
shape end to end and prints the plans, schedules and virtual-time
metrics — a two-minute tour of the system.
"""

from __future__ import annotations

import argparse
import sys

from repro import DBS3, generate_wisconsin

#: The observed-run default query (a pipelined join, so the export
#: shows both queue disciplines: triggered transmit + pipelined join).
DEFAULT_OBSERVED_SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"


def demo() -> None:
    """Run the guided tour: DDL, four query shapes, metrics."""
    print("DBS3 reproduction demo — EDBT'96 adaptive parallel execution\n")
    db = DBS3(processors=32)
    print("Loading Wisconsin relations A (20K tuples) and B (2K tuples),")
    print("hash partitioned on unique1 into 50 fragments each...\n")
    db.create_table(generate_wisconsin("A", 20_000, seed=1), "unique1", 50)
    db.create_table(generate_wisconsin("B", 2_000, seed=2), "unique1", 50)

    queries = [
        "SELECT unique1, unique2 FROM A WHERE unique1 < 200",
        "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
        ("SELECT A.unique2, B.unique2 FROM A JOIN B "
         "ON A.unique1 = B.unique1 WHERE B.four = 0"),
        "SELECT two, COUNT(*), AVG(unique1) FROM A GROUP BY two",
    ]
    for sql in queries:
        print(f"SQL> {sql}")
        print(db.explain(sql))
        result = db.query(sql)
        print(f"  -> {result.cardinality} rows, "
              f"{result.response_time:.3f}s virtual response time, "
              f"{result.execution.total_threads} threads\n")

    print("Every number above is *virtual time* on the modelled KSR1-class")
    print("machine; the rows are real relational results.  See examples/")
    print("for skew handling, partitioning tuning and the Allcache model.")


def concurrent_run(args: argparse.Namespace) -> int:
    """``run --concurrent N``: the twin table's MPL workload (the joins
    of its ``mpl4`` row, alternating triggered and pipelined), N wide."""
    from repro.adapt.policy import SchedulingPolicy
    from repro.bench import twins
    from repro.bench.runners import run_concurrent_workload
    from repro.bench.workloads import make_join_database
    from repro.engine.executor import ObservabilityOptions
    from repro.obs.export import write_workload_jsonl
    from repro.obs.monitor import default_monitors
    from repro.workload.options import WorkloadOptions

    count = args.concurrent
    database = make_join_database(twins.CARD_A, twins.CARD_B, twins.DEGREE,
                                  theta=0.0)
    options = WorkloadOptions(
        scheduling=SchedulingPolicy(policy=args.policy),
        observability=ObservabilityOptions(
            observe=bool(args.report or args.events_out or args.prom_out),
            monitors=default_monitors() if args.monitors else (),
            profile=args.profile))

    def run(admitted: int, shared: bool):
        # Admitting all N at t=0 puts every duplicate inside the
        # foldability window; the references get the same options.
        return run_concurrent_workload(
            database, count, threads=twins.THREADS,
            workload=options.replace(max_concurrent=admitted, shared=shared))

    result = run(count, args.shared)
    serial = run(1, False).makespan
    print(f"DBS3 concurrent workload demo — {count} queries, one simulation\n")
    print(result.render())
    print(f"one at a time: {serial:.4f}s — concurrency gains "
          f"{serial / result.makespan:.2f}x")
    if args.shared:
        private = run(count, False).makespan
        print(f"private      : {private:.4f}s — folding gains "
              f"{private / result.makespan:.2f}x on top of concurrency")
    for block in (result.report() if args.report else None,
                  result.decisions, result.alerts, result.profile):
        if block is not None:  # None = the feature was not switched on
            print("\n" + block.render())
    if args.prom_out:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(result.metrics.render_prom())
        print(f"\nwrote Prometheus text exposition to {args.prom_out}")
    if args.events_out:
        records = write_workload_jsonl(result, args.events_out)
        print(f"\nwrote {records} workload JSONL records to "
              f"{args.events_out}")
    return 0


def observed_run(sql: str, trace_out: str | None, events_out: str | None,
                 metrics_out: str | None, explain: bool,
                 threads: int | None = None) -> int:
    """Run one query with full observability and export the results."""
    from repro.engine.executor import ExecutionOptions, ObservabilityOptions
    from repro.obs.explain import ScheduleExplanation
    from repro.obs.export import (
        metrics_snapshot,
        verify_against_metrics,
        write_chrome_trace,
        write_jsonl,
    )

    db = DBS3(processors=32, options=ExecutionOptions(
        observability=ObservabilityOptions(observe=True)))
    # B is partitioned on unique2, so a join on unique1 redistributes
    # it — the observed run then shows both queue disciplines: the
    # triggered transmit and the pipelined join it feeds.
    db.create_table(generate_wisconsin("A", 8_000, seed=1), "unique1", 40)
    db.create_table(generate_wisconsin("B", 800, seed=2), "unique2", 40)
    print(f"SQL> {sql}")
    compiled = db.compile(sql)
    explanation = ScheduleExplanation()
    schedule = db.scheduler.schedule(compiled.plan, threads,
                                     explain=explanation)
    execution = db.executor.execute(compiled.plan, schedule)
    if explain:
        print(explanation.render() + "\n")
    print(metrics_snapshot(execution))
    problems = verify_against_metrics(execution)
    if problems:
        print("\nOBS/METRICS MISMATCH:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    if events_out:
        records = write_jsonl(execution, events_out)
        print(f"\nwrote {records} JSONL records to {events_out}")
    if trace_out:
        count = write_chrome_trace(execution, trace_out)
        print(f"wrote {count} Chrome trace events to {trace_out} "
              f"(load in https://ui.perfetto.dev)")
    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(metrics_snapshot(execution) + "\n")
        print(f"wrote metrics snapshot to {metrics_out}")
    return 0


def diagnose_workload_log(path: str, run) -> int:
    """Post-mortem a reloaded *workload* JSONL log.

    Replays the schema-4 records (alerts, profile) and surfaces the
    ``verify_spans`` / ``verify_workload_jsonl`` self-audits that
    otherwise only run inside tests; exits nonzero on any invariant
    violation so CI can gate on a recorded run.
    """
    from types import SimpleNamespace

    from repro.obs.alerts import Alert, AlertBus
    from repro.obs.bus import SCHEDULE_RESPLIT, SCHEDULE_SWITCH
    from repro.obs.export import verify_workload_jsonl
    from repro.obs.spans import assemble_spans, verify_spans
    from repro.prof.profiler import EngineProfiler

    meta = run.meta
    print(f"workload event log: {path}")
    print(f"  schema {run.schema}, {meta.get('queries')} queries, "
          f"makespan {meta.get('makespan'):.4f}s virtual, "
          f"statuses {meta.get('statuses')}")

    if run.alerts:
        bus = AlertBus()
        for record in run.alerts:
            bus.add(Alert.from_json(record))
        print("\n" + bus.render())
    else:
        print("\nno alert records (the run carried no monitor rules)")
    if run.profile is not None:
        print("\n" + EngineProfiler.from_json(run.profile).render())

    decisions = [e for e in run.events
                 if e.kind in (SCHEDULE_RESPLIT, SCHEDULE_SWITCH)]
    if decisions:
        print("\nadaptive scheduling decisions:")
    for event in decisions:  # in the timeline's format
        detail = ", ".join(f"{k}={v}" for k, v in (event.data or {}).items())
        print(f"  t={event.t:8.4f}  {event.kind:<17} {detail}")

    # assemble_spans only reads ``bus.events`` — the reloaded events
    # are live Event objects, so the span model rebuilds faithfully.
    problems: list[str] = []
    try:
        spans = assemble_spans(SimpleNamespace(events=run.events))
        problems += verify_spans(spans, makespan=meta.get("makespan"))
    except Exception as error:  # truncated/garbled stream
        problems.append(f"span assembly failed: {error}")
    problems += verify_workload_jsonl(run)
    print()
    if problems:
        print("WORKLOAD LOG SELF-AUDIT FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("workload log self-audit: spans and metric snapshots are "
          "consistent (verify_spans + verify_workload_jsonl clean)")
    return 0


#: One mode switch per subcommand: the flags that mean something only
#: with it, and the flags that mean something only without it.
MODE_FLAGS = {
    "--concurrent": (
        ("--shared", "--report", "--monitors", "--profile", "--prom-out",
         "--policy"),
        ("--sql", "--threads", "--explain", "--trace-out", "--metrics-out")),
    "--from-events": (
        (), ("--theta", "--strategy", "--threads", "--events-out")),
}


def parse_modes(parser: argparse.ArgumentParser, argv: list[str],
                switch: str) -> argparse.Namespace:
    """Parse *argv*; a flag of the mode *switch* did not select (told
    by a value off its default) is a usage error, exit 2, both ways."""
    def dest(flag: str) -> str:
        return flag.lstrip("-").replace("-", "_")

    args = parser.parse_args(argv)
    needing, excluded = MODE_FLAGS[switch]
    selected = getattr(args, dest(switch)) is not None
    for flag in excluded if selected else needing:
        if getattr(args, dest(flag)) != parser.get_default(dest(flag)):
            parser.error(f"{flag} does not apply with {switch}" if selected
                         else f"{flag} needs {switch}")
    return args


def run_command(argv: list[str]) -> int:
    """``python -m repro run``: one observed query with exports, or —
    with ``--concurrent`` — a telemetry-enabled workload run."""
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="run one observed query (scheduler explain + "
                    "trace/event/metrics exports), or a concurrent "
                    "workload with --concurrent/--report")
    parser.add_argument("--concurrent", type=int, metavar="N", default=None,
                        help="run the N-query concurrent workload instead "
                             "of a single observed query")
    parser.add_argument("--shared", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="with --concurrent: fold identical subplans "
                             "onto shared operators")
    parser.add_argument("--report", action="store_true",
                        help="with --concurrent: collect workload "
                             "telemetry and print the WorkloadReport "
                             "(latency percentiles, admission, grants, "
                             "folds, faults)")
    parser.add_argument("--monitors", action="store_true",
                        help="with --concurrent: install the default "
                             "virtual-time SLO monitor rules and print "
                             "the alert table")
    parser.add_argument("--profile", action="store_true",
                        help="with --concurrent: run the engine "
                             "self-profiler and print the per-subsystem "
                             "wall-clock attribution")
    parser.add_argument("--prom-out", metavar="PATH", default=None,
                        help="with --concurrent: write the final metrics "
                             "in Prometheus text exposition format")
    parser.add_argument("--policy", choices=("static", "adaptive"),
                        default="static",
                        help="with --concurrent: scheduling policy — "
                             "'adaptive' closes the loop (wave-boundary "
                             "grant re-splits, Random->LPT switches) and "
                             "prints the decision log")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace-event JSON (Perfetto)")
    parser.add_argument("--events-out", metavar="PATH",
                        help="write the structured JSONL event log")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the text metrics snapshot")
    parser.add_argument("--explain", action="store_true",
                        help="print the scheduler's four-step decisions")
    parser.add_argument("--sql", default=DEFAULT_OBSERVED_SQL,
                        help="query to observe (default: a pipelined join)")
    parser.add_argument("--threads", type=int, default=None,
                        help="pin the degree of parallelism (default: let "
                             "scheduler step 1 choose)")
    args = parse_modes(parser, argv, "--concurrent")
    if args.concurrent is None:
        return observed_run(args.sql, args.trace_out, args.events_out,
                            args.metrics_out, args.explain, args.threads)
    if args.concurrent < 1:
        parser.error("--concurrent needs at least one query")
    return concurrent_run(args)


def diagnose_command(argv: list[str]) -> int:
    """``python -m repro diagnose``: diagnostics demo / JSONL post-mortem."""
    from repro.bench.runners import run_assoc_join
    from repro.bench.workloads import make_join_database
    from repro.diag import diagnose
    from repro.obs.export import read_jsonl, write_jsonl

    parser = argparse.ArgumentParser(
        prog="python -m repro diagnose",
        description="diagnose a run: critical path + imbalance doctor")
    parser.add_argument("--from-events", metavar="PATH", default=None,
                        help="diagnose a previously exported JSONL event "
                             "log instead of executing a query")
    parser.add_argument("--theta", type=float, default=0.8,
                        help="Zipf skew of the stored operand in the "
                             "diagnostics demo (default 0.8)")
    parser.add_argument("--strategy", choices=("random", "lpt"),
                        default="random",
                        help="join consumption strategy of the demo")
    parser.add_argument("--events-out", metavar="PATH", default=None,
                        help="also export the run's JSONL event log")
    parser.add_argument("--threads", type=int, default=10,
                        help="degree of parallelism of the demo query")
    args = parse_modes(parser, argv, "--from-events")
    if args.from_events:
        run = read_jsonl(args.from_events)
        if run.is_workload:
            return diagnose_workload_log(args.from_events, run)
        print(diagnose(run).render())
        return 0
    # The Figure 12 setup: AssocJoin over a Zipf-skewed stored operand
    # — the workload whose diagnosis the paper motivates.
    print(f"AssocJoin, 12000 x 1200 tuples over 60 fragments, "
          f"theta={args.theta}, {args.threads} threads, "
          f"{args.strategy} consumption\n")
    database = make_join_database(12_000, 1_200, degree=60, theta=args.theta)
    execution = run_assoc_join(database, args.threads,
                               strategy=args.strategy, observe=True)
    print(diagnose(execution).render())
    if args.events_out:
        records = write_jsonl(execution, args.events_out)
        print(f"\nwrote {records} JSONL records to {args.events_out}")
    return 0


def serve_command(argv: list[str]) -> int:
    """``python -m repro serve``: the open-loop serving demo.

    Drives a seeded arrival stream through the overload-protection
    layer (admission policy + bounded queue + load shedding) at a
    multiple of the measured saturation throughput, and prints the
    per-class fate of the overload.  Its claims are gated elsewhere:
    the ``fig_serving`` figure row and the chaos table's audits.
    """
    from repro.obs.bus import SERVE_BACKPRESSURE
    from repro.serve.harness import (
        MAX_CONCURRENT,
        QUEUE_LIMIT,
        decision_digest,
        default_templates,
        measure_saturation,
        run_serving,
        serving_machine,
        serving_stats,
    )
    from repro.serve.policies import POLICIES, ServingPolicy
    from repro.workload.options import WorkloadOptions

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="open-loop serving demo: seeded arrivals through the "
                    "overload-protection layer (pluggable admission "
                    "policy, bounded wait queue, load shedding)")
    parser.add_argument("--arrival", choices=("poisson", "mmpp", "diurnal"),
                        default="poisson",
                        help="arrival process shape (default poisson)")
    parser.add_argument("--rate", type=float, default=None,
                        help="arrivals per virtual second (default: "
                             "--overload times the measured saturation)")
    parser.add_argument("--overload", type=float, default=2.0,
                        help="rate as a multiple of saturation when "
                             "--rate is not given (default 2.0)")
    parser.add_argument("--count", type=int, default=300,
                        help="number of arrivals (default 300)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--policy", choices=POLICIES, default="edf",
                        help="admission policy (default edf)")
    parser.add_argument("--queue-limit", type=int, default=QUEUE_LIMIT,
                        help=f"bounded wait-queue depth (default "
                             f"{QUEUE_LIMIT})")
    parser.add_argument("--unbounded", action="store_true",
                        help="drop the queue bound (no shedding, no "
                             "backpressure — the pure queueing system)")
    parser.add_argument("--mpl", type=int, default=MAX_CONCURRENT,
                        help=f"multiprogramming level (default "
                             f"{MAX_CONCURRENT})")
    parser.add_argument("--shared", action="store_true",
                        help="fold identical subplans of concurrent "
                             "queries onto shared operators")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count needs at least one arrival")

    templates = default_templates()
    machine = serving_machine()
    saturation = measure_saturation(templates, machine=machine,
                                    count=min(args.count, 200),
                                    seed=args.seed, max_concurrent=args.mpl)
    rate = args.rate if args.rate is not None else args.overload * saturation
    limit = None if args.unbounded else args.queue_limit
    workload = WorkloadOptions(
        max_concurrent=args.mpl, shared=args.shared,
        serving=ServingPolicy(policy=args.policy, queue_limit=limit))

    print(f"open-loop serving demo — {args.arrival} arrivals at "
          f"{rate:.1f} q/s ({rate / saturation:.1f}x the saturation "
          f"throughput {saturation:.1f} q/s)")
    print(f"policy={args.policy} queue_limit={limit} mpl={args.mpl} "
          f"count={args.count} seed={args.seed}"
          + (" shared" if args.shared else "") + "\n")

    result = run_serving(templates=templates, arrival=args.arrival,
                         rate=rate, count=args.count, seed=args.seed,
                         machine=machine, workload=workload)
    stats = serving_stats(result)

    class_names = {f"p{t.priority}": t.name for t in templates}
    statuses = " ".join(f"{k}={v}"
                        for k, v in sorted(stats["statuses"].items()))
    print(f"statuses : {statuses}")
    print(f"makespan : {stats['makespan']:.3f}s virtual")
    print(f"goodput  : {stats['goodput']:.1f} q/s completed within SLO")
    print("per class:")
    for klass, row in stats["classes"].items():
        name = class_names.get(klass, klass)
        tail = (f" p50={row['p50']:.3f}s p99={row['p99']:.3f}s"
                if "p99" in row else "")
        print(f"  {klass} {name:<12} submitted={row['submitted']:<4} "
              f"done={row['done']:<4} shed={row['shed']:<3} "
              f"timed_out={row['timed_out']:<3}{tail}")
    transitions = sum(e.kind == SERVE_BACKPRESSURE for e in result.bus.events)
    print(f"backpressure transitions: {transitions}")
    print(f"decision digest: {decision_digest(result)}")
    return 0


def figures_command(argv: list[str]) -> int:
    """``python -m repro figures``: the paper's figures against their pins."""
    import json

    from repro.bench import figures, twins

    parser = argparse.ArgumentParser(
        prog="python -m repro figures",
        description="every figure of the paper's evaluation (and the "
                    "extension sweeps) at the paper's scale, gated like the "
                    "twin table: exact pins, parity and the paper's claims "
                    "as relations; exit 1 on any violation")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the figure rows' pins in "
                             "twins_pins.json from this run (the twin and "
                             "chaos tables' pins are left alone)")
    args = parser.parse_args(argv)
    return twins.drive(figures.FIGURES,
                       json.loads(twins.PINS_PATH.read_text()),
                       record=args.record)


def chaos_command(argv: list[str]) -> int:
    """``python -m repro chaos``: the chaos table, or one seeded row."""
    import json

    from repro.bench import chaos, twins

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="robustness rows (seeded faults, cancellation, folding, "
                    "slowdowns, overload) under the invariant audit, gated "
                    "like the twin table; exit 1 on any violation")
    parser.add_argument("--seed", type=int, default=None,
                        help="run only the seeded fault row, for this seed "
                             "(any seed must pass; one the table does not "
                             "pin is gated on audits and relations alone)")
    args = parser.parse_args(argv)
    pins = json.loads(twins.PINS_PATH.read_text())
    if args.seed is None:
        return twins.drive(chaos.CHAOS, pins)
    row = chaos.seeded(args.seed)
    if row.name not in pins:
        print(f"{row.name} is not pinned: every audit and relation applies, "
              f"the pin gate is skipped")
        pins[row.name] = {label: {"violations": []} for label in row.variants}
    return twins.drive((row,), pins)


#: Subcommand dispatch of the harmonized CLI.
COMMANDS = {
    "run": run_command,
    "diagnose": diagnose_command,
    "figures": figures_command,
    "chaos": chaos_command,
    "serve": serve_command,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    argparse.ArgumentParser(
        prog="python -m repro",
        description="DBS3 reproduction: the guided demo; everything else "
                    "is a subcommand (" + ", ".join(COMMANDS) + ")"
    ).parse_args(argv)
    demo()
    return 0


if __name__ == "__main__":
    sys.exit(main())

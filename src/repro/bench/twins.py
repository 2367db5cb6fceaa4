"""The twin table: within-run pairs and exact virtual pins.

The paper measures every overhead claim (Figures 16-19, Section 5) as
a pair run back to back on one machine.  This module holds the
engine's own claims of that shape — "off is free", "on is cheap",
"virtual time does not move", "folding gains >= 2x" — as one table.
Each :class:`Twin` row names a scenario builder and its labelled
variants; :func:`run` executes them interleaved (a load burst hits
both halves of a pair), :func:`compare` applies four kinds of gate
and :func:`render` prints the result:

* **pins** — every deterministic fact of every variant (virtual
  makespan, rows, alert/decision/status counts) equals the committed
  ``twins_pins.json`` bit for bit; the pins hold no wall clock, so
  they never need re-recording for noise;
* **parity** — variants that must not differ (observed vs bare,
  cold vs warm, ...) agree on every fact they share;
* **relations** — ``adaptive < static``, ``private >= 2.0 * shared``,
  ``coverage >= 0.9``;
* **wall** — in at least one interleaved repeat the second variant
  lands within a ratio (plus :data:`ABSOLUTE_SLACK_S`) of the first.

Division of labour: ``python -m perf_ledger compare`` owns seconds
*across* commits; this table owns pairs *within* one run plus the
exact pins; :data:`repro.bench.chaos.CHAOS` owns the robustness rows
and their audits, and :data:`repro.bench.figures.FIGURES` the paper's
claims at the paper's scale, as rows of the same kind through the same
:func:`drive` and pins file.  No seconds are compared against a
committed record here.

Usage::

    python -m repro.bench.twins [--record]   # --record rewrites the pins
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import operator
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.bench.runners import (
    default_machine,
    run_assoc_join,
    run_concurrent_workload,
    run_ideal_join,
    run_overlap_workload,
)
from repro.bench.workloads import make_join_database
from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
)
from repro.workload.options import WorkloadOptions

#: The one scale: the CI-sized Figure 16 workload.  The paper-sized
#: cells are the perf ledger's ``pipelined_d200`` /
#: ``triggered_d1500_skew`` / ``concurrent_mpl4_observed`` workloads.
CARD_A = 20_000
CARD_B = 2_000
THREADS = 20
#: The mid-range degree, where queue traffic (the instrumented hot
#: path) dominates; every overhead twin runs here.
DEGREE = 200
MPL = 4
#: The fold claim ("at MPL >= 8 with full overlap, >= 2x") is checked
#: at exactly 8.
SHARED_MPL = 8
SHARED_GAIN_MIN = 2.0
#: Slowdown factor of the adaptive gate cell (one slowed cell of
#: :data:`repro.bench.chaos.SLOWDOWN_FACTORS`).
ADAPTIVE_FACTOR = 6.0
#: The serving scenario: open-loop arrivals on the small serving
#: machine (8 processors, MPL 2) where overload is reachable.
SERVING_COUNT = 80
SERVING_SATURATION_COUNT = 60
SERVING_OVERLOAD = 2.0
SERVING_QUEUE_LIMIT = 6
#: Floor on the self-profiler's wall-clock attribution at MPL 4.
PROFILE_COVERAGE_MIN = 0.90
#: Zipf skew of the ``bottleneck`` row's stored operand.
BOTTLENECK_THETA = 0.8

#: Interleaved repeats of a row with a wall gate (others run once:
#: their facts are deterministic and nothing compares their seconds).
REPEATS = 5
#: Wall ratio of a feature that must be free when off or idle.
FREE = 0.05
#: Wall ratio of full observation (bus, probes, span trace) over the
#: bare executor on the pipelined query: what "cheap enough that nobody
#: turns it off" is held to.
OBSERVED = 0.30
#: Wall ratio of the MPL-8 fold cells: sub-100 ms runs on a shared box
#: need the wider tolerance; their strict statements are the virtual
#: pins and relations.
FOLD = 0.20
#: Added on top of every wall ratio: the fastest variants finish in
#: milliseconds, where scheduler jitter alone exceeds any ratio.
ABSOLUTE_SLACK_S = 0.005
#: Facts computed from the wall clock: gated by relations, never pinned.
WALL_DERIVED = frozenset({"coverage"})

PINS_PATH = Path(__file__).with_name("twins_pins.json")
_OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge,
        "in": lambda left, right: left in right}


@dataclass(frozen=True)
class Twin:
    """One row of the table."""

    name: str
    variants: tuple[str, ...]
    #: Sets the scenario up (outside any timed region) and returns one
    #: thunk per variant; a thunk runs its variant and returns its facts.
    build: Callable[[], dict[str, Callable[[], dict]]]
    #: Groups of variants that agree on every fact they share.
    parity: tuple[tuple[str, ...], ...] = ()
    #: ``(left, op, right[, factor])``: ``left op factor * right``, each
    #: side a ``"variant.fact"`` term or a constant (``op`` may be ``in``).
    relations: tuple[tuple, ...] = ()
    #: ``(base, other, ratio)``: one interleaved repeat must put *other*
    #: within ``ratio`` (plus the absolute slack) of *base*.
    wall: tuple[tuple[str, str, float], ...] = ()


@functools.lru_cache(maxsize=None)
def _database(degree: int = DEGREE, copy: int = 0):
    """The join database at *degree* (*copy* tells disjoint twins apart)."""
    return make_join_database(CARD_A, CARD_B, degree, theta=0.0)


def digest(value) -> str:
    """Short stable hash of a deterministically ordered structure: how
    a row, alert, decision or schedule log becomes one fact."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def query_facts(execution, **extra) -> dict:
    return {"virtual_s": execution.response_time,
            "rows": execution.result_cardinality, **extra}


def workload_facts(result, **extra) -> dict:
    return {"virtual_s": result.makespan,
            "rows": sum(e.result_cardinality
                        for e in result.executions.values()), **extra}


def _cell(mode: str, degree: int) -> Twin:
    """One degree x discipline cell of the Figure 16/17 matrix."""
    runner = run_ideal_join if mode == "triggered" else run_assoc_join

    def build():
        database = _database(degree)
        return {"run": lambda: query_facts(runner(database, THREADS))}
    return Twin(f"{mode}@{degree}", ("run",), build)


def _build_query():
    """The pipelined single query through every path that must not
    move it: the bare executor (a one-query workload, the machinery
    behind ``db.query()`` too) and full observation."""
    from repro.lera.plans import assoc_join_plan
    from repro.scheduler.adaptive import AdaptiveScheduler

    database, machine = _database(), default_machine()

    def planned():
        # Plan construction and scheduling are inside the timed region:
        # that is what a query actually costs.
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        return plan, AdaptiveScheduler(machine).schedule(plan, THREADS)

    def executor(**options):
        return query_facts(Executor(
            machine, ExecutionOptions(**options)).execute(*planned()))

    return {
        "executor": executor,
        "observed": lambda: executor(
            observability=ObservabilityOptions(observe=True)),
    }


def _build_mpl4():
    """The MPL-4 concurrent workload bare, with workload telemetry,
    with the default monitor rule pack and self-profiled, next to the
    same four queries run back to back."""
    from repro.obs.monitor import default_monitors

    database, rules = _database(), default_monitors()

    def concurrent(**observability):
        return run_concurrent_workload(
            database, MPL, threads=THREADS, workload=WorkloadOptions(
                observability=ObservabilityOptions(**observability)))

    def back_to_back():
        each = MPL // 2
        return {"virtual_s": (
            run_ideal_join(database, THREADS).response_time * each
            + run_assoc_join(database, THREADS).response_time * each)}

    def monitored():
        result = concurrent(monitors=rules)
        return workload_facts(result, alerts=len(result.alerts))

    def profiled():
        # ``steps``: ready scans made — the machine-independent size of
        # the quiet shortcut (a wake-up charged as arithmetic makes none).
        result = concurrent(profile=True)
        return workload_facts(
            result, coverage=result.profile.coverage(),
            steps=sum(calls for path, (calls, _, _)
                      in result.profile.nodes.items()
                      if path[-1] == "ready_scan"))

    return {
        "bare": lambda: workload_facts(concurrent()),
        "observed": lambda: workload_facts(concurrent(observe=True)),
        "monitored": monitored,
        "profiled": profiled,
        "back_to_back": back_to_back,
    }


def _build_adaptive():
    """The chaos adaptive scenario under both policies: one slowed
    cell, and the uniform cell where the controller sees no signal."""
    from repro.bench.chaos import run_adaptive_workload

    def cell(factor, policy):
        result = run_adaptive_workload(factor, policy)
        return workload_facts(result,
                               decisions=len(result.decisions or ()))

    return {
        "static": lambda: cell(ADAPTIVE_FACTOR, "static"),
        "adaptive": lambda: cell(ADAPTIVE_FACTOR, "adaptive"),
        "uniform_static": lambda: cell(1.0, "static"),
        "uniform_adaptive": lambda: cell(1.0, "adaptive"),
    }


def _build_shared():
    """MPL-8 at 0 % scan overlap (eight disjoint databases: the fold
    pass must find nothing and cost nothing) and at 100 % (eight copies
    of one query: the workload folds to one physical execution), each
    private and shared."""
    databases = [_database(copy=i) for i in range(SHARED_MPL)]

    def cell(overlap, shared):
        return workload_facts(run_overlap_workload(
            databases, overlap, shared, threads=THREADS))

    return {
        "disjoint_private": lambda: cell(0.0, False),
        "disjoint_shared": lambda: cell(0.0, True),
        "overlap_private": lambda: cell(1.0, False),
        "overlap_shared": lambda: cell(1.0, True),
    }


def _build_serving():
    """One seeded arrival sequence under ``serving=None``, under a
    default (FIFO, unbounded) ``ServingPolicy`` that differs in zero
    decisions, and under EDF with a bounded queue at twice the
    measured saturation throughput — that also with one plan per
    arrival instead of one per template."""
    from repro.obs.bus import QUERY_SUBMIT
    from repro.serve import arrivals, harness
    from repro.serve.policies import ServingPolicy
    from repro.workload.engine import WorkloadExecutor

    machine = harness.serving_machine()
    templates = harness.default_templates()
    saturation = harness.measure_saturation(
        templates, machine=machine, count=SERVING_SATURATION_COUNT, seed=0)
    protected = ServingPolicy(policy="edf", queue_limit=SERVING_QUEUE_LIMIT)

    def facts(result):
        statuses = Counter(e.status for e in result.executions.values())
        return {"virtual_s": result.makespan,
                "statuses": dict(sorted(statuses.items())),
                # Every admit / grant / shed / finish (a submit decides
                # nothing, and says more under a serving block).
                "decision_digest": digest([e for e in result.bus.events
                                           if e.kind != QUERY_SUBMIT])}

    def cell(rate, serving):
        return facts(harness.run_serving(
            templates=templates, rate=rate, count=SERVING_COUNT, seed=0,
            machine=machine, observe=False, workload=WorkloadOptions(
                max_concurrent=harness.MAX_CONCURRENT, serving=serving)))

    def fresh_plans():
        # The reference for a template's jobs sharing one plan: each
        # build_submissions call compiles anew, so the i-th submission of
        # the i-th call shares its plan and schedule with no other kept.
        times = arrivals.make_arrival_process(
            "poisson", saturation * SERVING_OVERLOAD).times(SERVING_COUNT, seed=0)
        submissions = [harness.build_submissions(
            templates, times, machine=machine, seed=0)[i]
            for i in range(SERVING_COUNT)]
        return facts(WorkloadExecutor(
            machine, ExecutionOptions(seed=0), WorkloadOptions(
                max_concurrent=harness.MAX_CONCURRENT, serving=protected)
        ).execute(submissions))

    return {
        "off": lambda: cell(saturation, None),
        "fifo": lambda: cell(saturation, ServingPolicy()),
        "protected": lambda: cell(saturation * SERVING_OVERLOAD, protected),
        "fresh_plans": fresh_plans,
    }


def _build_template():
    """The Wisconsin suite's five statements, each through a ``DBS3``
    that has seen no statement, and through one that has run them all:
    every statement a hit in its statement memo."""
    from repro.bench.wisconsin_queries import make_database, standard_suite

    warm = make_database(CARD_B, degree=10)
    statements = [query.sql for query in standard_suite(warm)]

    def facts(db=None):
        handles = [(db or make_database(CARD_B, degree=10)).session().submit(
            sql) for sql in statements]
        results = [handle.result() for handle in handles]
        return {"virtual_s": sum(r.response_time for r in results),
                "rows": sum(r.cardinality for r in results),
                "schedules": digest([h.schedule for h in handles])}

    facts(warm)
    return {"cold": facts, "warm": lambda: facts(warm)}


def _build_bottleneck():
    """The paper's central A/B through the diagnosis: Random against
    LPT on the triggered join over a Zipf-skewed stored operand — did
    the change move the bottleneck, or just the clock?  (On the
    pipelined AssocJoin neither moves: the transmit is the bottleneck.)"""
    from repro.diag import diagnose

    database = make_join_database(CARD_A, CARD_B, DEGREE,
                                  theta=BOTTLENECK_THETA)

    def variant(strategy):
        execution = run_ideal_join(database, THREADS, strategy=strategy,
                                   observe=True)
        diagnosis = diagnose(execution)
        return query_facts(
            execution, critical_path_s=diagnosis.critical_path.length,
            bottleneck=diagnosis.bottleneck,
            top_finding=diagnosis.findings[0].kind)

    return {"random": lambda: variant("random"),
            "lpt": lambda: variant("lpt")}


TABLE: tuple[Twin, ...] = (
    *(_cell(mode, degree) for mode in ("triggered", "pipelined")
      for degree in (20, 200, 1500)),
    Twin("query", ("executor", "observed"), _build_query,
         parity=(("executor", "observed"),),
         wall=(("executor", "observed", OBSERVED),)),
    Twin("mpl4",
         ("bare", "observed", "monitored", "profiled", "back_to_back"),
         _build_mpl4,
         parity=(("bare", "observed", "monitored", "profiled"),),
         relations=(("back_to_back.virtual_s", ">", "bare.virtual_s"),
                    ("profiled.coverage", ">=", PROFILE_COVERAGE_MIN)),
         wall=(("bare", "observed", FREE), ("bare", "monitored", FREE))),
    Twin("adaptive",
         ("static", "adaptive", "uniform_static", "uniform_adaptive"),
         _build_adaptive,
         parity=(("uniform_static", "uniform_adaptive"),),
         relations=(("adaptive.virtual_s", "<", "static.virtual_s"),),
         wall=(("static", "adaptive", FREE),)),
    Twin("shared",
         ("disjoint_private", "disjoint_shared",
          "overlap_private", "overlap_shared"),
         _build_shared,
         relations=(
             ("overlap_private.virtual_s", ">=", "overlap_shared.virtual_s",
              SHARED_GAIN_MIN),
             ("disjoint_shared.virtual_s", "<=", "disjoint_private.virtual_s"),
             ("disjoint_shared.rows", "==", "disjoint_private.rows"),
             ("overlap_shared.rows", "==", "overlap_private.rows")),
         wall=(("disjoint_private", "disjoint_shared", FOLD),
               ("overlap_private", "overlap_shared", FOLD))),
    Twin("serving", ("off", "fifo", "protected", "fresh_plans"),
         _build_serving,
         parity=(("off", "fifo"), ("protected", "fresh_plans")),
         wall=(("off", "fifo", FREE),)),
    Twin("template", ("cold", "warm"), _build_template,
         parity=(("cold", "warm"),)),
    Twin("bottleneck", ("random", "lpt"), _build_bottleneck,
         relations=(("lpt.virtual_s", "<", "random.virtual_s"),
                    ("lpt.critical_path_s", "<", "random.critical_path_s"),
                    ("lpt.bottleneck", "==", "random.bottleneck"))),
)


def run(row: Twin) -> dict:
    """Execute *row*; returns ``{variant: {"facts": ..., "runs": [s]}}``
    with the variants interleaved inside each repeat."""
    variants = row.build()
    record = {label: {"facts": {}, "runs": []} for label in row.variants}
    for _ in range(REPEATS if row.wall else 1):
        for label in row.variants:
            started = time.perf_counter()
            record[label]["facts"] = variants[label]()
            record[label]["runs"].append(time.perf_counter() - started)
    return record


def compare(row: Twin, record: dict, pins: dict) -> list[str]:
    """Every gate of *row* that *record* violates (``[]`` when clean);
    *pins* is the row's ``{variant: {fact: value}}`` entry."""
    problems = []

    def value(term):
        if not isinstance(term, str):
            return term
        label, name = term.split(".")
        return record[label]["facts"][name]

    for label in row.variants:
        facts = record[label]["facts"]
        if label not in pins:
            problems.append(f"{row.name}/{label}: no committed pins")
        for name, want in pins.get(label, {}).items():
            if facts.get(name) != want:
                problems.append(f"{row.name}/{label}: pinned {name} drifted "
                                f"{want!r} -> {facts.get(name)!r}")
    for first, *others in row.parity:
        base = record[first]["facts"]
        for label in others:
            facts = record[label]["facts"]
            for name in sorted(base.keys() & facts.keys()):
                if facts[name] != base[name]:
                    problems.append(
                        f"{row.name}: {label} moved {name} off {first}'s "
                        f"{base[name]!r} -> {facts[name]!r}")
    for left, op, right, *factor in row.relations:
        bound = value(right) * factor[0] if factor else value(right)
        if not _OPS[op](value(left), bound):
            problems.append(f"{row.name}: {left} {op} {right}"
                            f"{f' x {factor[0]}' if factor else ''} does not "
                            f"hold ({value(left)!r} vs {bound!r})")
    for base, other, ratio in row.wall:
        pairs = list(zip(record[base]["runs"], record[other]["runs"]))
        if not any(on <= off * (1.0 + ratio) + ABSOLUTE_SLACK_S
                   for off, on in pairs):
            off, on = min(pairs, key=lambda pair: pair[1] / pair[0])
            problems.append(
                f"{row.name}: no interleaved repeat put {other} within "
                f"{ratio:.0%} + {ABSOLUTE_SLACK_S * 1000:.0f}ms of {base} "
                f"(closest pair {off:.4f}s vs {on:.4f}s)")
    return problems


def render(row: Twin, record: dict) -> str:
    """One line per variant: best wall clock (as a ratio of the row's
    first variant) and the facts."""
    first = min(record[row.variants[0]]["runs"])
    lines = []
    for label in row.variants:
        best = min(record[label]["runs"])
        facts = "  ".join(
            f"{name}={value:.4f}" if isinstance(value, float)
            else f"{name}={value}"
            for name, value in record[label]["facts"].items())
        lines.append(f"{'' if lines else row.name:<21} {label:<17} "
                     f"{best:8.4f}s {best / first:5.2f}x  {facts}")
    return "\n".join(lines)


def drive(table: tuple[Twin, ...], pins: dict, record: bool = False) -> int:
    """Run, print and gate every row of *table* against *pins* (also
    the chaos and figure tables' driver); *record* rewrites the rows of
    *table* in the pins file from this run instead and leaves every
    other entry of *pins* as it was.  Each row's wall seconds and the
    table's total are printed, not gated: where a run's time goes.
    Returns the exit code."""
    problems = []
    started = time.perf_counter()
    for row in table:
        row_started = time.perf_counter()
        outcome = run(row)
        print(render(row, outcome))
        print(f"{'':<21} {'row wall':<17} "
              f"{time.perf_counter() - row_started:8.2f}s")
        if record:
            pins[row.name] = {
                label: {name: value for name, value in entry["facts"].items()
                        if name not in WALL_DERIVED}
                for label, entry in outcome.items()}
        problems += compare(row, outcome, pins.get(row.name, {}))
    if record:  # one variant per line, so a re-record diffs by variant
        PINS_PATH.write_text("{\n" + ",\n".join(
            f' "{name}": {{\n' + ",\n".join(
                f'  "{label}": {json.dumps(facts)}'
                for label, facts in variants.items()) + "\n }"
            for name, variants in pins.items()) + "\n}\n")
    print(f"\n{len(table)} rows in {time.perf_counter() - started:.1f}s wall")
    if problems:
        print("\nGATES VIOLATED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nevery pin, parity, relation and wall gate holds")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="run the twin table against the committed pins")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the twin and chaos tables' pins in "
                             "twins_pins.json from this run (the parity, "
                             "relation and wall gates still apply; the "
                             "figure rows are `python -m repro figures "
                             "--record`)")
    pins = json.loads(PINS_PATH.read_text())
    if not parser.parse_args().record:
        return drive(TABLE, pins)
    from repro.bench.chaos import CHAOS
    return drive(TABLE + CHAOS, pins, record=True)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())

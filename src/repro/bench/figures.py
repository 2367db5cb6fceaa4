"""The figures table: the paper's claims at the paper's scale.

Every figure of the evaluation (Figures 8/9 and 12-19), the extension
sweeps (concurrent throughput, shared-work folding, serving under
overload), the Walton skew taxonomy, the multi-user batch and the seven
design ablations, as rows of the twin machinery: :data:`FIGURES` is a
tuple of :class:`~repro.bench.twins.Twin` rows that
:func:`repro.bench.twins.drive` runs, prints and gates against
``twins_pins.json`` exactly as it does the twin and chaos tables.

A figure row's variants are its sweep points in sweep order — each
reporting ``virtual_s``, ``rows`` and the figure's analytic terms
(``tworst``, ``tideal``, ``pmax``, ``nmax``, ``vworst``) — plus one
last ``shape`` variant that derives the figure's aggregates (spread,
plateau ceiling, slope, arg-min degree, ...) from the points already
run.  Points are computed at most once per ``build``, so any variant,
``shape`` included, can be called alone.  Every fact is pinned bit for
bit; the paper's claims are the rows' ``relations``.

There is one scale, the paper's, declared once per row.  To add a skew
generator, a grid cell or a figure, add a row and record its pins
(``python -m repro figures --record``).

CLI: ``python -m repro figures`` (``make bench``), about a minute.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from repro.analysis.formulas import OperatorProfile, nmax_from_costs
from repro.analysis.speedup import SpeedupCurve
from repro.bench.runners import (
    RESERVED_PROCESSORS,
    chain_ideal_time,
    chain_worst_time,
    default_machine,
    run_assoc_join,
    run_concurrent_workload,
    run_ideal_join,
    run_overlap_workload,
    sequential_time,
)
from repro.bench.skew_taxonomy import (
    make_avs_workload,
    make_jps_workload,
    make_rs_workload,
    make_ss_workload,
)
from repro.bench.twins import Twin, query_facts, workload_facts
from repro.bench.workloads import make_join_database
from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import (
    PLACEMENT_COLD,
    PLACEMENT_WARM,
    ExecutionOptions,
    Executor,
    OperationSchedule,
    QuerySchedule,
)
from repro.errors import ReproError
from repro.lera.operators import JOIN_NESTED_LOOP, JOIN_TEMP_INDEX
from repro.lera.plans import assoc_join_plan, ideal_join_plan, selection_plan
from repro.lera.predicates import attribute_predicate
from repro.machine.machine import Machine
from repro.obs.metrics import percentile
from repro.scheduler.adaptive import AdaptiveScheduler, StaticScheduler
from repro.serve import harness
from repro.serve.policies import ServingPolicy
from repro.storage.catalog import Catalog
from repro.storage.partitioning import PartitioningSpec
from repro.storage.wisconsin import generate_wisconsin
from repro.workload.engine import QuerySubmission, WorkloadExecutor
from repro.workload.options import WorkloadOptions

# -- series arithmetic ----------------------------------------------------------


def spread(values: Sequence[float]) -> float:
    """``(max - min) / min``: how flat a curve is (0 = perfectly flat)."""
    low = min(values)
    if low == 0:
        raise ReproError("spread of a series that touches zero")
    return (max(values) - low) / low


def crossover(below: Sequence[float], above: Sequence[float]) -> int | None:
    """First index at which *below*, having been under *above*, no
    longer is ("X wins until here"); ``None`` if that never happens."""
    for index in range(1, len(below)):
        if (below[index - 1] < above[index - 1]
                and not below[index] < above[index]):
            return index
    return None


# -- the sweep machinery ----------------------------------------------------------

_t, _d, _m = "t{}".format, "d{}".format, "m{}".format


def _tenths(prefix: str) -> Callable[[float], str]:
    """Labels without a dot (a relation term is ``variant.fact``)."""
    return lambda value: f"{prefix}{round(value * 10):02d}"


_z, _x = _tenths("z"), _tenths("x")


def _sweep(xs, label, point: Callable, shape: Callable | None = None) -> dict:
    """The thunks of a sweep: ``point(x)`` under ``label(x)`` for every
    sweep value — run at most once, so any variant can be called alone —
    and ``shape`` over all the points' facts."""
    point = functools.cache(point)
    thunks = {label(x): functools.partial(point, x) for x in xs}
    if shape is not None:
        thunks["shape"] = lambda: shape([point(x) for x in xs])
    return thunks


def _figure(name: str, xs, label, build, *relations) -> Twin:
    """A sweep row: one variant per sweep value, then ``shape``."""
    return Twin(name, (*map(label, xs), "shape"), build, relations=relations)


def _cases(name: str, variants: dict, *relations) -> Twin:
    """A row of independent cases: *variants* maps a label to its thunk."""
    return Twin(name, tuple(variants), lambda: variants, relations=relations)


def _within(term: str, target, tolerance: float) -> tuple[tuple, tuple]:
    """*term* within *tolerance* (a fraction) of *target*, either side."""
    return ((term, ">=", target, 1 - tolerance),
            (term, "<=", target, 1 + tolerance))


# -- Figures 8/9: the Allcache remote-access penalty (Section 5.2) ----------------

#: A parallel selection over the 200K-tuple DewittA, 200 fragments, on
#: the KSR1; below ~5 threads a thread's share overflows its local cache.
FIG08_CARDINALITY = 200_000
FIG08_THREADS = (5, 10, 15, 20, 25, 30)
FIG08_SMALL_THREADS = (2, 3, 4, 6, 8)


def _build_fig08(thread_counts):
    relation = generate_wisconsin("DewittA", FIG08_CARDINALITY, seed=7,
                                  with_strings=True)
    entry = Catalog().register(
        relation, PartitioningSpec.on("unique1", 200))
    plan = selection_plan(entry, attribute_predicate(
        relation.schema, "unique2", "<", FIG08_CARDINALITY // 100,
        selectivity=0.01))

    def point(threads):
        # Every fragment pre-cached by the thread owning its queue (Tl)
        # against every fragment starting remote (Tr).
        schedule = QuerySchedule.for_plan(plan, threads)
        local, remote = (
            Executor(Machine.ksr1(processors=72),
                     ExecutionOptions(placement=placement)
                     ).execute(plan, schedule)
            for placement in (PLACEMENT_WARM, PLACEMENT_COLD))
        tl, tr = local.response_time, remote.response_time
        return {"local_s": tl, "remote_s": tr,
                "rows": remote.result_cardinality,
                "delta_s": tr - tl, "remote_over_local": tr / tl}

    def shape(points):
        deltas = [p["delta_s"] for p in points]
        return {
            "delta_fraction_mean": sum(
                p["delta_s"] / p["remote_s"] for p in points) / len(points),
            "max_delta_step": max(
                later / earlier
                for earlier, later in zip(deltas, deltas[1:]))}

    return _sweep(thread_counts, _t, point, shape)


# -- Figures 12/13: execution time versus skew (Section 5.4) ----------------------

#: |A| = 100K (Zipf-skewed), |B'| = 10K, 200 fragments, 10 threads.
SKEW_CARDS = (100_000, 10_000)
SKEW_DEGREE = 200
SKEW_THREADS = 10
THETAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
#: "LPT stays within 2 % of ideal up to Zipf 0.8."
LPT_FLAT_UNTIL = 0.8


def _build_fig12():
    def point(theta):
        execution = run_assoc_join(
            make_join_database(*SKEW_CARDS, SKEW_DEGREE, theta),
            SKEW_THREADS, strategy="random")
        return query_facts(execution, tworst=chain_worst_time(execution),
                           tideal=chain_ideal_time(execution))

    def shape(points):
        return {
            "spread": spread([p["virtual_s"] for p in points]),
            "max_over_tworst": max(p["virtual_s"] / p["tworst"]
                                   for p in points),
            "min_over_tideal": min(p["virtual_s"] / p["tideal"]
                                   for p in points),
            "distinct_rows": sorted({p["rows"] for p in points})}

    return _sweep(THETAS, _z, point, shape)


def _build_fig13():
    def point(theta):
        database = make_join_database(*SKEW_CARDS, SKEW_DEGREE, theta)
        random_run = run_ideal_join(database, SKEW_THREADS, strategy="random")
        lpt_run = run_ideal_join(database, SKEW_THREADS, strategy="lpt")
        return {"random_s": random_run.response_time,
                "lpt_s": lpt_run.response_time,
                "rows": random_run.result_cardinality,
                "tworst": chain_worst_time(random_run),
                "tideal": chain_ideal_time(random_run),
                "pmax": random_run.operation("join").profile().max_cost}

    def shape(points):
        flat = points[:THETAS.index(LPT_FLAT_UNTIL) + 1]
        passes = crossover([p["pmax"] for p in points],
                           [p["tideal"] for p in points])
        return {
            "max_lpt_over_bound_until_flat": max(
                p["lpt_s"] / max(p["tideal"], p["pmax"]) for p in flat),
            "max_random_over_tworst": max(p["random_s"] / p["tworst"]
                                          for p in points),
            "pmax_passes_tideal_at": THETAS[passes]}

    return _sweep(THETAS, _z, point, shape)


# -- Figures 14/15: speed-up versus threads (Section 5.5) -------------------------

#: |A| = 200K, |B'| = 20K, 200 fragments, 70 of 72 processors reserved.
SPEEDUP_CARDS = (200_000, 20_000)
SPEEDUP_THREADS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
#: Section 5.5: "nmax = 6 with Zipf = 1, 19 with 0.6 and 40 with 0.4".
PAPER_NMAX = {"zipf1": 6, "zipf06": 19, "zipf04": 40}
#: Equation (3)'s worked example: with Zipf = 1 over 200 fragments
#: Pmax = 34 P, so v <= 34 (n - 1) / |B'| (0.117 at 70 threads).
ZIPF1_PMAX_OVER_P = 34


def _speedup_sweep(runner, strategy, skews: dict, shape,
                   terms=lambda execution: {}):
    """Figures 14/15: per thread count, the speed-up ``Tseq /
    response`` at each skew level.  *skews* maps a fact suffix to its
    Zipf factor; *terms* adds the figure's own facts of one execution."""
    databases = {suffix: make_join_database(*SPEEDUP_CARDS, SKEW_DEGREE, theta)
                 for suffix, theta in skews.items()}

    def point(threads):
        facts = {}
        for suffix, database in databases.items():
            execution = runner(database, threads, strategy=strategy)
            work = sequential_time(execution)
            facts |= {name + suffix: value for name, value in query_facts(
                execution, work=work, speedup=work / execution.response_time,
                **terms(execution)).items()}
        return facts

    return _sweep(SPEEDUP_THREADS, _t, point, shape)


def _build_fig14():
    def shape(points):
        # 1 - skewed / unskewed speed-up against equation (3)'s bound.
        return {"max_gap_over_bound": max(
            1 - p["speedup_zipf1"] / p["speedup"]
            - ZIPF1_PMAX_OVER_P * (min(threads, RESERVED_PROCESSORS) - 1)
            / SPEEDUP_CARDS[1]
            for threads, p in zip(SPEEDUP_THREADS, points))}

    return _speedup_sweep(run_assoc_join, "random",
                          {"": 0.0, "_zipf1": 1.0}, shape)


def _build_fig15():
    skews = {"": 0.0, "_zipf04": 0.4, "_zipf06": 0.6, "_zipf1": 1.0}

    def shape(points):
        facts = {}
        for suffix in skews:
            curve = SpeedupCurve(SPEEDUP_THREADS, tuple(
                p["speedup" + suffix] for p in points))
            facts |= {"peak" + suffix: curve.peak,
                      "ceiling" + suffix: curve.ceiling()}
        return facts

    return _speedup_sweep(
        run_ideal_join, "lpt", skews, shape,
        terms=lambda execution: {"nmax": nmax_from_costs(
            execution.operation("join").activation_costs)})


# -- Figures 16/17: a high degree of partitioning (Section 5.6.1) -----------------

#: Unskewed, 20 threads; Figure 16 on 100K x 10K with the nested loop,
#: Figure 17 on 500K x 50K with a temporary index built on the fly.
DEGREE_THREADS = 20
FIG16_DEGREES = (20, 250, 500, 750, 1000, 1250, 1500)
FIG17_CARDS = (500_000, 50_000)
FIG17_DEGREES = (40, 250, 500, 750, 1000, 1250, 1500)


def _both_joins(cards, degree, algorithm) -> dict:
    database = make_join_database(*cards, degree, theta=0.0)
    ideal = run_ideal_join(database, DEGREE_THREADS, algorithm=algorithm)
    assoc = run_assoc_join(database, DEGREE_THREADS, algorithm=algorithm)
    return {"ideal_s": ideal.response_time, "assoc_s": assoc.response_time,
            "rows": ideal.result_cardinality}


def _build_fig16():
    times = functools.cache(functools.partial(
        _both_joins, SKEW_CARDS, algorithm=JOIN_NESTED_LOOP))
    base = FIG16_DEGREES[0]

    def point(degree):
        # The paper's method: nested-loop work scales as 1/d, so the
        # time above T(base) * base / d is queue-machinery overhead.
        return {**times(degree), **{
            f"{join}_overhead_s":
                times(degree)[f"{join}_s"]
                - times(base)[f"{join}_s"] * base / degree
            for join in ("ideal", "assoc")}}

    def shape(points):
        span = FIG16_DEGREES[-1] - base
        return {f"slope_{join}_ms": (
            points[-1][f"{join}_overhead_s"] - points[0][f"{join}_overhead_s"]
        ) / span * 1000 for join in ("ideal", "assoc")}

    return _sweep(FIG16_DEGREES, _d, point, shape)


def _build_fig17():
    def shape(points):
        facts = {}
        for join in ("ideal", "assoc"):
            low, degree = min((p[f"{join}_s"], degree)
                              for p, degree in zip(points, FIG17_DEGREES))
            facts |= {f"{join}_min_s": low, f"{join}_min_degree": degree}
        return facts

    return _sweep(FIG17_DEGREES, _d, functools.partial(
        _both_joins, FIG17_CARDS, algorithm=JOIN_TEMP_INDEX), shape)


# -- Figures 18/19: a high degree of partitioning versus skew (Section 5.6.2) -----

#: IdealJoin, LPT, 20 threads, Zipf 0.6 against Zipf 0 on 100K x 10K.
FIG18_DEGREES = (40, 100, 250, 500, 750, 1000, 1250, 1500)
FIG18_THETA = 0.6
#: "Pipelined AssocJoin shows v(0.6) < 0.03 at any degree", checked here.
FLATNESS_DEGREES = (40, 250, 750, 1500)
ASSOC_V_LIMIT = 0.03
#: From here on v has collapsed.
HIGH_DEGREE = 500


@functools.cache
def _fig18_point(degree: int) -> dict:
    """``v(0.6) = T(0.6) / T(0) - 1`` (equation 1 solved for v) for
    both join algorithms, and equation (3)'s ``vworst`` with ``a =
    degree``.  Cached for the process: Figure 19 is read off the
    temp-index half of this sweep."""
    plain, skewed = (make_join_database(*SKEW_CARDS, degree, theta)
                     for theta in (0.0, FIG18_THETA))
    facts = {}

    def overhead(name, runner, **options):
        t0, t = (runner(database, DEGREE_THREADS, **options).response_time
                 for database in (plain, skewed))
        facts.update({f"{name}_t0_s": t0, f"{name}_s": t,
                      f"v_{name}": t / t0 - 1.0})

    overhead("nested", run_ideal_join, strategy="lpt",
             algorithm=JOIN_NESTED_LOOP)
    overhead("index", run_ideal_join, strategy="lpt",
             algorithm=JOIN_TEMP_INDEX)
    if degree in FLATNESS_DEGREES:
        overhead("assoc", run_assoc_join)
    facts["vworst"] = OperatorProfile.of(
        skewed.entry_a.statistics.cardinalities).v_bound(DEGREE_THREADS)
    return facts


def _build_fig18():
    def shape(points):
        both = [(p[f"v_{name}"], p["vworst"], degree)
                for p, degree in zip(points, FIG18_DEGREES)
                for name in ("nested", "index")]
        return {
            # Known divergence (EXPERIMENTS.md): the paper reads 2.5-3.
            "v_at_40_nested": points[0]["v_nested"],
            "v_at_40_index": points[0]["v_index"],
            "max_v_at_high_degree": max(v for v, _, degree in both
                                        if degree >= HIGH_DEGREE),
            "max_algorithm_gap": max(abs(p["v_nested"] - p["v_index"])
                                     for p in points),
            "max_v_over_vworst": max(v / vworst for v, vworst, _ in both)}

    return _sweep(FIG18_DEGREES, _d, _fig18_point, shape)


def _build_fig19():
    def point(degree):
        # saved(d) = T(0.6, d_min) - T(0.6, d), temp-index IdealJoin.
        at, lowest = _fig18_point(degree), _fig18_point(FIG18_DEGREES[0])
        return {"virtual_s": at["index_s"], "t0_s": at["index_t0_s"],
                "saved_s": lowest["index_s"] - at["index_s"]}

    def shape(points):
        return {"max_saved_s": max(p["saved_s"] for p in points),
                "min_saved_above_lowest_s": min(p["saved_s"]
                                                for p in points[1:]),
                "min_skewed_s": min(p["virtual_s"] for p in points)}

    return _sweep(FIG18_DEGREES, _d, point, shape)


# -- beyond the paper: concurrency, sharing, serving ------------------------------

#: The Figure 12/13 database under several queries at once; a fixed
#: per-query degree of parallelism, so every MPL runs the same queries.
MPL_THREADS = 24
LEVELS = (1, 2, 3, 4, 6, 8)
SHARING_LEVELS = (1, 2, 4, 8)
OVERLAPS = (0, 50, 100)


def _build_concurrent():
    """The same bag of N queries back to back (each alone in its own
    simulation) and concurrently (one shared simulation), sweeping N."""
    database = make_join_database(*SKEW_CARDS, SKEW_DEGREE, theta=0.0)
    machine = default_machine()
    alone = functools.cache(lambda runner: runner(
        database, MPL_THREADS, machine=machine).response_time)

    def point(level):
        back_to_back = sum(alone((run_ideal_join, run_assoc_join)[index % 2])
                           for index in range(level))
        # True multiprogramming levels, not a 4-deep admission queue.
        result = run_concurrent_workload(
            database, level, threads=MPL_THREADS, machine=machine,
            workload=WorkloadOptions(max_concurrent=level))
        return workload_facts(result, back_to_back_s=back_to_back,
                              throughput_qps=result.throughput,
                              speedup=back_to_back / result.makespan)

    return _sweep(LEVELS, _m, point)


def _build_sharing():
    """The same submissions private and with identical subplans folded,
    at every (MPL, scan overlap) point."""
    databases = [make_join_database(*SKEW_CARDS, SKEW_DEGREE, theta=0.0)
                 for _ in range(max(SHARING_LEVELS))]

    def rows(result):
        return [result.execution(tag).result_cardinality
                for tag in result.order]

    def point(level):
        facts = {"private_rows": [], "shared_rows": []}
        for percent in OVERLAPS:
            private, shared = (run_overlap_workload(
                databases[:level], percent / 100, fold, threads=MPL_THREADS)
                for fold in (False, True))
            facts |= {f"private_s_o{percent}": private.makespan,
                      f"shared_s_o{percent}": shared.makespan,
                      f"gain_o{percent}": private.makespan / shared.makespan}
            facts["private_rows"].append(rows(private))
            facts["shared_rows"].append(rows(shared))
        return facts

    def shape(points):
        return {"shared_spread_o100": spread([p["shared_s_o100"]
                                              for p in points])}

    return _sweep(SHARING_LEVELS, _m, point, shape)


#: Arrival-rate multipliers over the measured saturation throughput,
#: and queries per sweep point.
MULTIPLIERS = (0.5, 1.0, 1.5, 2.0, 3.0)
SERVING_COUNT = 1000


def _build_serving():
    """One seeded Poisson arrival sequence per rate under three
    disciplines: FIFO with an unbounded queue and no deadlines (the pure
    queueing system), EDF with a bounded queue, strict priority with a
    bounded queue.  ``replay`` / ``replay_twin``: one seed twice,
    decision for decision."""
    machine, templates = harness.serving_machine(), harness.default_templates()
    saturation = harness.measure_saturation(templates, machine=machine,
                                            count=200, seed=0)
    top = max(templates, key=lambda template: template.priority)
    bounded = {policy: ServingPolicy(policy=policy,
                                     queue_limit=harness.QUEUE_LIMIT)
               for policy in ("edf", "priority")}

    def serve(serving, **arrivals):
        return harness.run_serving(
            templates=templates, machine=machine, workload=WorkloadOptions(
                max_concurrent=harness.MAX_CONCURRENT, serving=serving),
            **arrivals)

    def p99(result, prefix=""):
        # None, never NaN: NaN != NaN would make a pin drift forever.
        done = [execution.response_time
                for tag, execution in result.executions.items()
                if tag.startswith(prefix) and execution.status == "done"]
        return percentile(done, 99) if done else None

    def point(multiplier):
        at = dict(rate=saturation * multiplier, count=SERVING_COUNT, seed=0)
        fifo = serve(ServingPolicy(), timeouts=False, **at)
        edf = harness.serving_stats(serve(bounded["edf"], **at))
        priority = serve(bounded["priority"], **at)
        return {"virtual_s": edf["makespan"],
                "fifo_p99_s": p99(fifo),
                "fifo_top_p99_s": p99(fifo, top.name),
                "edf_goodput_qps": edf["goodput"],
                "edf_shed": edf["statuses"].get("shed", 0),
                "edf_done": edf["statuses"].get("done", 0),
                "priority_top_p99_s": p99(priority, top.name),
                "priority_shed": harness.serving_stats(
                    priority)["statuses"].get("shed", 0)}

    def shape(points):
        breaks = crossover([p["fifo_top_p99_s"] for p in points],
                           [top.slo] * len(points))
        return {"saturation_qps": saturation, "top_class_slo_s": top.slo,
                "fifo_breaks_slo_at": MULTIPLIERS[breaks]}

    def replay():
        result = serve(bounded["edf"], rate=60.0, count=200, seed=7)
        return workload_facts(
            result, decision_digest=harness.decision_digest(result)[:16])

    return {**_sweep(MULTIPLIERS, _x, point, shape),
            "replay": replay, "replay_twin": replay}


# -- the Walton skew taxonomy (Figure 6) and the multi-user batch -----------------


def _taxonomy(make_workload) -> dict:
    """The filter-join pipeline over the workload of one skew class;
    each lights up its own measurable signature."""
    plan = make_workload().plan
    execution = Executor(Machine.uniform(processors=16)).execute(
        plan, QuerySchedule.for_plan(plan, 6))
    join, scan = execution.operation("join"), execution.operation("filter")

    def skew(values):  # max / mean
        return OperatorProfile.of(values).skew_factor

    return query_facts(
        execution,
        join_cost_skew=skew(join.activation_costs),
        filter_output_skew=skew(scan.activation_outputs),
        join_queue_imbalance=join.queue_imbalance(),
        join_output_skew=skew(join.activation_outputs))


def _build_multiuser():
    """Scheduler step 1's [Rahm93] hook: six concurrent IdealJoins on 16
    processors at three thread-damping factors; and four joins on a
    machine with spare processors, concurrent against back to back."""
    def damped(factor):
        machine = Machine.uniform(processors=16)
        scheduler = AdaptiveScheduler(machine, multi_user_factor=factor)
        submissions = []
        for index in range(6):
            database = make_join_database(
                20_000, 2_000, degree=40, theta=0.0,
                name_a=f"A{index}", name_b=f"B{index}")
            plan = ideal_join_plan(database.entry_a, database.entry_b,
                                   "key", "key")
            submissions.append(QuerySubmission(
                f"q{index}", CompiledQuery(plan, None, None, "bench"),
                scheduler.schedule(plan)))
        # The whole batch is admitted at once and the budget covers its
        # total demand, so step 0 never trims what the scheduler damped.
        demand = sum(op.threads for submission in submissions
                     for op in submission.schedule.operations.values())
        result = WorkloadExecutor(machine, workload=WorkloadOptions(
            max_concurrent=len(submissions),
            thread_budget=demand)).execute(submissions)
        executions = result.executions.values()
        return workload_facts(
            result, threads=sum(e.total_threads for e in executions),
            mean_response_s=result.mean_response_time,
            distinct_rows=sorted({e.result_cardinality for e in executions}))

    spare = Machine.uniform(processors=32)
    databases = [make_join_database(10_000, 1_000, degree=20, theta=0.0)
                 for _ in range(4)]
    return {
        "f100": lambda: damped(1.0),
        "f50": lambda: damped(0.5),
        "f25": lambda: damped(0.25),
        "concurrent": lambda: workload_facts(run_overlap_workload(
            databases, 0.0, False, threads=6, machine=spare)),
        "serial": lambda: {"virtual_s": sum(
            run_ideal_join(database, 6, machine=spare).response_time
            for database in databases)},
    }


# -- ablations: one mechanism of the execution model off (DESIGN.md) --------------

ABLATION_CARDS = (50_000, 5_000)
ABLATION_DEGREE = 100
ABLATION_THREADS = 10


def _ablation(theta, schedule, degree=ABLATION_DEGREE,
              build_plan=ideal_join_plan, options=None):
    """Facts of one ablation run on 32 processors; *schedule* maps
    ``(machine, plan)`` to the query's schedule."""
    database = make_join_database(*ABLATION_CARDS, degree, theta)
    plan = build_plan(database.entry_a, database.entry_b, "key", "key")
    machine = Machine.uniform(processors=32)
    execution = Executor(machine, options).execute(plan,
                                                   schedule(machine, plan))
    join, transmit = (execution.operations.get(name)
                      for name in ("join", "transmit"))
    return query_facts(
        execution, expected_rows=database.expected_matches,
        parallel_s=execution.response_time - execution.startup_time,
        balanced_s=join.work / join.threads,
        pmax=max(join.activation_costs),
        secondary_accesses=join.secondary_accesses,
        dequeue_batches=join.dequeue_batches,
        transmit_s=transmit and transmit.response_time)


def _pool(strategy):
    return lambda machine, plan: QuerySchedule.for_plan(
        plan, ABLATION_THREADS, strategy=strategy)


def _pipeline(transmit, join, **join_options):
    return lambda machine, plan: QuerySchedule({
        "transmit": OperationSchedule(transmit),
        "join": OperationSchedule(join, **join_options)})


ABLATIONS = (
    # Decoupled pools sharing queues against the classic one thread per
    # instance, under high skew.
    _cases("ablation_binding", {
        "adaptive": functools.partial(
            _ablation, 1.0, lambda machine, plan: AdaptiveScheduler(
                machine).schedule(plan, total_threads=20)),
        "static": functools.partial(
            _ablation, 1.0, lambda machine, plan: StaticScheduler(
                machine).schedule(plan))},
        ("adaptive.rows", "==", "static.rows"),
        ("adaptive.virtual_s", "<", "static.virtual_s"),
        ("static.secondary_accesses", "==", 0)),
    # Step 4's choice: LPT's edge appears exactly for skewed triggered
    # operators; on uniform data the choice is immaterial.
    _cases("ablation_strategy", {
        f"{data}_{strategy}": functools.partial(_ablation, theta,
                                                _pool(strategy))
        for data, theta in (("skewed", 0.8), ("uniform", 0.0))
        for strategy in ("random", "lpt")},
        ("skewed_lpt.virtual_s", "<=", "skewed_random.virtual_s"),
        *_within("uniform_lpt.virtual_s", "uniform_random.virtual_s", 0.05)),
    # Figure 4's IntCache: larger batches cut queue-mutex traffic but
    # coarsen the unit of balancing, so the skew tail grows.
    _cases("ablation_cache", {
        f"cache{size}": functools.partial(
            _ablation, 1.0, _pipeline(2, 8, cache_size=size),
            build_plan=assoc_join_plan)
        for size in (1, 16, 64)},
        ("cache64.dequeue_batches", "<", "cache1.dequeue_batches", 0.25),
        ("cache64.virtual_s", ">=", "cache1.virtual_s", 0.98),
        *((f"cache{size}.rows", "==", f"cache{size}.expected_rows")
          for size in (1, 16, 64))),
    # d >> n against d = n (partitioning dictates parallelism), LPT.
    _cases("ablation_degree", {
        "fine": functools.partial(_ablation, 0.8, _pool("lpt"), degree=200),
        "coarse": functools.partial(_ablation, 0.8, _pool("lpt"),
                                    degree=ABLATION_THREADS)},
        ("fine.virtual_s", "<", "coarse.virtual_s")),
    # The paper's future-work extension: chunked triggers give a
    # low-degree triggered join pipeline-like skew resistance.
    _cases("ablation_grain", {
        f"grain{grain}": functools.partial(
            _ablation, 1.0, _pool("lpt"), degree=10,
            build_plan=functools.partial(ideal_join_plan, grain=grain))
        for grain in (1, 4, 16)},
        ("grain4.rows", "==", "grain1.rows"),
        ("grain16.rows", "==", "grain1.rows"),
        ("grain4.virtual_s", "<", "grain1.virtual_s"),
        ("grain16.virtual_s", "<", "grain4.virtual_s"),
        ("grain16.parallel_s", "<", "grain16.balanced_s", 1.35),
        ("grain1.virtual_s", ">=", "grain1.pmax")),
    # Bounded activation queues (Figure 4's NotFull condition) throttle
    # the transmit producer without changing results.
    _cases("ablation_backpressure", {
        label: functools.partial(
            _ablation, 0.0, _pipeline(4, 4), build_plan=assoc_join_plan,
            options=ExecutionOptions(queue_capacity=capacity))
        for label, capacity in (("capacity1", 1), ("capacity32", 32),
                                ("unbounded", None))},
        ("capacity1.rows", "==", "unbounded.rows"),
        ("capacity32.rows", "==", "unbounded.rows"),
        ("capacity1.virtual_s", ">=", "unbounded.virtual_s"),
        ("capacity32.virtual_s", ">=", "unbounded.virtual_s"),
        ("capacity1.transmit_s", ">=", "unbounded.transmit_s")),
    # Main-first consumption: on uniform data in continuous flow,
    # threads stay on their own queues.
    _cases("ablation_main_queue", {
        "run": functools.partial(_ablation, 0.0, _pool("random"))},
        ("run.secondary_accesses", "<=", "run.dequeue_batches", 0.25)),
)


# -- the table --------------------------------------------------------------------

_LOW_SKEW = [_z(theta) for theta in (0.0, 0.1, 0.2, 0.3)]
_HIGH_SKEW = [_z(theta) for theta in (0.8, 0.9, 1.0)]

FIGURES: tuple[Twin, ...] = (
    _figure("fig08_09", FIG08_THREADS, _t,
            functools.partial(_build_fig08, FIG08_THREADS),
        *((f"t{n}.remote_s", ">", f"t{n}.local_s") for n in FIG08_THREADS),
        ("shape.delta_fraction_mean", ">", 0.0),
        ("shape.delta_fraction_mean", "<", 0.10),
        ("t5.delta_s", ">", "t30.delta_s"),
        ("shape.max_delta_step", "<=", 1.10)),
    _figure("fig08_small_threads", FIG08_SMALL_THREADS, _t,
            functools.partial(_build_fig08, FIG08_SMALL_THREADS),
        ("t2.remote_over_local", "<", "t8.remote_over_local", 1.02)),
    _figure("fig12", THETAS, _z, _build_fig12,
        ("shape.spread", "<", 0.05),
        ("shape.max_over_tworst", "<=", 1.03),
        ("shape.min_over_tideal", ">=", 0.98),
        ("shape.distinct_rows", "==", [SKEW_CARDS[1]])),
    _figure("fig13", THETAS, _z, _build_fig13,
        *((f"{z}.{strategy}_s", "<=", f"{z}.tideal", 1.15)
          for z in _LOW_SKEW for strategy in ("random", "lpt")),
        *((f"{z}.lpt_s", "<=", f"{z}.random_s", 1.02) for z in _HIGH_SKEW),
        ("shape.max_lpt_over_bound_until_flat", "<=", 1.02),
        ("z10.pmax", ">", "z10.tideal"),
        ("z10.lpt_s", ">=", "z10.pmax"),
        ("shape.pmax_passes_tideal_at", ">", LPT_FLAT_UNTIL),
        ("shape.max_random_over_tworst", "<=", 1.0)),
    _figure("fig14", SPEEDUP_THREADS, _t, _build_fig14,
        ("t70.speedup", ">", 60),
        ("shape.max_gap_over_bound", "<", 0.05),
        ("t100.speedup_zipf1", "<=", "t70.speedup_zipf1", 1.05),
        ("t100.speedup", "<=", "t70.speedup", 1.05)),
    _figure("fig15", SPEEDUP_THREADS, _t, _build_fig15,
        ("t70.speedup", ">", 60),
        *(gate for skew, nmax in PAPER_NMAX.items() for gate in (
            *_within(f"shape.ceiling_{skew}", nmax, 0.20),
            *_within(f"t10.nmax_{skew}", nmax, 0.15))),
        ("shape.peak_zipf1", "<", "shape.peak_zipf06"),
        ("shape.peak_zipf06", "<", "shape.peak_zipf04"),
        ("shape.peak_zipf04", "<=", "shape.peak"),
        ("t70.speedup_zipf1", "<=", "t30.speedup_zipf1", 1.10)),
    _figure("fig16", FIG16_DEGREES, _d, _build_fig16,
        ("d1500.ideal_overhead_s", ">", "d20.ideal_overhead_s"),
        ("d1500.assoc_overhead_s", ">", "d20.assoc_overhead_s"),
        ("shape.slope_assoc_ms", ">", "shape.slope_ideal_ms", 4),
        ("shape.slope_ideal_ms", ">=", 0.2),
        ("shape.slope_ideal_ms", "<=", 1.0),
        ("shape.slope_assoc_ms", ">=", 2.0),
        ("shape.slope_assoc_ms", "<=", 8.0),
        ("d1500.ideal_s", "<", "d20.ideal_s", 0.1)),
    _figure("fig17", FIG17_DEGREES, _d, _build_fig17,
        *((f"d{d}.assoc_s", ">", f"d{d}.ideal_s") for d in FIG17_DEGREES),
        ("shape.ideal_min_s", "<", "d40.ideal_s", 0.9),
        ("shape.ideal_min_degree", ">=", 500),
        # Known divergence (EXPERIMENTS.md): pinned at 40, paper ~1000.
        ("shape.assoc_min_degree", "<", "shape.ideal_min_degree"),
        ("d1500.assoc_s", ">", "shape.assoc_min_s")),
    _figure("fig18", FIG18_DEGREES, _d, _build_fig18,
        ("d40.v_nested", ">", 0.5),
        ("d40.v_index", ">", 0.5),
        ("shape.max_v_at_high_degree", "<", 0.10),
        ("shape.max_algorithm_gap", "<", 0.35),
        ("shape.max_v_over_vworst", "<=", 1.0),
        *((f"d{d}.v_assoc", "<", ASSOC_V_LIMIT) for d in FLATNESS_DEGREES)),
    _figure("fig19", FIG18_DEGREES, _d, _build_fig19,
        ("shape.min_saved_above_lowest_s", ">", 0),
        ("shape.max_saved_s", ">", "d40.t0_s", 0.5),
        ("shape.min_skewed_s", "<", "d40.virtual_s", 0.7)),
    Twin("fig_concurrent", tuple(map(_m, LEVELS)), _build_concurrent,
         relations=(
             ("m1.virtual_s", "==", "m1.back_to_back_s"),
             ("m1.speedup", "==", 1.0),
             *((f"m{n}.virtual_s", "<", f"m{n}.back_to_back_s")
               for n in LEVELS[1:]),
             ("m8.throughput_qps", ">", "m1.throughput_qps"),
             *((f"m{n}.speedup", ">", 1.2) for n in LEVELS[1:]))),
    _figure("fig_sharing", SHARING_LEVELS, _m, _build_sharing,
        *((f"m{n}.shared_rows", "==", f"m{n}.private_rows")
          for n in SHARING_LEVELS),
        *((f"m{n}.shared_s_o0", "<=", f"m{n}.private_s_o0")
          for n in SHARING_LEVELS),
        ("shape.shared_spread_o100", "<", 0.01),
        *_within("m8.shared_s_o100", "m1.shared_s_o100", 0.01),
        ("m8.gain_o100", ">=", 2.0),
        ("m8.gain_o50", ">=", 1.0),
        ("m8.gain_o50", "<=", "m8.gain_o100")),
    Twin("fig_serving",
         (*map(_x, MULTIPLIERS), "replay", "replay_twin", "shape"),
         _build_serving,
         parity=(("replay", "replay_twin"),),
         relations=(
             ("x20.edf_goodput_qps", ">=", "shape.saturation_qps", 0.8),
             ("x20.edf_shed", ">", 0),
             ("x05.edf_shed", "==", 0),
             ("x20.fifo_top_p99_s", ">", "shape.top_class_slo_s"),
             ("x20.priority_top_p99_s", "<=", "shape.top_class_slo_s"),
             ("x30.fifo_p99_s", ">", "x05.fifo_p99_s", 3),
             ("x30.priority_top_p99_s", "<=", "shape.top_class_slo_s"))),
    _cases("taxonomy", {
        "avs": functools.partial(_taxonomy, make_avs_workload),
        "ss": functools.partial(_taxonomy, make_ss_workload),
        "rs": functools.partial(_taxonomy, make_rs_workload),
        "jps": functools.partial(_taxonomy, make_jps_workload)},
        ("avs.join_cost_skew", ">", 2.5),
        ("ss.filter_output_skew", ">=", 1.8),
        ("ss.join_cost_skew", "<", 1.2),
        ("rs.join_queue_imbalance", ">", 2.5),
        ("rs.join_cost_skew", "<", 1.2),
        ("jps.join_output_skew", ">", 10),
        ("avs.join_queue_imbalance", "<", 1.5),
        ("jps.join_queue_imbalance", "<", 1.5)),
    Twin("multiuser", ("f100", "f50", "f25", "concurrent", "serial"),
         _build_multiuser,
         relations=(
             ("f50.threads", "<", "f100.threads", 0.75),
             ("f50.virtual_s", "<", "f100.virtual_s", 1.25),
             ("f100.distinct_rows", "==", [2_000]),
             ("concurrent.virtual_s", "<", "serial.virtual_s", 0.6))),
    *ABLATIONS,
)

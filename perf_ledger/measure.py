"""One run of one workload: the measurement protocol.

A run is what the driver (and ``python -m perf_ledger run``) starts as
one fresh process:

1. set up ``SETUP_REPEATS`` times — build the state from the seed and
   run one warm-up op — each bracketed by the reference kernel; peak
   memory is read after the first, before the harness builds an oracle;
2. for ``seconds`` seconds (and at least ``MIN_OPS`` ops) run ops,
   timing the reference kernel between consecutive ops; every op's
   outcome is checked for correctness outside the timed region;
3. report medians of *calibrated* times: an op's wall time divided by
   the mean of the two kernel timings around it, times the kernel's
   nominal 40 ms — so a slow minute, or a burst of a few seconds in the
   middle of a run, scales numerator and denominator alike.

With ``trace=False`` the ops are the plain front-door calls and the
result is the end-to-end metrics.  With ``trace=True`` every plain op
is followed by a traced twin (outside spans plus the in-program
``repro.prof.profile()`` sections), one more op runs under ``cProfile``
and the workload's extra runs (latency-limit sweep, unobserved twin)
are made; the result is the per-layer metrics.  It is a closed loop
with one client: the next op starts when the previous one is done.
"""

from __future__ import annotations

import cProfile
import gc
import importlib.util
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import repro
from repro.obs.metrics import percentile

try:
    from repro.prof import profile
except ImportError:  # a later tree may drop the self-profiler
    profile = None

from perf_ledger import spec
from perf_ledger.refkernel import NOMINAL_MS, time_reference
from perf_ledger.workloads import (
    FULL,
    Outcome,
    Scale,
    Spans,
    Workload,
    storage_size,
)

#: The packages under ``src/repro`` — the ledger's layers.
MODULES = ("adapt", "analysis", "compiler", "core", "diag", "engine",
           "faults", "lera", "machine", "obs", "prof", "scheduler", "serve",
           "storage", "workload")
#: In-program profiler sections of the workload layer (self time).
WORKLOAD_SECTIONS = ("admission", "allocate", "wave_prep", "wave_barrier",
                     "regrant", "fold", "control", "finalize", "assemble")
#: In-program profiler sections of the event loop (self time).
ENGINE_SECTIONS = ("sim", "ready_scan", "dbfunc", "deliver", "fault")

SETUP_REPEATS = 5
MIN_OPS = 3
#: Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is supported when this many samples lie beyond it.
TAIL_SAMPLES_BEYOND = 10

NO_DATA = ("no data in this run: the span, profiler section, counter or "
           "module behind it never fired on this workload")


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float | None]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: metric name -> why it has no value.
    missing: dict[str, str] = field(default_factory=dict)
    #: Raw per-op numbers, so every measurement made is reportable.
    timings: dict = field(default_factory=dict)
    #: ``serving_edf_2x``: digest of the op's admission decisions, which
    #: a set requires equal across its runs.
    decision_digest: str | None = None

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def driver_line(self) -> dict:
        """The contract's result object: every declared metric, each a
        number.  It has no null, so a metric without data reads 0 there
        (``missing`` on the detail line says why)."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": 0.0 if value is None else value,
                               "unit": spec.BY_NAME[name].unit}
                        for name, value in self.metrics.items()},
        }


@dataclass(frozen=True)
class _Sample:
    wall_s: float
    ref_before_s: float
    ref_after_s: float

    @property
    def cal_ms(self) -> float:
        reference_s = (self.ref_before_s + self.ref_after_s) / 2.0
        return self.wall_s / reference_s * NOMINAL_MS


def _median_wall_ms(samples: list[_Sample]) -> float:
    return statistics.median(s.wall_s for s in samples) * 1000.0


def _median_cal_ms(samples: list[_Sample]) -> float:
    return statistics.median(s.cal_ms for s in samples)


class _Run:
    """State of one run: the clock discipline and the check ledger."""

    def __init__(self, workload: Workload, seed: int, scale: Scale) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.state = None
        self.refs_s = [time_reference()]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: _Facts | None = None
        self.peak_rss_mb: float | None = None

    def timed(self, call) -> tuple[object, _Sample]:
        """Run *call* after an untimed ``gc.collect()``, then time the
        reference kernel: consecutive calls share the timing between
        them."""
        gc.collect()
        started = time.perf_counter()
        value = call()
        wall_s = time.perf_counter() - started
        self.refs_s.append(time_reference())
        return value, _Sample(wall_s, *self.refs_s[-2:])

    def check(self, outcome: Outcome) -> None:
        """Correctness of one op, outside the timed region."""
        self.attempted += 1
        problems = list(self.workload.check(self.state, outcome))
        facts = _Facts.of(outcome)
        if self.first is None:
            self.first = facts
        elif facts != self.first:
            problems.append("simulated results differ from the first op's")
        if not facts.done_latencies:
            problems.append("no query of the op finished done")
        if problems:
            self.failed += 1
            self.problems += problems[:5]

    def set_up(self, spans: Spans | None) -> list[_Sample]:
        samples = []
        for _ in range(SETUP_REPEATS):
            self.state = None

            def build() -> Outcome:
                self.state = self.workload.setup(self.seed, self.scale, spans)
                return self.workload.op(self.state)

            outcome, sample = self.timed(build)
            samples.append(sample)
            if self.peak_rss_mb is None:
                # The program's own peak: state built, one op run, and
                # nothing of the harness yet — the first check builds
                # the oracle, and later set-ups would count twice.
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.check(outcome)
        return samples


ENGINE_COUNTERS = ("polls", "enqueues", "dequeue_batches",
                   "secondary_accesses")


@dataclass(frozen=True)
class _Facts:
    """Everything simulated about one op.  It must repeat op after op,
    and it is all a run keeps of an outcome."""

    makespan: float
    queries: tuple
    """(status, response time, activations) of every submitted query."""
    counters: tuple
    """``ENGINE_COUNTERS`` summed over every operation."""
    extra: tuple

    @classmethod
    def of(cls, outcome: Outcome) -> "_Facts":
        executions = outcome.executions
        return cls(
            outcome.makespan,
            tuple((e.status, e.response_time, e.total_activations)
                  for e in executions),
            tuple(sum(getattr(op, counter) for e in executions
                      for op in e.operations.values())
                  for counter in ENGINE_COUNTERS),
            tuple(sorted(outcome.extra.items())))

    @property
    def activations(self) -> int:
        return sum(count for _, _, count in self.queries)

    @property
    def done_latencies(self) -> list[float]:
        return [latency for status, latency, _ in self.queries
                if status == "done"]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL, import_s: float = 0.0) -> RunResult:
    """One run (see the module docstring).  *scale* is for the smoke
    test only: the command line always measures at full scale."""
    run = _Run(workload, seed, scale)
    setup_spans = Spans() if trace else None
    setups = run.set_up(setup_spans)

    plain: list[_Sample] = []
    traced: list[_Sample] = []
    request_s: list[float] = []
    op_spans = Spans()
    sections: dict[str, list[int]] = {}
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_OPS or time.perf_counter() < deadline:
        outcome, sample = run.timed(lambda: workload.op(run.state))
        plain.append(sample)
        request_s += outcome.sample_s or [sample.wall_s]
        run.check(outcome)
        if trace:
            outcome, sample = run.timed(
                lambda: _traced_op(workload, run.state, op_spans, sections))
            traced.append(sample)
            run.check(outcome)
        del outcome

    op_cal_ms = _median_cal_ms(plain)
    first = run.first
    queries = len(first.queries)
    activations = first.activations
    timings = {
        "setup_wall_s": [s.wall_s for s in setups],
        "op_wall_s": [s.wall_s for s in plain],
        "op_cal_ms": [s.cal_ms for s in plain],
        "ref_kernel_s": run.refs_s,
    }
    if not trace:
        done = first.done_latencies
        values = {
            "setup_s": _median_cal_ms(setups) / 1000.0,
            "op_cal_ms_p50": op_cal_ms,
            "activations_per_cal_s": activations / op_cal_ms * 1000.0,
            "queries_per_cal_s": queries / op_cal_ms * 1000.0,
            "peak_rss_mb": run.peak_rss_mb,
            "virtual_makespan_s": first.makespan,
            "virtual_latency_p99_s": (percentile(done, 99) if done
                                      else None),
            "virtual_goodput_qps": len(done) / first.makespan,
            "done_share": len(done) / queries,
        }
        names = spec.END_TO_END
    else:
        timings["traced_cal_ms"] = [s.cal_ms for s in traced]
        # Spans and sections are sums over the pass, so they share one
        # factor: how slow the box was across it.
        factor = NOMINAL_MS / 1000.0 / statistics.median(run.refs_s)
        values = _per_layer(
            first, setup_spans.totals(), op_spans.totals(), sections,
            ops=len(traced), factor=factor, op_cal_ms=op_cal_ms,
            traced_cal_ms=_median_cal_ms(traced))
        values.update(_wall_facts(setups, plain, request_s, run.refs_s,
                                  import_s))
        values["storage.rows"], values["storage.fragments"] = storage_size(
            run.state)
        values.update(_call_profile(lambda: workload.op(run.state)))
        if workload.extras is not None:
            values.update(workload.extras(run.state))
        names = spec.PER_LAYER

    metrics = {m.name: values.get(m.name) for m in names}
    return RunResult(
        workload.name, seed, trace, metrics,
        attempted=run.attempted, failed=run.failed, problems=run.problems,
        missing={name: NO_DATA for name, value in metrics.items()
                 if value is None},
        timings=timings,
        decision_digest=dict(first.extra).get("serve.decision_digest"))


def _traced_op(workload: Workload, state, spans: Spans,
               sections: dict[str, list[int]]) -> Outcome:
    """One op with outside spans and the in-program sections on; the
    sections' [calls, self_ns] are summed into *sections* by name."""
    if profile is None:
        return workload.op(state, spans)
    with profile() as profiler:
        outcome = workload.op(state, spans)
    for path, (calls, self_ns, _) in profiler.nodes.items():
        entry = sections.setdefault(path[-1], [0, 0])
        entry[0] += calls
        entry[1] += self_ns
    return outcome


def _per_layer(first: _Facts, setup_spans: dict, op_spans: dict,
               sections: dict[str, list[int]], ops: int, factor: float,
               op_cal_ms: float, traced_cal_ms: float) -> dict:
    """Per-layer values of a traced pass (absent sources are left out).

    Times are calibrated ms per op: nanoseconds summed over *ops*
    traced ops (or the set-ups), scaled by *factor*.
    """
    def ms(total_ns: int, repeats: int) -> float:
        return total_ns / repeats / 1e6 * factor

    values: dict[str, float] = dict(first.extra)
    for name, (_, _, self_ns) in setup_spans.items():
        values[f"{name}_ms"] = ms(self_ns, SETUP_REPEATS)
    for name, (_, _, self_ns) in op_spans.items():
        values[f"{name}_ms"] = ms(self_ns, ops)
    for layer, names in (("workload", WORKLOAD_SECTIONS),
                         ("engine", ENGINE_SECTIONS)):
        for name in names:
            if name in sections:
                calls, self_ns = sections[name]
                values[f"{layer}.{name}_ms"] = ms(self_ns, ops)
                if layer == "workload":
                    values[f"workload.{name}_calls"] = calls / ops

    queries = len(first.queries)
    activations = first.activations
    values["engine.activations"] = activations
    for counter, total in zip(ENGINE_COUNTERS, first.counters):
        values[f"engine.{counter}"] = total
    if "ready_scan" in sections:
        steps = sections["ready_scan"][0] / ops
        values["engine.steps"] = steps
        values["engine.steps_per_activation"] = steps / activations
        values["engine.useful_step_ratio"] = activations / steps
    values["engine.cal_us_per_activation"] = op_cal_ms * 1000.0 / activations
    if "engine.dbfunc_ms" in values:
        values["engine.dbfunc_share"] = (values["engine.dbfunc_ms"]
                                         / traced_cal_ms)

    control_ms = sum(values.get(f"workload.{name}_ms", 0.0)
                     for name in WORKLOAD_SECTIONS)
    if sections:
        values["workload.control_us_per_query"] = (control_ms * 1000.0
                                                   / queries)
    compiler_ms = sum(values.get(f"compiler.{stage}_ms", 0.0)
                      for stage in ("parse", "normalize", "parallelize"))
    if compiler_ms:
        values["compiler.share"] = compiler_ms / traced_cal_ms
    if "scheduler.schedule_ms" in values:
        values["scheduler.share"] = (values["scheduler.schedule_ms"]
                                     / traced_cal_ms)

    # Attribution: outside spans cover the op; inside the execute span
    # only what the profiler's sections claim counts as attributed.
    execute_ns = op_spans.get("workload.execute", (0, 0, 0))[1]
    section_ns = sum(self_ns for _, self_ns in sections.values())
    span_ns = sum(self_ns for _, _, self_ns in op_spans.values())
    if sections and execute_ns:
        values["prof.coverage"] = section_ns / execute_ns
    attributed_ms = ms(span_ns - execute_ns + section_ns, ops)
    values["core.unattributed_share"] = max(
        0.0, 1.0 - attributed_ms / traced_cal_ms)
    values["prof.traced_over_untraced"] = traced_cal_ms / op_cal_ms
    return values


def tail(samples: list[float]) -> tuple[float, float | None]:
    """(percentile, value): the highest percentile with at least
    ``TAIL_SAMPLES_BEYOND`` samples beyond it; (0, None) if none has."""
    for q in TAIL_PERCENTILES:
        if len(samples) * (1.0 - q / 100.0) >= TAIL_SAMPLES_BEYOND:
            return q, percentile(samples, q)
    return 0.0, None


def _wall_facts(setups: list[_Sample], plain: list[_Sample],
                request_s: list[float], refs_s: list[float],
                import_s: float) -> dict:
    """The raw wall-clock record kept beside the calibrated numbers."""
    q, value_s = tail(request_s)
    return {
        "core.import_ms_raw": import_s * 1000.0,
        "core.setup_ms_raw": _median_wall_ms(setups),
        "core.op_wall_ms_p50_raw": _median_wall_ms(plain),
        "core.op_wall_ms_min_raw": min(s.wall_s for s in plain) * 1000.0,
        "core.ref_kernel_ms_p50_raw": statistics.median(refs_s) * 1000.0,
        "core.op_wall_ms_tail_raw": (None if value_s is None
                                     else value_s * 1000.0),
        "core.tail_percentile": q,
        "core.samples": len(request_s),
    }


def _call_profile(op) -> dict:
    """Python call counts and self-time shares per ``repro`` package,
    from one op under ``cProfile``.  The counts repeat exactly.

    Read from the profiler's own entries, one per code object:
    ``pstats`` keys functions by (file, line, name), so the generated
    ``__init__`` of every dataclass lands on one key and all but one of
    them — which one depends on memory addresses — are dropped.
    """
    profiler = cProfile.Profile()
    gc.collect()
    profiler.enable()
    try:
        op()
    finally:
        profiler.disable()
    package_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    calls = dict.fromkeys(MODULES, 0)
    self_s = dict.fromkeys(MODULES, 0.0)
    total_calls, total_s = 0, 0.0
    for entry in profiler.getstats():
        total_calls += entry.callcount
        total_s += entry.inlinetime
        # A built-in's ``code`` is its name, not a code object.
        filename = getattr(entry.code, "co_filename", "")
        if filename.startswith(package_dir):
            module = filename[len(package_dir):].split(os.sep)[0]
            if module in calls:
                calls[module] += entry.callcount
                self_s[module] += entry.inlinetime
    values: dict[str, float] = {"core.py_calls_per_op": total_calls}
    for module in MODULES:
        # A package a later tree no longer has is missing, not zero.
        if importlib.util.find_spec(f"repro.{module}") is not None:
            values[f"{module}.py_calls"] = calls[module]
            values[f"{module}.self_share"] = self_s[module] / total_s
    return values

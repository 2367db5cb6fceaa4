"""Exporters for observed executions.

Three output formats, all derived from one
:class:`~repro.engine.metrics.QueryExecution` produced with
``ExecutionOptions(observability=ObservabilityOptions(observe=True))``:

* :func:`write_jsonl` — the full structured record, one JSON object
  per line: a meta header, every bus event, every span of the
  activation trace, probe series samples, scalar counters,
  and per-operation metric summaries.  This is the machine-readable
  log; the obs tests re-parse it and check the event counts against
  :class:`~repro.engine.metrics.OperationMetrics`, and
  :func:`read_jsonl` round-trips it back into a :class:`LoadedRun`
  that the diagnostics layer (:mod:`repro.diag`) analyses exactly as
  it would the live execution.
* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON (the ``traceEvents`` array format), loadable in
  Perfetto / ``chrome://tracing``: one track per simulated thread
  built from the activation/finalize spans, instant markers for the
  discrete bus events, and one counter track per probe series.
* :func:`metrics_snapshot` — a plain-text report extending
  ``QueryExecution.summary()`` with the observed peaks and counters.

Virtual seconds are exported as microseconds in the Chrome trace (its
native unit), so a 1.5 s virtual execution reads as 1.5 s in Perfetto.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.engine.trace import ExecutionTrace
from repro.errors import ReproError
from repro.obs.bus import (
    BLOCK,
    DEQUEUE,
    ENQUEUE,
    MEMORY,
    EventBus,
    Event,
)
from repro.obs.probes import ACTIVE_THREADS, Series, queue_depth_key

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.engine.metrics import QueryExecution

#: Chrome trace ``pid`` of the whole virtual execution.
_PID = 1

#: Virtual seconds -> Chrome trace microseconds.
_US = 1e6

#: JSONL schema version, recorded in the meta header.  Version 2 added
#: ``span`` records (the activation trace) and the per-operation timing
#: fields (``busy_time``, ``queue_activations``, ...) the diagnostics
#: layer reloads.  Version 3 added workload telemetry: ``qspan``
#: records (one per-query :class:`~repro.obs.spans.QuerySpan`) and
#: ``metric`` records (:meth:`~repro.obs.metrics.MetricsRegistry
#: .snapshot` rows), written by :func:`write_workload_jsonl`.  Version
#: 4 added online observability: ``alert`` records (one per
#: :class:`~repro.obs.alerts.Alert` the monitor rules fired) and a
#: single ``profile`` record (the engine self-profiler's call tree),
#: both present only when the corresponding subsystem ran.  The reader
#: accepts exactly this version: nothing writes the older ones any more.
SCHEMA_VERSION = 4


#: The per-operation aggregates after an ``op`` record's ``name``, read
#: by attribute off its :class:`~repro.engine.metrics.OperationMetrics`.
#: The diagnostics layer's ``OpView`` is ``name`` plus these.
OP_FIELDS = ("trigger_mode", "instances", "threads", "strategy",
             "started_at", "finished_at", "busy_time", "idle_time", "work",
             "activations", "queue_activations", "enqueues",
             "dequeue_batches", "secondary_accesses", "polls",
             "memory_penalty")

#: The fault-layer tail of an ``op`` record.
_OP_FAULT_FIELDS = ("faults_injected", "fault_retries", "fault_aborts",
                    "discarded", "stalled_time")


def _require_obs(execution: "QueryExecution") -> EventBus:
    if execution.obs is None:
        raise ReproError(
            "execution was not observed; run with ExecutionOptions("
            "observability=ObservabilityOptions(observe=True)) to "
            "export it")
    return execution.obs


# -- JSONL ------------------------------------------------------------------

def _event_record(event: Event) -> dict:
    record: dict = {"type": "event", "kind": event.kind,
                    "t": event.t}
    if event.operation is not None:
        record["op"] = event.operation
    if event.thread_id is not None:
        record["thread"] = event.thread_id
    if event.data:
        record.update(event.data)
    return record


def jsonl_records(execution: "QueryExecution") -> Iterator[dict]:
    """All JSONL records of one observed execution, in order."""
    bus = _require_obs(execution)
    yield {
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "status": execution.status,
        "response_time": execution.response_time,
        "startup_time": execution.startup_time,
        "total_threads": execution.total_threads,
        "dilation": execution.dilation,
        "result_rows": execution.result_cardinality,
    }
    for name, op in execution.operations.items():
        record = {"type": "op", "name": name}
        for field in OP_FIELDS + _OP_FAULT_FIELDS:
            record[field] = getattr(op, field)
        yield record
    for event in bus.events:
        yield _event_record(event)
    if execution.trace is not None:
        for span in execution.trace.events:
            yield {"type": "span", "thread": span.thread_id,
                   "op": span.operation, "kind": span.kind,
                   "start": span.start, "end": span.end}
    for name in sorted(bus.series):
        for t, value in bus.series[name].to_pairs():
            yield {"type": "sample", "name": name, "t": t, "value": value}
    for name in sorted(bus.counters):
        yield {"type": "counter", "name": name, "value": bus.counters[name]}


def write_jsonl(execution: "QueryExecution", path: str | Path) -> int:
    """Write the JSONL event log; returns the number of records."""
    return _write_records(jsonl_records(execution), path)


def _write_records(records: Iterator[dict], path: str | Path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count


def workload_jsonl_records(result) -> Iterator[dict]:
    """All JSONL records of one observed workload run, in order.

    The workload-level sibling of :func:`jsonl_records`: a meta
    header (``workload: true``), one ``qspan`` record per submitted
    query, one ``metric`` record per registry snapshot row, and the
    raw workload-bus events.  *result* is a telemetry-enabled
    :class:`~repro.workload.engine.WorkloadResult`.
    """
    if result.metrics is None or result.spans is None:
        raise ReproError(
            "workload was not observed; enable WorkloadOptions("
            "observability=ObservabilityOptions(observe=True)) to "
            "export it")
    yield {
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "workload": True,
        "makespan": result.makespan,
        "queries": len(result.spans),
        "statuses": result.spans.status_counts(),
    }
    for span in result.spans:
        yield {"type": "qspan", **span.to_json()}
    for row in result.metrics.snapshot():
        yield {"type": "metric", **row}
    if result.alerts is not None:
        for alert in result.alerts:
            yield {"type": "alert", **alert.to_json()}
    if result.profile is not None:
        yield {"type": "profile", **result.profile.to_json()}
    for event in result.bus.events:
        yield _event_record(event)


def write_workload_jsonl(result, path: str | Path) -> int:
    """Write the workload JSONL log; returns the number of records."""
    return _write_records(workload_jsonl_records(result), path)


#: Keys of an ``event`` record that are :class:`Event` fields; every
#: other key is kind-specific payload and round-trips into ``data``.
_EVENT_FIELD_KEYS = frozenset(("type", "kind", "t", "op", "thread"))


@dataclass
class LoadedRun:
    """One JSONL event log parsed back into live objects.

    The inverse of :func:`write_jsonl`: ``events`` are real
    :class:`~repro.obs.bus.Event` objects, ``trace`` a real
    :class:`~repro.engine.trace.ExecutionTrace`, ``series`` real
    :class:`~repro.obs.probes.Series` holding exactly the stored
    samples (a series stores changes only, so no sample was dropped).  ``meta`` and ``ops`` stay plain
    dicts, exactly as written.  :mod:`repro.diag` analyses a
    ``LoadedRun`` identically to the live execution it came from.
    """

    meta: dict
    ops: list[dict] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    series: dict[str, Series] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    #: Workload records: per-query span dicts and registry snapshot
    #: rows (both exactly as written; empty for per-query logs).
    qspans: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    #: Online-observability records: alert dicts in fire
    #: order, and the profiler call tree (``None`` when the run was
    #: not profiled).  Replay with :meth:`Alert.from_json` /
    #: :meth:`EngineProfiler.from_json`.
    alerts: list[dict] = field(default_factory=list)
    profile: dict | None = None

    @property
    def schema(self) -> int:
        return self.meta["schema"]

    @property
    def is_workload(self) -> bool:
        """True for a :func:`write_workload_jsonl` log."""
        return bool(self.meta.get("workload"))

    @property
    def makespan(self) -> float:
        return self.meta["makespan"]

    @property
    def status(self) -> str:
        """Terminal status of a per-query log's execution."""
        return self.meta["status"]

    @property
    def response_time(self) -> float:
        return self.meta["response_time"]

    @property
    def startup_time(self) -> float:
        return self.meta["startup_time"]


def _load_event(record: dict) -> Event:
    data = {key: value for key, value in record.items()
            if key not in _EVENT_FIELD_KEYS}
    return Event(record["kind"], record["t"], record.get("op"),
                 record.get("thread"), data if data else None)


def read_jsonl(path: str | Path) -> LoadedRun:
    """Round-trip a :func:`write_jsonl` log back into a :class:`LoadedRun`.

    Raises :class:`ReproError` when the file does not start with a
    meta header or its schema is not exactly :data:`SCHEMA_VERSION`.
    """
    run: LoadedRun | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if run is None:
                if kind != "meta":
                    raise ReproError(
                        f"{path}: line {line_no} is {kind!r}, expected the "
                        f"meta header — not a JSONL event log?")
                if record.get("schema") != SCHEMA_VERSION:
                    raise ReproError(
                        f"{path}: log has schema {record.get('schema')}, "
                        f"this reader accepts exactly schema "
                        f"{SCHEMA_VERSION} (older and newer logs alike: "
                        f"re-export the run)")
                run = LoadedRun(meta=record)
            elif kind == "op":
                run.ops.append(record)
            elif kind == "event":
                run.events.append(_load_event(record))
            elif kind == "span":
                run.trace.record(record["thread"], record["op"],
                                 record["kind"], record["start"],
                                 record["end"])
            elif kind == "sample":
                series = run.series.get(record["name"])
                if series is None:
                    series = run.series[record["name"]] = Series(
                        record["name"])
                series.times.append(record["t"])
                series.values.append(record["value"])
            elif kind == "counter":
                run.counters[record["name"]] = record["value"]
            elif kind == "qspan":
                run.qspans.append(record)
            elif kind == "metric":
                run.metrics.append(record)
            elif kind == "alert":
                run.alerts.append(record)
            elif kind == "profile":
                run.profile = record
            else:
                raise ReproError(
                    f"{path}: line {line_no} has unknown record type "
                    f"{kind!r}")
    if run is None:
        raise ReproError(f"{path}: empty event log")
    return run


# -- Chrome trace-event JSON -------------------------------------------------

def chrome_trace(execution: "QueryExecution") -> dict:
    """The execution as a Chrome trace-event document (JSON-ready).

    One track per simulated thread (named after the operation its pool
    belongs to) carrying the activation/finalize spans, instant
    markers for every discrete bus event, and one counter track per
    probe series.
    """
    bus = _require_obs(execution)
    trace = execution.trace
    if trace is None:
        raise ReproError("observed execution carries no span trace")
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "DBS3 virtual-time execution"},
    }]
    op_of_thread: dict[int, str] = {}
    for span in trace.events:
        op_of_thread.setdefault(span.thread_id, span.operation)
    for tid, operation in sorted(op_of_thread.items()):
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": f"t{tid} {operation}"},
        })
    for span in trace.events:
        events.append({
            "name": f"{span.operation}:{span.kind}",
            "cat": span.kind, "ph": "X", "pid": _PID,
            "tid": span.thread_id,
            "ts": span.start * _US, "dur": span.duration * _US,
            "args": {"operation": span.operation},
        })
    for event in bus.events:
        args: dict = {"kind": event.kind}
        if event.operation is not None:
            args["operation"] = event.operation
        if event.data:
            args.update(event.data)
        events.append({
            "name": event.kind, "cat": "bus", "ph": "i",
            "pid": _PID, "tid": event.thread_id if event.thread_id
            is not None else 0,
            "ts": event.t * _US,
            "s": "t" if event.thread_id is not None else "p",
            "args": args,
        })
    for name in sorted(bus.series):
        for t, value in bus.series[name].to_pairs():
            events.append({
                "name": name, "ph": "C", "pid": _PID, "tid": 0,
                "ts": t * _US, "args": {"value": value},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "virtual_response_s": execution.response_time,
            "total_threads": execution.total_threads,
        },
    }


def write_chrome_trace(execution: "QueryExecution",
                       path: str | Path) -> int:
    """Write the Chrome trace JSON; returns the trace-event count."""
    document = chrome_trace(execution)
    Path(path).write_text(json.dumps(document) + "\n", encoding="utf-8")
    return len(document["traceEvents"])


# -- text snapshot -----------------------------------------------------------

def metrics_snapshot(execution: "QueryExecution") -> str:
    """Plain-text observability report for one observed execution."""
    bus = _require_obs(execution)
    kind_counts = bus.kind_counts()
    lines = [execution.summary(), "", "observed execution:"]
    lines.append(f"  bus events    : {len(bus.events)} "
                 f"({', '.join(f'{kind}={count}' for kind, count in sorted(kind_counts.items()))})")
    active = bus.series.get(ACTIVE_THREADS)
    if active is not None and len(active):
        lines.append(f"  active threads: peak {active.peak:.0f}, "
                     f"final {active.last:.0f}")
    for name, op in execution.operations.items():
        depth = bus.series.get(queue_depth_key(name))
        peak = f"{depth.peak:.0f}" if depth is not None and len(depth) else "-"
        steals = bus.secondary_access_total(name)
        blocks = len(bus.events_of(BLOCK, name))
        lines.append(
            f"  {name:<12} enqueues={op.enqueues:<7} "
            f"batches={op.dequeue_batches:<7} steals={steals:<6} "
            f"blocks={blocks:<5} peak_depth={peak}")
    memory = [e for e in bus.events if e.kind == MEMORY]
    if memory:
        total = sum(e.data["penalty"] for e in memory)
        lines.append(f"  memory        : {len(memory)} penalty events, "
                     f"{total:.4f}s total")
    ready_churn = {name: value for name, value in sorted(bus.counters.items())
                   if name.startswith("ready_")}
    for name, value in ready_churn.items():
        lines.append(f"  {name:<22}: {value:.0f}")
    return "\n".join(lines)


def verify_against_metrics(execution: "QueryExecution") -> list[str]:
    """Cross-check bus counts against the end-of-run metrics.

    Returns a list of mismatch descriptions (empty = consistent):
    enqueues, dequeue batches and secondary accesses recorded on the
    bus must equal the :class:`OperationMetrics` aggregates.  Used by
    the tests and the CLI demo as a self-audit of the instrumentation.
    """
    bus = _require_obs(execution)
    problems = []
    for name, op in execution.operations.items():
        checks = (
            ("enqueues", bus.enqueue_total(name), op.enqueues),
            ("dequeue_batches", bus.dequeue_batch_total(name),
             op.dequeue_batches),
            ("secondary_accesses", bus.secondary_access_total(name),
             op.secondary_accesses),
        )
        for label, observed, metric in checks:
            if observed != metric:
                problems.append(
                    f"{name}: bus {label}={observed} != metrics {metric}")
    return problems


def verify_workload_jsonl(run: LoadedRun,
                          executions: dict | None = None) -> list[str]:
    """Self-audit a reloaded workload log (empty list = consistent).

    The workload-level counterpart of :func:`verify_against_metrics`:
    the ``qspan`` records, the ``metric`` snapshot rows and the meta
    header were all derived from the same run, so they must agree —
    status counts, finished-query counters, latency-histogram counts
    and percentiles.  Passing the live ``executions`` mapping (tag ->
    :class:`~repro.engine.metrics.QueryExecution`) additionally checks
    every span's terminal status against the engine's bookkeeping.
    """
    from repro.obs.metrics import (
        QUERIES_FINISHED,
        QUERY_LATENCY,
        percentile,
    )

    problems: list[str] = []
    if not run.is_workload:
        return [f"not a workload log (meta: {run.meta})"]

    statuses: dict[str, int] = {}
    for record in run.qspans:
        status = record.get("status") or "unterminated"
        statuses[status] = statuses.get(status, 0) + 1
    if statuses != run.meta.get("statuses"):
        problems.append(
            f"meta statuses {run.meta.get('statuses')} != qspan "
            f"statuses {statuses}")

    finished = {row["labels"].get("status"): row["value"]
                for row in run.metrics
                if row["name"] == QUERIES_FINISHED}
    for status, count in statuses.items():
        if status != "unterminated" and finished.get(status) != count:
            problems.append(
                f"{QUERIES_FINISHED}{{status={status}}} = "
                f"{finished.get(status)} != {count} qspan records")

    latencies: dict[str, list[float]] = {}
    for record in run.qspans:
        status = record.get("status")
        if status is not None and record.get("finished_at") is not None:
            latencies.setdefault(status, []).append(
                record["finished_at"] - record["submitted_at"])
    for row in run.metrics:
        if row["name"] != QUERY_LATENCY:
            continue
        status = row["labels"].get("status")
        values = latencies.get(status, [])
        if row["count"] != len(values):
            problems.append(
                f"{QUERY_LATENCY}{{status={status}}} count "
                f"{row['count']} != {len(values)} qspan latencies")
            continue
        for quantile in ("p50", "p95", "p99"):
            if quantile not in row:
                continue
            expected = percentile(values, float(quantile[1:]))
            if abs(row[quantile] - expected) > 1e-9:
                problems.append(
                    f"{QUERY_LATENCY}{{status={status}}} {quantile} "
                    f"{row[quantile]} != {expected} from qspans")

    if executions is not None:
        by_tag = {record["tag"]: record for record in run.qspans}
        for tag, execution in executions.items():
            record = by_tag.get(tag)
            if record is None:
                problems.append(f"{tag}: execution has no qspan record")
            elif record.get("status") != execution.status:
                problems.append(
                    f"{tag}: qspan status {record.get('status')!r} != "
                    f"execution status {execution.status!r}")
        for tag in by_tag:
            if tag not in executions:
                problems.append(f"{tag}: qspan has no execution")
    return problems

"""Execution observability: event bus, probes, metrics, spans, exporters.

Enable per-query observability with
``ExecutionOptions(observability=ObservabilityOptions(observe=True))``;
the resulting :class:`~repro.engine.metrics.QueryExecution` then
carries an :class:`~repro.obs.bus.EventBus` on ``.obs``, exportable
via :mod:`repro.obs.export`.  Workload-level telemetry — the
:class:`~repro.obs.metrics.MetricsRegistry`, per-query
:class:`~repro.obs.spans.QuerySpan` lifecycles and the
:class:`~repro.obs.report.WorkloadReport` — is enabled with
``WorkloadOptions(observability=ObservabilityOptions(observe=True))``
and lives on the :class:`~repro.workload.engine.WorkloadResult`.
Scheduler decisions are explained by passing a
:class:`~repro.obs.explain.ScheduleExplanation` to
``AdaptiveScheduler.schedule``.  See the Observability and Workload
telemetry sections of docs/architecture.md for the event taxonomy and
overhead guarantees.
"""

from repro.obs.alerts import (
    SEV_CRITICAL,
    SEV_INFO,
    SEV_WARNING,
    Alert,
    AlertBus,
)
from repro.obs.bus import Event, EventBus
from repro.obs.explain import (
    STEP_CHAIN_SPLIT,
    STEP_OPERATION_SPLIT,
    STEP_STRATEGY,
    STEP_THREAD_COUNT,
    Decision,
    ScheduleExplanation,
)
from repro.obs.export import (
    SCHEMA_VERSION,
    LoadedRun,
    chrome_trace,
    jsonl_records,
    metrics_snapshot,
    read_jsonl,
    verify_against_metrics,
    verify_workload_jsonl,
    workload_jsonl_records,
    write_chrome_trace,
    write_jsonl,
    write_workload_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.monitor import (
    AdmissionWaitMonitor,
    LatencySloMonitor,
    MemoryPressureMonitor,
    Monitor,
    MonitorContext,
    MonitorEngine,
    RetryStormMonitor,
    StragglerMonitor,
    default_monitors,
)
from repro.obs.probes import Series
from repro.obs.report import WorkloadReport, build_workload_report
from repro.obs.spans import (
    QuerySpan,
    SpanSet,
    assemble_spans,
    verify_spans,
)

__all__ = [
    "Alert",
    "AlertBus",
    "SEV_CRITICAL",
    "SEV_INFO",
    "SEV_WARNING",
    "Monitor",
    "MonitorContext",
    "MonitorEngine",
    "AdmissionWaitMonitor",
    "LatencySloMonitor",
    "MemoryPressureMonitor",
    "RetryStormMonitor",
    "StragglerMonitor",
    "default_monitors",
    "Event",
    "EventBus",
    "Decision",
    "ScheduleExplanation",
    "STEP_THREAD_COUNT",
    "STEP_CHAIN_SPLIT",
    "STEP_OPERATION_SPLIT",
    "STEP_STRATEGY",
    "Series",
    "SCHEMA_VERSION",
    "LoadedRun",
    "chrome_trace",
    "jsonl_records",
    "metrics_snapshot",
    "read_jsonl",
    "verify_against_metrics",
    "verify_workload_jsonl",
    "workload_jsonl_records",
    "write_chrome_trace",
    "write_jsonl",
    "write_workload_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "WorkloadReport",
    "build_workload_report",
    "QuerySpan",
    "SpanSet",
    "assemble_spans",
    "verify_spans",
]

"""Per-query spans: one query's lifecycle reconstructed from the bus.

A :class:`QuerySpan` is the workload-level twin of the activation
trace: where :class:`~repro.engine.trace.ExecutionTrace` records what
every *thread* did, a span records what one *query* went through —
submit → admit → grant(s) → wave 0..k → finish (or cancelled /
timed_out / failed), with fold-host/subscriber links when shared-work
execution folded part of its plan onto another query.

Spans are **assembled, not instrumented**: :func:`assemble_spans`
replays the workload bus's existing ``query.*`` events (and each
query's own ``wave.start``/``wave.end`` events when per-query
observability was on) after the run.  The engine gained no new hook
for this — if an event stream is enough to rebuild the lifecycle,
it is enough evidence that the stream itself is complete, which is
exactly what :func:`verify_spans` audits:

* every query has exactly one terminal event (a ``query.finish``, or
  a pre-admission withdrawal ``query.cancel``);
* span timestamps are ordered and nested inside the simulation
  bounds (submit <= admit <= waves <= finish <= makespan; a
  cancelled or timed-out query's waves may outlive its termination
  stamp — threads drain cooperatively past the cancel instant);
* the span's terminal status agrees with the
  :class:`~repro.engine.metrics.QueryExecution` status and its
  latency with ``response_time``;
* fold links are consistent both ways (a subscriber's host exists,
  was admitted, and lists the subscriber back).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.bus import (
    QUERY_ABORT,
    QUERY_ADMIT,
    QUERY_CANCEL,
    QUERY_FINISH,
    QUERY_GRANT,
    QUERY_REJECT,
    QUERY_SUBMIT,
    WAVE_END,
    WAVE_START,
)

#: Terminal span statuses (mirror the ``QueryExecution`` statuses;
#: string literals because :mod:`repro.engine.metrics` imports the obs
#: layer, not the other way around).  ``shed`` terminates a span
#: pre-admission — the serving layer's ``query.reject`` event is its
#: terminal event, the way a pre-admission withdrawal's
#: ``query.cancel`` is for ``cancelled``.
SPAN_DONE = "done"
SPAN_CANCELLED = "cancelled"
SPAN_TIMED_OUT = "timed_out"
SPAN_FAILED = "failed"
SPAN_SHED = "shed"
SPAN_STATUSES = (SPAN_DONE, SPAN_CANCELLED, SPAN_TIMED_OUT, SPAN_FAILED,
                 SPAN_SHED)

#: Float-comparison slack for containment checks.
_EPS = 1e-9


@dataclass(frozen=True)
class GrantRecord:
    """One ``query.grant`` event: a (re)granted thread budget."""

    t: float
    threads: int
    reason: str                  # admission / regrant / shrink / helpers
    pool: str | None = None      # helpers joined this pool (reason=helpers)


@dataclass
class WaveSpan:
    """One wave of a query's schedule, as executed."""

    index: int
    start: float
    end: float | None            # None: cut short (cancel/abort mid-wave)
    operations: tuple[str, ...]  # own (private) operations of the wave
    shared: tuple[str, ...]      # shared operators it rode on, if any
    threads: int


@dataclass
class QuerySpan:
    """One query's reconstructed lifecycle."""

    tag: str
    submitted_at: float
    demand: int = 0
    admitted_at: float | None = None
    finished_at: float | None = None
    status: str | None = None
    grants: list[GrantRecord] = field(default_factory=list)
    waves: list[WaveSpan] = field(default_factory=list)
    cancel_requested_at: float | None = None
    cancel_reason: str | None = None
    #: Why the serving layer shed this query pre-admission
    #: (``query.reject`` payload), ``None`` for queries that ran.
    reject_reason: str | None = None
    abort_error: str | None = None
    failed_operation: str | None = None
    #: Fold links: own node name -> tag of the hosting query.
    folds: dict[str, str] = field(default_factory=dict)
    #: Tags of queries that folded onto operators this query hosts.
    subscribers: list[str] = field(default_factory=list)
    #: How many terminal bus events this query produced (audited == 1).
    terminal_events: int = 0

    def __repr__(self) -> str:
        return (f"QuerySpan({self.tag!r}, status={self.status!r}, "
                f"waves={len(self.waves)}, grants={len(self.grants)})")

    @property
    def latency(self) -> float | None:
        """End-to-end virtual latency from submission (None: the run
        somehow never terminated this query — verify_spans flags it)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_json(self) -> dict:
        """Plain-dict form (what the schema-3 JSONL exporter writes)."""
        return {
            "tag": self.tag,
            "submitted_at": self.submitted_at,
            "demand": self.demand,
            "admitted_at": self.admitted_at,
            "finished_at": self.finished_at,
            "status": self.status,
            "grants": [{"t": g.t, "threads": g.threads, "reason": g.reason,
                        **({"pool": g.pool} if g.pool is not None else {})}
                       for g in self.grants],
            "waves": [{"index": w.index, "start": w.start, "end": w.end,
                       "operations": list(w.operations),
                       "shared": list(w.shared), "threads": w.threads}
                      for w in self.waves],
            "cancel_requested_at": self.cancel_requested_at,
            "cancel_reason": self.cancel_reason,
            "reject_reason": self.reject_reason,
            "abort_error": self.abort_error,
            "failed_operation": self.failed_operation,
            "folds": dict(self.folds),
            "subscribers": list(self.subscribers),
        }


class SpanSet:
    """All spans of one workload run, keyed by query tag."""

    __slots__ = ("_spans", "order")

    def __init__(self, spans: dict[str, QuerySpan],
                 order: tuple[str, ...]) -> None:
        self._spans = spans
        self.order = order

    def __repr__(self) -> str:
        return f"SpanSet(queries={len(self._spans)})"

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self):
        return iter(self._spans[tag] for tag in self.order)

    def __contains__(self, tag: str) -> bool:
        return tag in self._spans

    def of(self, tag: str) -> QuerySpan:
        try:
            return self._spans[tag]
        except KeyError:
            raise ReproError(f"no span for query {tag!r}") from None

    def latencies(self, status: str | None = None) -> list[float]:
        """End-to-end virtual latencies in submission order, optionally
        restricted to one terminal status."""
        return [span.latency for span in self
                if span.latency is not None
                and (status is None or span.status == status)]

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self:
            key = span.status or "unterminated"
            counts[key] = counts.get(key, 0) + 1
        return counts


def assemble_spans(bus, executions: dict | None = None) -> SpanSet:
    """Rebuild every query's span from the workload event stream.

    *bus* is the workload-level :class:`~repro.obs.bus.EventBus`
    (``query.*`` events tagged with query names via ``operation``);
    *executions* optionally maps tags to
    :class:`~repro.engine.metrics.QueryExecution` so wave spans can be
    filled in from each query's own bus (absent when per-query
    observability was off — spans then simply carry no waves).
    """
    query_kinds = {QUERY_SUBMIT, QUERY_ADMIT, QUERY_GRANT, QUERY_CANCEL,
                   QUERY_ABORT, QUERY_FINISH, QUERY_REJECT}
    spans: dict[str, QuerySpan] = {}
    order: list[str] = []
    for event in bus.events:
        if event.kind not in query_kinds:
            # The workload bus also carries machine-level events
            # (e.g. ``fault.memory``); spans only read lifecycles.
            continue
        tag = event.operation
        data = event.data or {}
        if event.kind == QUERY_SUBMIT:
            if tag in spans:
                raise ReproError(f"duplicate query.submit for {tag!r}")
            spans[tag] = QuerySpan(tag=tag, submitted_at=event.t,
                                   demand=data.get("demand", 0))
            order.append(tag)
            continue
        span = spans.get(tag)
        if span is None:
            raise ReproError(
                f"{event.kind} for {tag!r} before its query.submit")
        if event.kind == QUERY_ADMIT:
            span.admitted_at = event.t
            span.folds = dict(data.get("folds", {}))
        elif event.kind == QUERY_GRANT:
            span.grants.append(GrantRecord(
                t=event.t, threads=data.get("threads", 0),
                reason=data.get("reason", "?"), pool=data.get("pool")))
        elif event.kind == QUERY_CANCEL:
            span.cancel_requested_at = event.t
            span.cancel_reason = data.get("reason")
            if not data.get("admitted", True):
                # Withdrawn from the queue: this IS the terminal event
                # (no query.finish follows a query that never ran).
                span.finished_at = event.t
                span.status = (SPAN_TIMED_OUT
                               if span.cancel_reason == "timeout"
                               else SPAN_CANCELLED)
                span.terminal_events += 1
        elif event.kind == QUERY_REJECT:
            # Pre-admission shed: this IS the terminal event (the
            # query never ran, no query.finish follows).
            span.finished_at = event.t
            span.status = data.get("status", SPAN_SHED)
            span.reject_reason = data.get("reason")
            span.terminal_events += 1
        elif event.kind == QUERY_ABORT:
            span.abort_error = data.get("error")
            span.failed_operation = data.get("failed_operation")
            if span.cancel_requested_at is None:
                span.cancel_requested_at = event.t
        elif event.kind == QUERY_FINISH:
            span.finished_at = event.t
            span.status = data.get("status", SPAN_DONE)
            span.terminal_events += 1
    # Fold links point subscriber -> host; mirror them host -> subscriber.
    for span in spans.values():
        for host_tag in dict.fromkeys(span.folds.values()):
            host = spans.get(host_tag)
            if host is not None and span.tag not in host.subscribers:
                host.subscribers.append(span.tag)
    if executions:
        for tag, execution in executions.items():
            span = spans.get(tag)
            query_bus = getattr(execution, "obs", None)
            if span is None or query_bus is None:
                continue
            span.waves = _assemble_waves(query_bus)
    return SpanSet(spans, tuple(order))


def _assemble_waves(query_bus) -> list[WaveSpan]:
    waves: dict[int, WaveSpan] = {}
    for event in query_bus.events:
        data = event.data or {}
        if event.kind == WAVE_START:
            index = data.get("wave", len(waves))
            waves[index] = WaveSpan(
                index=index, start=event.t, end=None,
                operations=tuple(data.get("operations", ())),
                shared=tuple(data.get("shared", ())),
                threads=data.get("threads", 0))
        elif event.kind == WAVE_END:
            wave = waves.get(data.get("wave", -1))
            if wave is not None:
                wave.end = event.t
    return [waves[index] for index in sorted(waves)]


def verify_spans(spans: SpanSet, executions: dict | None = None,
                 makespan: float | None = None) -> list[str]:
    """Self-audit the reconstructed spans; returns mismatch strings.

    The workload-level counterpart of
    :func:`repro.obs.export.verify_against_metrics`: the span model
    must agree with the independently-computed
    :class:`~repro.engine.metrics.QueryExecution` bookkeeping.  An
    empty list means the event stream was complete and consistent.
    """
    problems: list[str] = []
    for span in spans:
        tag = span.tag
        if span.terminal_events != 1:
            problems.append(
                f"{tag}: {span.terminal_events} terminal events "
                f"(expected exactly 1)")
        if span.status not in SPAN_STATUSES:
            problems.append(f"{tag}: unterminated span "
                            f"(status {span.status!r})")
            continue
        if span.finished_at is None:
            problems.append(f"{tag}: terminal status {span.status!r} "
                            f"without a finish instant")
            continue
        if span.admitted_at is not None:
            if span.admitted_at + _EPS < span.submitted_at:
                problems.append(
                    f"{tag}: admitted at {span.admitted_at} before "
                    f"submission at {span.submitted_at}")
            if span.finished_at + _EPS < span.admitted_at:
                problems.append(
                    f"{tag}: finished at {span.finished_at} before "
                    f"admission at {span.admitted_at}")
        elif span.status == SPAN_DONE:
            problems.append(f"{tag}: done without ever being admitted")
        if makespan is not None and span.finished_at > makespan + _EPS:
            problems.append(
                f"{tag}: finished at {span.finished_at} past the "
                f"makespan {makespan}")
        for grant in span.grants:
            if not (span.submitted_at - _EPS <= grant.t
                    <= span.finished_at + _EPS):
                problems.append(
                    f"{tag}: grant at {grant.t} outside the span "
                    f"[{span.submitted_at}, {span.finished_at}]")
        previous_end = None
        for wave in span.waves:
            end = wave.end if wave.end is not None else wave.start
            if end + _EPS < wave.start:
                problems.append(
                    f"{tag}: wave {wave.index} runs backwards "
                    f"({wave.start} -> {wave.end})")
            # Full containment only holds for completed queries: a
            # cancelled / timed-out / failed query is *stamped* at its
            # termination instant, while its scheduled wave (startup
            # included) and cooperatively-draining threads may run past
            # that stamp.
            if (span.admitted_at is None
                    or wave.start + _EPS < span.admitted_at
                    or (span.status == SPAN_DONE
                        and end > span.finished_at + _EPS)):
                problems.append(
                    f"{tag}: wave {wave.index} "
                    f"[{wave.start}, {end}] not nested in the "
                    f"query span [{span.admitted_at}, {span.finished_at}]")
            if previous_end is not None and wave.start + _EPS < previous_end:
                problems.append(
                    f"{tag}: wave {wave.index} starts at {wave.start} "
                    f"before wave {wave.index - 1} ended at {previous_end}")
            previous_end = end
        # Fold-link consistency, both directions.
        for node, host_tag in span.folds.items():
            if host_tag not in spans:
                problems.append(
                    f"{tag}: folded node {node!r} onto unknown query "
                    f"{host_tag!r}")
                continue
            host = spans.of(host_tag)
            if tag not in host.subscribers:
                problems.append(
                    f"{tag}: host {host_tag!r} does not list it as a "
                    f"subscriber")
            # Admission *processing* order guarantees the host was
            # admitted first, but admission stamps ride the finish
            # stamps of whichever completions freed the capacity and
            # those interleave non-monotonically — so only the
            # structural claim is checkable, not a stamp inequality.
            if host.admitted_at is None or span.admitted_at is None:
                problems.append(
                    f"{tag}: fold link without admission on both ends "
                    f"(host {host_tag!r} admitted at {host.admitted_at}, "
                    f"subscriber at {span.admitted_at})")
    if executions is not None:
        span_tags = {span.tag for span in spans}
        for tag, execution in executions.items():
            if tag not in span_tags:
                problems.append(f"{tag}: execution has no span")
                continue
            span = spans.of(tag)
            if span.status != execution.status:
                problems.append(
                    f"{tag}: span status {span.status!r} != execution "
                    f"status {execution.status!r}")
            latency = span.latency
            if (latency is not None
                    and abs(latency - execution.response_time) > _EPS):
                problems.append(
                    f"{tag}: span latency {latency} != execution "
                    f"response_time {execution.response_time}")
        for span in spans:
            if span.tag not in executions:
                problems.append(f"{span.tag}: span has no execution")
    return problems

"""Critical-path analysis over the activation dependency graph.

*Which operator limits the response time?*  Garofalakis & Ioannidis
frame parallel query response time as the length of the longest
dependency chain through the schedule; this module extracts exactly
that chain from an observed execution.

The dependency graph is implicit in the span trace plus the event
stream:

* **same-thread edges** — a thread executes serially, so each span
  depends on the previous span of its thread; any gap between them is
  time the thread spent polling, parked, or blocked;
* **cross-operation edges** — a pipelined consumer's activation
  depends on the producer activation that enqueued its input row.
  Individual rows are not tracked post-mortem, so the edge used is the
  *latest producer span finishing at or before the consumer span
  starts* — the tightest dependency consistent with the engine's
  progressive-visibility rule (a producer's rows become consumable no
  later than its span end).

A longest-path dynamic program over this DAG yields, for every span,
the heaviest chain of *dependent work* ending at it: the score is the
chain's total busy time — inter-span gaps ride along (they become the
wait/block segments of the report) but score nothing, otherwise any
thread alive for the whole wave would trivially "win" with a chain
that is all idle gap.  The **critical path** is the heaviest chain
overall.  Two invariants follow structurally and are pinned by the
tests:

* every chain is a sequence of non-overlapping, contiguous time
  segments, so its length (busy plus gaps) is at most the elapsed
  virtual time;
* the same-thread edges alone form a chain per thread, so the
  critical path carries at least the busiest single thread's busy
  time (and hence at least any operator's busiest-thread time).

Gaps on the path are attributed per operator: a gap closed by a
cross-operation edge is *queue-wait charged to the producer* (the
consumer starved waiting for input); a same-thread gap is queue-wait
charged to the span's own operator; any portion of a gap during which
the thread sat in a back-pressure block is *capacity-block charged to
the blocking consumer*.  Allcache penalties of on-path spans complete
the blame.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.diag.run import ObservedRun
from repro.errors import ReproError
from repro.obs.bus import BLOCK, MEMORY, UNBLOCK

#: Time tolerance for dependency edges: a producer span ending within
#: EPS after a consumer span starts still counts as its predecessor
#: (float accumulation across thread clocks).
EPS = 1e-9

#: Segment kinds.
BUSY = "busy"
WAIT = "wait"      # queue-wait: no consumable input (or polling)
BLOCKED = "block"  # back-pressure: downstream queue at capacity


@dataclass(frozen=True)
class PathSegment:
    """One contiguous time segment of the critical path."""

    kind: str            # BUSY, WAIT or BLOCKED
    operation: str       # operation of the span this segment leads to
    charged_to: str      # operation the segment's time is blamed on
    thread_id: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class OperatorBlame:
    """Where one operator's share of the critical path went."""

    operation: str
    busy: float = 0.0     # on-path activation/finalize work
    wait: float = 0.0     # queue-wait charged to this operator
    block: float = 0.0    # capacity-block charged to this operator
    penalty: float = 0.0  # Allcache penalties inside on-path spans

    @property
    def total(self) -> float:
        """Path time charged to this operator (penalty is a subset of
        busy — the remote-access surcharge is paid inside the span —
        so it is reported but not added again)."""
        return self.busy + self.wait + self.block

    def to_json(self) -> dict:
        return {"busy": self.busy, "wait": self.wait, "block": self.block,
                "penalty": self.penalty, "total": self.total}


@dataclass
class CriticalPath:
    """The heaviest dependency chain of one observed execution."""

    segments: list[PathSegment]
    blame: dict[str, OperatorBlame] = field(default_factory=dict)

    @property
    def start(self) -> float:
        return self.segments[0].start

    @property
    def end(self) -> float:
        return self.segments[-1].end

    @property
    def length(self) -> float:
        """Path length = sum of segment durations (= end - start, the
        segments being contiguous)."""
        return sum(segment.duration for segment in self.segments)

    @property
    def bottleneck(self) -> str:
        """The operator with the largest total blame."""
        return max(self.blame.values(), key=lambda b: b.total).operation

    def busy_total(self) -> float:
        return sum(b.busy for b in self.blame.values())

    def wait_total(self) -> float:
        return sum(b.wait for b in self.blame.values())

    def block_total(self) -> float:
        return sum(b.block for b in self.blame.values())

    def to_json(self) -> dict:
        """Compact JSON form (equal for a live and a reloaded run)."""
        return {
            "length": self.length,
            "start": self.start,
            "end": self.end,
            "segments": len(self.segments),
            "bottleneck": self.bottleneck,
            "blame": {name: blame.to_json()
                      for name, blame in sorted(self.blame.items())},
        }

    def render(self) -> str:
        """Human-readable report: blame table plus a hop summary."""
        lines = [
            f"critical path: {self.length:.3f}s over "
            f"{len(self.segments)} segments "
            f"({self.start:.3f}s .. {self.end:.3f}s virtual)",
            f"  busy {self.busy_total():.3f}s"
            f" + queue-wait {self.wait_total():.3f}s"
            f" + capacity-block {self.block_total():.3f}s",
            f"  bottleneck operator: {self.bottleneck}",
            "  per-operator blame (on-path time):",
        ]
        ranked = sorted(self.blame.values(), key=lambda b: -b.total)
        for blame in ranked:
            share = blame.total / self.length if self.length > 0 else 0.0
            lines.append(
                f"    {blame.operation:<12} total={blame.total:8.3f}s "
                f"({share:5.1%})  busy={blame.busy:.3f}s "
                f"wait={blame.wait:.3f}s block={blame.block:.3f}s "
                f"allcache={blame.penalty:.4f}s")
        hops = _hop_summary(self.segments)
        lines.append(f"  path shape: {hops}")
        return "\n".join(lines)


#: Hops a rendered path shape shows before eliding its middle.
HOP_LIMIT = 12


def _hop_summary(segments: list[PathSegment]) -> str:
    """Compress the segment chain to `op(busy)` hops for display."""
    hops: list[str] = []
    for segment in segments:
        if segment.kind != BUSY:
            continue
        if hops and hops[-1].startswith(segment.operation + "("):
            continue
        hops.append(f"{segment.operation}(t{segment.thread_id})")
    if len(hops) > HOP_LIMIT:
        head = hops[: HOP_LIMIT // 2]
        tail = hops[-(HOP_LIMIT - HOP_LIMIT // 2):]
        hops = head + [f"... {len(hops) - HOP_LIMIT} hops ..."] + tail
    return " -> ".join(hops) if hops else "(empty)"


# -- block intervals ---------------------------------------------------------

def _block_intervals(run: ObservedRun
                     ) -> dict[int, list[tuple[float, float, str]]]:
    """Per-thread ``(start, end, blocking_consumer)`` back-pressure
    intervals, from paired ``queue.block`` / ``queue.unblock`` events."""
    opened: dict[int, tuple[float, str]] = {}
    intervals: dict[int, list[tuple[float, float, str]]] = {}
    for event in run.obs.events:
        if event.kind == BLOCK and event.thread_id is not None:
            target = (event.data or {}).get("target", event.operation or "?")
            opened[event.thread_id] = (event.t, target)
        elif event.kind == UNBLOCK and event.thread_id is not None:
            start = opened.pop(event.thread_id, None)
            if start is not None:
                intervals.setdefault(event.thread_id, []).append(
                    (start[0], event.t, start[1]))
    for spans in intervals.values():
        spans.sort()
    return intervals


def _split_gap(gap_start: float, gap_end: float, thread_id: int,
               operation: str, wait_charge: str,
               blocks: dict[int, list[tuple[float, float, str]]]
               ) -> list[PathSegment]:
    """Split one inter-span gap into wait/block segments (forward
    order), charging block time to the blocking consumer."""
    segments: list[PathSegment] = []
    cursor = gap_start
    for b_start, b_end, target in blocks.get(thread_id, ()):
        if b_end <= gap_start or b_start >= gap_end:
            continue
        lo = max(b_start, cursor)
        hi = min(b_end, gap_end)
        if lo > cursor:
            segments.append(PathSegment(WAIT, operation, wait_charge,
                                        thread_id, cursor, lo))
        if hi > lo:
            segments.append(PathSegment(BLOCKED, operation, target,
                                        thread_id, lo, hi))
            cursor = hi
    if gap_end > cursor:
        segments.append(PathSegment(WAIT, operation, wait_charge,
                                    thread_id, cursor, gap_end))
    return segments


# -- the longest-path dynamic program ----------------------------------------

def critical_path(source) -> CriticalPath:
    """Extract the critical path of an observed execution.

    *source* is anything :meth:`ObservedRun.of` accepts: a live
    observed :class:`~repro.engine.metrics.QueryExecution`, a
    :class:`~repro.obs.export.LoadedRun`, or a JSONL log path.
    """
    run = ObservedRun.of(source)
    spans = run.obs.trace.events
    if not spans:
        raise ReproError("observed run has an empty span trace; "
                         "nothing to extract a critical path from")

    # The spans as columns, and the two sort keys as lists whose
    # ``__getitem__`` is the key function: the walk below reads floats
    # by index and makes no Python call per span.
    thread_ids, operations, _, starts, ends = zip(*spans)
    durations = [end - start for start, end in zip(starts, ends)]
    by_start = list(zip(starts, ends)).__getitem__
    by_end = list(zip(ends, starts)).__getitem__

    # Same-thread predecessor of every span.
    prev_on_thread: list[int | None] = [None] * len(spans)
    order_by_thread: dict[int, list[int]] = {}
    for i, thread_id in enumerate(thread_ids):
        order_by_thread.setdefault(thread_id, []).append(i)
    for indices in order_by_thread.values():
        indices.sort(key=by_start)
        previous: int | None = None
        for i in indices:
            prev_on_thread[i] = previous
            previous = i

    # Per-producer-operation spans sorted by end, for the
    # latest-finishing-before-start lookup; per consumer operation,
    # its producers (in the order the producer set iterates) with
    # spans of their own.
    by_op: dict[str, list[int]] = {}
    for i, name in enumerate(operations):
        by_op.setdefault(name, []).append(i)
    op_ends: dict[str, list[float]] = {}
    for name, indices in by_op.items():
        indices.sort(key=by_end)
        op_ends[name] = [ends[i] for i in indices]
    producers = {name: run.producers_of(name) for name in by_op}
    feeds = {name: [(by_op[producer], op_ends[producer])
                    for producer in producers[name] if producer in by_op]
             for name in by_op}

    # Heaviest chain ending at each span, in dependency-safe order
    # (every predecessor ends no later than its successor starts, so
    # (end, start) order visits predecessors first).  The score is the
    # chain's total busy time; gaps are attributed during backtrack
    # but score nothing.
    chain: dict[int, float] = {}
    choice: list[int | None] = [None] * len(spans)
    processed_ends: list[float] = []
    prefix_best: list[int] = []  # argmax chain over processed[:k+1]
    for i in sorted(range(len(spans)), key=by_end):
        # Predecessors end no later than this (the edge tolerance).
        horizon = starts[i] + EPS
        duration = durations[i]
        best_len = duration
        best_pred: int | None = None
        candidates: list[int] = []
        same = prev_on_thread[i]
        if same is not None:
            candidates.append(same)
        for indices, producer_ends in feeds[operations[i]]:
            j = bisect_right(producer_ends, horizon) - 1
            if j >= 0:
                candidates.append(indices[j])
        if same is None and not producers[operations[i]]:
            # Wave barrier: the first span of a thread running a
            # producer-less (triggered) operation was seeded only after
            # every earlier wave completed, so the heaviest chain
            # finishing before it is a genuine predecessor.
            j = bisect_right(processed_ends, horizon) - 1
            if j >= 0:
                candidates.append(prefix_best[j])
        for pred in candidates:
            if pred not in chain:  # zero-width tie not yet visited
                continue
            if ends[pred] > horizon:
                continue
            length = chain[pred] + duration
            if length > best_len:
                best_len = length
                best_pred = pred
        chain[i] = best_len
        choice[i] = best_pred
        processed_ends.append(ends[i])
        if prefix_best and chain[prefix_best[-1]] >= best_len:
            prefix_best.append(prefix_best[-1])
        else:
            prefix_best.append(i)

    tip = max(chain, key=chain.__getitem__)
    blocks = _block_intervals(run)

    # Backtrack, emitting contiguous segments in forward order.
    reversed_segments: list[PathSegment] = []
    i: int | None = tip
    on_path: list[int] = []
    while i is not None:
        span = spans[i]
        on_path.append(i)
        reversed_segments.append(PathSegment(
            BUSY, span.operation, span.operation, span.thread_id,
            span.start, span.end))
        pred = choice[i]
        if pred is not None:
            pred_span = spans[pred]
            gap_start = min(pred_span.end, span.start)
            if span.start - gap_start > 0.0:
                # Cross-operation starvation is the producer's fault;
                # a same-thread gap is the operator's own wait.
                wait_charge = (pred_span.operation
                               if pred_span.operation != span.operation
                               else span.operation)
                reversed_segments.extend(reversed(_split_gap(
                    gap_start, span.start, span.thread_id,
                    span.operation, wait_charge, blocks)))
        i = pred

    segments = list(reversed(reversed_segments))
    blame: dict[str, OperatorBlame] = {}

    def _blame(operation: str) -> OperatorBlame:
        entry = blame.get(operation)
        if entry is None:
            entry = blame[operation] = OperatorBlame(operation)
        return entry

    for segment in segments:
        entry = _blame(segment.charged_to)
        if segment.kind == BUSY:
            entry.busy += segment.duration
        elif segment.kind == BLOCKED:
            entry.block += segment.duration
        else:
            entry.wait += segment.duration

    _attribute_penalties(run, spans, on_path, _blame)
    return CriticalPath(segments=segments, blame=blame)


def _attribute_penalties(run: ObservedRun, spans, on_path: list[int],
                         get_blame) -> None:
    """Sum Allcache penalties of on-path spans into the blame table.

    Activation penalties are emitted at the span's start instant,
    finalize penalties at its end; matching is per-thread by interval
    containment (with tolerance), each event charged at most once.
    """
    path_by_thread: dict[int, list[tuple[float, float, str]]] = {}
    for i in on_path:
        span = spans[i]
        path_by_thread.setdefault(span.thread_id, []).append(
            (span.start, span.end, span.operation))
    for intervals in path_by_thread.values():
        intervals.sort()
    for event in run.obs.events:
        if event.kind != MEMORY or event.thread_id is None:
            continue
        intervals = path_by_thread.get(event.thread_id)
        if not intervals:
            continue
        starts = [interval[0] for interval in intervals]
        j = bisect_right(starts, event.t + EPS) - 1
        if j < 0:
            continue
        start, end, operation = intervals[j]
        if event.t <= end + EPS:
            get_blame(operation).penalty += (event.data or {}).get(
                "penalty", 0.0)

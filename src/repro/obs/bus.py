"""The structured observability event bus.

One :class:`EventBus` instance observes one query execution.  Engine
layers hold an optional reference to it (``None`` when observability
is off) and guard every emission with a single ``is not None`` check,
so the disabled hot path costs one attribute load per site — the
perf-regression harness pins this at under 5 % wall clock.  When on,
observing an activation costs appends: the per-activation sites (the
dequeue event, the activation span, the ready-notify count) write their
record into ``events`` / ``counters`` themselves, a queue-depth move is
one :meth:`EventBus.add` frame, and a probe that repeats its last value
stores nothing.  Exporters are views over what is stored.

The bus records three things:

* **events** — discrete, structured records (enqueue batches, dequeue
  batches with a steal flag, capacity blocking, memory penalties,
  operation lifecycle, waves), each stamped with the emitting thread's
  virtual clock;
* **series** — time-series probes (:mod:`repro.obs.probes`) sampled on
  change: per-operation queue depth, ready-set size, active threads,
  cumulative Allcache penalty;
* **counters** — plain scalar tallies with no time axis (ready-index
  notification and stale-drop churn), for quantities too hot to
  timestamp individually.

Counts recorded here deliberately mirror the end-of-run aggregates of
:class:`~repro.engine.metrics.OperationMetrics` (enqueues, dequeue
batches, secondary accesses), so an exported event log can be checked
against the metrics — the round-trip the obs tests and the acceptance
demo verify.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.obs.probes import ACTIVE_THREADS, MEMORY_PENALTY, Series

#: Event taxonomy.  ``queue.dequeue`` with ``secondary=True`` is a
#: steal — a thread consuming from a queue outside its main set.
WAVE_START = "wave.start"
WAVE_END = "wave.end"
OP_START = "op.start"
OP_SEED = "op.seed"
OP_FINALIZE = "op.finalize"
OP_FINISH = "op.finish"
ENQUEUE = "queue.enqueue"
DEQUEUE = "queue.dequeue"
BLOCK = "queue.block"
UNBLOCK = "queue.unblock"
THREAD_FINISH = "thread.finish"
MEMORY = "memory.penalty"

#: Workload (multi-query) lifecycle.  These appear on the *workload*
#: bus, which tags every record with the query's name; the per-query
#: buses carry the ordinary event kinds above, exactly as in a
#: single-query run.
QUERY_SUBMIT = "query.submit"    # entered the admission queue
QUERY_ADMIT = "query.admit"      # passed admission, starts executing
QUERY_GRANT = "query.grant"      # (re)granted a thread budget
QUERY_FINISH = "query.finish"    # last operation finished
QUERY_CANCEL = "query.cancel"    # cancelled or timed out (reason in data)
QUERY_ABORT = "query.abort"      # aborted by an exhausted fault retry
QUERY_REJECT = "query.reject"    # rejected/shed pre-admission (terminal)

#: Serving / overload protection (:mod:`repro.serve`).  Workload-bus
#: records of the overload layer's level transitions: backpressure
#: engages when the bounded wait queue saturates, brownout when a
#: monitor alert (SLO burn rate, retry storm) trips the degraded mode.
SERVE_BACKPRESSURE = "serve.backpressure"  # bounded queue hit/left its limit
SERVE_BROWNOUT = "serve.brownout"          # brownout tripped or cleared

#: Fault injection (:mod:`repro.faults`).  Per-operation kinds appear
#: on the query's bus; ``fault.memory`` is machine-level and appears
#: on the workload bus.
FAULT_ACTIVATION = "fault.activation"  # one failed processing attempt
FAULT_DISK = "fault.disk"              # disk latency/error spike active
FAULT_MEMORY = "fault.memory"          # Allcache budget shrank mid-run
FAULT_STALL = "fault.stall"            # a thread froze for a window
FAULT_SLOWDOWN = "fault.slowdown"      # a slowdown window took effect

#: Adaptive scheduling (:mod:`repro.adapt`).  Workload-bus records of
#: every mid-flight decision the controller takes, with before/after
#: payloads so the diagnose CLI can explain exactly what moved.
SCHEDULE_RESPLIT = "schedule.resplit"  # wave grant re-split by blame
SCHEDULE_SWITCH = "schedule.switch"    # Random->LPT strategy switch

EVENT_KINDS = (
    WAVE_START, WAVE_END, OP_START, OP_SEED, OP_FINALIZE, OP_FINISH,
    ENQUEUE, DEQUEUE, BLOCK, UNBLOCK, THREAD_FINISH, MEMORY,
    QUERY_SUBMIT, QUERY_ADMIT, QUERY_GRANT, QUERY_FINISH,
    QUERY_CANCEL, QUERY_ABORT, QUERY_REJECT,
    SERVE_BACKPRESSURE, SERVE_BROWNOUT,
    FAULT_ACTIVATION, FAULT_DISK, FAULT_MEMORY, FAULT_STALL,
    FAULT_SLOWDOWN,
    SCHEDULE_RESPLIT, SCHEDULE_SWITCH,
)

#: Scalar-counter name prefixes (ready-index churn).
READY_NOTIFY_PREFIX = "ready_notify/"
READY_STALE_PREFIX = "ready_stale_drops/"


class Event(NamedTuple):
    """One structured observation (an immutable record: a tuple costs
    half what a frozen dataclass does to build, and the per-activation
    sites build one each).

    ``t`` is the emitting thread's virtual clock (or the executor's
    wave clock); ``data`` holds kind-specific payload fields, ``None``
    when the kind carries none.
    """

    kind: str
    t: float
    operation: str | None = None
    thread_id: int | None = None
    data: dict | None = None


class EventBus:
    """Collects events, probe series and scalar counters for one run."""

    __slots__ = ("events", "series", "counters")

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.series: dict[str, Series] = {}
        self.counters: dict[str, float] = {}

    def __repr__(self) -> str:
        return (f"EventBus(events={len(self.events)}, "
                f"series={len(self.series)}, counters={len(self.counters)})")

    # -- recording ----------------------------------------------------------

    def emit(self, kind: str, t: float, operation: str | None = None,
             thread_id: int | None = None, **data) -> None:
        """Append one structured event."""
        self.events.append(Event(kind, t, operation, thread_id,
                                 data if data else None))

    def sample(self, name: str, t: float, value: float) -> None:
        """Record an absolute probe sample."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(name)
        series.sample(t, value)

    def add(self, name: str, t: float, delta: float) -> float:
        """Bump a counter by *delta* and sample the new value at *t*.

        One frame: every enqueue and dequeue moves a queue-depth
        counter through here, so :meth:`Series.sample`'s on-change
        append is written out in place.
        """
        counters = self.counters
        value = counters[name] = counters.get(name, 0.0) + delta
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(name)
        values = series.values
        if not values or values[-1] != value:
            series.times.append(t)
            values.append(value)
        return value

    def count(self, name: str, delta: float = 1.0) -> None:
        """Bump a scalar counter with no time-series sample (hot sites)."""
        self.counters[name] = self.counters.get(name, 0.0) + delta

    # -- engine convenience hooks ------------------------------------------

    def sample_active(self, t: float, active: int) -> None:
        """Sample the simulator's currently-runnable thread count."""
        self.sample(ACTIVE_THREADS, t, active)

    def add_memory_penalty(self, t: float, operation: str,
                           thread_id: int, penalty: float) -> None:
        """Record an Allcache remote-access penalty charge."""
        self.emit(MEMORY, t, operation, thread_id, penalty=penalty)
        self.add(MEMORY_PENALTY, t, penalty)

    # -- queries ------------------------------------------------------------

    def events_of(self, kind: str, operation: str | None = None) -> list[Event]:
        """Events of one kind, optionally restricted to one operation."""
        return [e for e in self.events
                if e.kind == kind
                and (operation is None or e.operation == operation)]

    def kind_counts(self) -> dict[str, int]:
        """How many events of each kind were recorded."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def enqueue_total(self, operation: str) -> int:
        """Rows *operation* enqueued downstream (sums event counts);
        matches ``OperationMetrics.enqueues``."""
        return sum(e.data["count"] for e in self.events_of(ENQUEUE, operation))

    def dequeue_batch_total(self, operation: str) -> int:
        """Dequeue batches *operation* fetched; matches
        ``OperationMetrics.dequeue_batches``."""
        return len(self.events_of(DEQUEUE, operation))

    def secondary_access_total(self, operation: str) -> int:
        """Dequeue batches taken from a non-main (stolen) queue;
        matches ``OperationMetrics.secondary_accesses``."""
        return sum(1 for e in self.events_of(DEQUEUE, operation)
                   if e.data["secondary"])

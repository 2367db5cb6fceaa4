"""A uniform view over an observed execution, live or reloaded.

The diagnostics layer never touches the engine: everything it needs —
per-operation aggregates, and an :class:`~repro.obs.bus.EventBus`
holding the structured event stream and the activation span trace —
exists both on a live :class:`~repro.engine.metrics.QueryExecution`
(run with ``ObservabilityOptions(observe=True)``) and in a reloaded
JSONL event log (:func:`repro.obs.export.read_jsonl`).
:class:`ObservedRun` holds either bus by reference; the two sources
differ only in where the meta numbers and the :class:`OpView` rows
come from.  That is what makes "diagnosing from a reloaded log gives
results identical to diagnosing the live execution" true by
construction: both paths feed the analyses the exact same numbers
(floats survive the JSON round trip bit-exactly).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from bisect import bisect_right

from repro.errors import ReproError
from repro.obs.bus import DEQUEUE, ENQUEUE, EventBus
from repro.obs.export import OP_FIELDS, LoadedRun, read_jsonl

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.engine.metrics import QueryExecution


class OpView(namedtuple("OpView", ("name", *OP_FIELDS))):
    """Per-operation aggregates, identical from both sources: the
    ``name`` and :data:`~repro.obs.export.OP_FIELDS` of an ``op``
    record."""

    __slots__ = ()

    @classmethod
    def read(cls, name: str, value) -> "OpView":
        """The view of operation *name*, ``value(field)`` reading each
        field (an attribute of live metrics, a key of a reloaded
        record); per-queue counts become a tuple either way."""
        view = cls(name, *map(value, OP_FIELDS))
        return view._replace(
            queue_activations=tuple(view.queue_activations))

    @property
    def steal_ratio(self) -> float:
        """Fraction of dequeue batches taken from a secondary queue."""
        if self.dequeue_batches == 0:
            return 0.0
        return self.secondary_accesses / self.dequeue_batches

    @property
    def queue_imbalance(self) -> float:
        """Max/mean activations per instance queue (1.0 = even)."""
        total = sum(self.queue_activations)
        if total == 0 or not self.queue_activations:
            return 1.0
        mean = total / len(self.queue_activations)
        return max(self.queue_activations) / mean

    @property
    def idle_fraction(self) -> float:
        """Idle share of the pool's accounted lifetime."""
        lifetime = self.busy_time + self.idle_time
        if lifetime <= 0:
            return 0.0
        return self.idle_time / lifetime


@dataclass
class ObservedRun:
    """One observed execution, normalized for analysis."""

    response_time: float
    startup_time: float
    total_threads: int
    dilation: float
    ops: dict[str, OpView]
    obs: EventBus
    """The run's recorder, by reference: the live execution's bus or
    the one :func:`~repro.obs.export.read_jsonl` rebuilt."""
    source: str = "live"
    status: str = "done"
    """Terminal status of the run (``done`` / ``cancelled`` /
    ``timed_out`` / ``failed``): a cancelled run's diagnosis is a
    partial post-mortem, not a performance report."""

    #: consumer operation -> producer operations, derived lazily from
    #: the ``queue.enqueue`` events (which carry ``consumer=...``).
    _producers: dict[str, set[str]] | None = field(
        default=None, repr=False, compare=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_execution(cls, execution: "QueryExecution") -> "ObservedRun":
        """Adapt a live observed execution."""
        if execution.obs is None:
            raise ReproError(
                "execution was not observed; run with ExecutionOptions("
                "observability=ObservabilityOptions(observe=True)) "
                "to diagnose it")
        ops = {name: OpView.read(name, partial(getattr, op))
               for name, op in execution.operations.items()}
        return cls(
            response_time=execution.response_time,
            startup_time=execution.startup_time,
            total_threads=execution.total_threads,
            dilation=execution.dilation,
            ops=ops,
            obs=execution.obs,
            source="live",
            status=execution.status,
        )

    @classmethod
    def from_loaded(cls, loaded: LoadedRun) -> "ObservedRun":
        """Adapt a reloaded JSONL event log."""
        ops = {record["name"]: OpView.read(record["name"], record.__getitem__)
               for record in loaded.ops}
        return cls(
            response_time=loaded.meta["response_time"],
            startup_time=loaded.meta["startup_time"],
            total_threads=loaded.meta["total_threads"],
            dilation=loaded.meta["dilation"],
            ops=ops,
            obs=loaded.obs,
            source="jsonl",
            status=loaded.status,
        )

    @classmethod
    def of(cls, source) -> "ObservedRun":
        """Coerce any diagnosable source: an :class:`ObservedRun`, a
        live execution, a :class:`LoadedRun`, or a JSONL path."""
        if isinstance(source, cls):
            return source
        if isinstance(source, LoadedRun):
            return cls.from_loaded(source)
        if isinstance(source, (str, Path)):
            return cls.from_loaded(read_jsonl(source))
        return cls.from_execution(source)

    # -- derived views ------------------------------------------------------

    def producers_of(self, operation: str) -> set[str]:
        """Operations that feed *operation* through a pipeline edge."""
        if self._producers is None:
            producers: dict[str, set[str]] = {}
            for event in self.obs.events:
                if event.kind == ENQUEUE and event.data is not None:
                    consumer = event.data.get("consumer")
                    if consumer is not None and event.operation is not None:
                        producers.setdefault(consumer, set()).add(
                            event.operation)
            self._producers = producers
        return self._producers.get(operation, set())

    def thread_busy_times(self, operation: str | None = None
                          ) -> dict[int, float]:
        """Per-thread busy time from the span trace (optionally one
        operation's pool only)."""
        busy: dict[int, float] = {}
        for span in self.obs.trace.events:
            if operation is not None and span.operation != operation:
                continue
            busy[span.thread_id] = busy.get(span.thread_id, 0.0) + \
                span.duration
        return busy

    def instance_busy_times(self, operation: str) -> list[float]:
        """Per-instance activation work, reconstructed post-mortem.

        The engine does not meter cost per queue (that would be
        hot-path work), but the event stream implies it: a thread
        processes the batch it just dequeued before dequeuing again,
        so every activation span belongs to the *latest*
        ``queue.dequeue`` of its thread at or before the span's start,
        and that event names the instance.  This is what exposes
        *work* skew — the Figure 12 signature, where the uniform
        stream sends equal activation *counts* to every instance but
        the skewed stored operand makes some instances' activations
        arbitrarily more expensive.
        """
        op = self.ops[operation] if operation in self.ops else None
        instances = op.instances if op is not None else 0
        dequeues: dict[int, tuple[list[float], list[int]]] = {}
        for event in self.obs.events:
            if (event.kind == DEQUEUE and event.operation == operation
                    and event.thread_id is not None
                    and event.data is not None):
                times, targets = dequeues.setdefault(
                    event.thread_id, ([], []))
                times.append(event.t)
                targets.append(event.data["instance"])
                instances = max(instances, event.data["instance"] + 1)
        busy = [0.0] * instances
        for span in self.obs.trace.events:
            if span.operation != operation or span.kind != "activation":
                continue
            thread_dequeues = dequeues.get(span.thread_id)
            if thread_dequeues is None:
                continue
            times, targets = thread_dequeues
            index = bisect_right(times, span.start + 1e-9) - 1
            if index >= 0:
                busy[targets[index]] += span.duration
        return busy

"""Execution traces and the ASCII Gantt renderer.

An observed execution (``ObservabilityOptions(observe=True)``) keeps
its trace on the bus, ``QueryExecution.obs.trace``: the simulator
records one event per processed activation — which thread, which
operation, which virtual-time interval.  The trace renders as a
Gantt chart (one row per thread, one glyph per operation), which makes
the paper's load-balancing stories directly *visible*: a skewed
triggered join under static binding shows one long straggler row; the
same join with shared queues shows the tail spread across the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ReproError

#: Glyphs assigned to operations, in first-seen order.  When a trace
#: holds more operations than glyphs, glyphs are shared and the legend
#: disambiguates (one entry listing every operation of the glyph).
_GLYPHS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class TraceEvent(NamedTuple):
    """One busy interval of one thread (an immutable record; the
    simulator appends one per activation)."""

    thread_id: int
    operation: str
    kind: str              # "activation", "finalize" or "fault"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """All busy intervals of one execution."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(self, thread_id: int, operation: str, kind: str,
               start: float, end: float) -> None:
        self.events.append(TraceEvent(thread_id, operation, kind, start, end))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def span(self) -> tuple[float, float]:
        """(first start, last end) over all events."""
        if not self.events:
            raise ReproError("empty trace")
        return (min(e.start for e in self.events),
                max(e.end for e in self.events))

    def thread_ids(self) -> list[int]:
        return sorted({e.thread_id for e in self.events})

    def operations(self) -> list[str]:
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.operation, None)
        return list(seen)

    def events_of(self, thread_id: int) -> list[TraceEvent]:
        return sorted((e for e in self.events if e.thread_id == thread_id),
                      key=lambda e: e.start)

    def busy_time(self, thread_id: int) -> float:
        return sum(e.duration for e in self.events
                   if e.thread_id == thread_id)

    # -- rendering ------------------------------------------------------------

    def gantt(self, width: int = 80) -> str:
        """ASCII Gantt chart: one row per thread, one glyph per operation.

        ``·`` marks idle time; the legend maps glyphs to operations.
        """
        if not self.events:
            raise ReproError("empty trace")
        start, end = self.span
        scale = (end - start) / width if end > start else 1.0
        glyph_of = {name: _GLYPHS[i % len(_GLYPHS)]
                    for i, name in enumerate(self.operations())}
        lines = [f"virtual time {start:.3f}s .. {end:.3f}s "
                 f"({scale:.4f}s per column)"]
        for thread_id in self.thread_ids():
            row = ["·"] * width
            for event in self.events_of(thread_id):
                lo = int((event.start - start) / scale) if scale else 0
                hi = int((event.end - start) / scale) if scale else 0
                lo = min(lo, width - 1)
                hi = min(max(hi, lo + 1), width)
                glyph = glyph_of[event.operation]
                if event.kind == "finalize":
                    glyph = glyph.upper()
                for column in range(lo, hi):
                    row[column] = glyph
            lines.append(f"t{thread_id:>3} |{''.join(row)}|")
        by_glyph: dict[str, list[str]] = {}
        for name in self.operations():
            by_glyph.setdefault(glyph_of[name], []).append(name)
        legend = ", ".join(f"{glyph}={'|'.join(names)}"
                           for glyph, names in by_glyph.items())
        lines.append(f"legend: {legend} (uppercase = finalize), · = idle")
        if any(len(names) > 1 for names in by_glyph.values()):
            lines.append(
                f"note: {len(glyph_of)} operations share {len(_GLYPHS)} "
                "glyphs; a shared glyph lists every operation as g=op1|op2")
        return "\n".join(lines)

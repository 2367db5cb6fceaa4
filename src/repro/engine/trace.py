"""Execution traces and the ASCII Gantt renderer.

When tracing is enabled (``ObservabilityOptions(trace=True)``), the
simulator records one event per processed activation — which thread,
which operation, which virtual-time interval.  The trace renders as a
Gantt chart (one row per thread, one glyph per operation), which makes
the paper's load-balancing stories directly *visible*: a skewed
triggered join under static binding shows one long straggler row; the
same join with shared queues shows the tail spread across the pool.
"""

from __future__ import annotations

from bisect import bisect_right
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
    kind: str              # "activation" or "finalize"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """All busy intervals of one execution."""

    events: list[TraceEvent] = field(default_factory=list)
    #: ``(event_count, sorted_starts, sorted_ends)`` memo for the
    #: sweep-based queries below; invalidated by length change.
    _bounds_cache: tuple | None = field(default=None, repr=False,
                                        compare=False)

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

    def _sorted_bounds(self) -> tuple[list[float], list[float]]:
        """Sorted start and end times of all events (memoized).

        Both sweep queries below work off these; the memo is keyed on
        the event count, so appending events invalidates it.
        """
        cache = self._bounds_cache
        if cache is not None and cache[0] == len(self.events):
            return cache[1], cache[2]
        starts = sorted(e.start for e in self.events)
        ends = sorted(e.end for e in self.events)
        self._bounds_cache = (len(self.events), starts, ends)
        return starts, ends

    def active_threads(self, instant: float) -> int:
        """How many threads are busy at a virtual instant.

        O(log E) per query after one O(E log E) sort (memoized): an
        event is active when ``start <= instant < end``, so the count
        is ``#{starts <= instant} - #{ends <= instant}``.
        """
        starts, ends = self._sorted_bounds()
        return bisect_right(starts, instant) - bisect_right(ends, instant)

    def utilization_timeline(self, bins: int = 20) -> list[float]:
        """Mean busy-thread count per time bin across the span.

        One sorted boundary sweep — O(E log E + bins) — instead of
        rescanning every event per bin: walk the merged start/end
        boundaries keeping a running active count, and distribute each
        constant-activity segment over the bins it overlaps.
        """
        start, end = self.span
        if end <= start:
            return [0.0] * bins
        width = (end - start) / bins
        starts, ends = self._sorted_bounds()
        timeline = [0.0] * bins
        count = len(starts)
        si = ei = 0
        active = 0
        prev = start
        while ei < count:
            take_start = si < count and starts[si] <= ends[ei]
            t = starts[si] if take_start else ends[ei]
            if t > prev:
                if active:
                    self._spread(timeline, prev, t, active, start, width)
                prev = t
            if take_start:
                active += 1
                si += 1
            else:
                active -= 1
                ei += 1
        threads = max(len(self.thread_ids()), 1)
        scale = width * threads
        return [busy / scale for busy in timeline]

    @staticmethod
    def _spread(timeline: list[float], a: float, b: float, weight: int,
                start: float, width: float) -> None:
        """Add ``weight * overlap`` of segment ``[a, b)`` to each bin."""
        bins = len(timeline)
        lo = min(int((a - start) / width), bins - 1)
        hi = min(int((b - start) / width), bins - 1)
        if lo == hi:
            timeline[lo] += weight * (b - a)
            return
        timeline[lo] += weight * (start + (lo + 1) * width - a)
        for i in range(lo + 1, hi):
            timeline[i] += weight * width
        timeline[hi] += weight * (b - (start + hi * width))

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

"""Virtual-time time-series probes.

A :class:`Series` is a named sequence of ``(virtual_time, value)``
samples.  The event bus maintains one series per probed quantity —
queue depth per operation, ready-set size, active threads, cumulative
memory penalty — appending a sample whenever the underlying counter
changes.  Because the engine is a discrete-event simulator, sampling
on change loses nothing: between samples the quantity is exactly
constant, so a series is a complete step function of virtual time.

Series are what the Chrome-trace exporter turns into counter tracks
and what :func:`repro.obs.export.metrics_snapshot` summarizes.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import ReproError


class Series:
    """One probed quantity over virtual time (a step function)."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return f"Series({self.name!r}, samples={len(self.times)})"

    def sample(self, t: float, value: float) -> None:
        """Append one sample unless it repeats the last value: a series
        stores changes only, so what it holds is what exporters write.
        Virtual time must not go backwards by more than simulator
        tie-breaking allows; samples are kept in arrival order (which
        the engine emits non-decreasing per probe site, but distinct
        thread clocks may interleave)."""
        values = self.values
        if not values or values[-1] != value:
            self.times.append(t)
            values.append(value)

    @property
    def last(self) -> float:
        """Most recent sampled value."""
        if not self.values:
            raise ReproError(f"series {self.name!r} has no samples")
        return self.values[-1]

    @property
    def peak(self) -> float:
        """Largest sampled value."""
        if not self.values:
            raise ReproError(f"series {self.name!r} has no samples")
        return max(self.values)

    def at(self, t: float) -> float:
        """Step-function value at virtual time *t* (0 before the
        first sample).  Requires samples in non-decreasing time order;
        the engine's probe sites emit them that way per series because
        every series is driven by one monotone counter."""
        index = bisect_right(self.times, t)
        if index == 0:
            return 0.0
        return self.values[index - 1]

    def to_pairs(self) -> list[tuple[float, float]]:
        """The samples as ``(time, value)`` pairs."""
        return list(zip(self.times, self.values))


#: Well-known series names.  Per-operation probes append the operation
#: name after the slash.
ACTIVE_THREADS = "active_threads"
MEMORY_PENALTY = "memory_penalty"
QUEUE_DEPTH_PREFIX = "queue_depth/"
READY_SET_PREFIX = "ready_set/"


def queue_depth_key(operation_name: str) -> str:
    """Series name of one operation's total pending-activation depth."""
    return QUEUE_DEPTH_PREFIX + operation_name


def ready_set_key(operation_name: str) -> str:
    """Series name of one operation's ready-index ready-set size."""
    return READY_SET_PREFIX + operation_name

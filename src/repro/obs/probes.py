"""Virtual-time time-series probes.

A :class:`Series` is a named sequence of ``(virtual_time, value)``
samples.  The event bus maintains one series per probed quantity of
the simulated machine — queue depth per operation, active threads,
cumulative memory penalty — appending a sample whenever the quantity
changes.  Samples are kept in *emission* order; for a running total
(queue depth, memory penalty) the value is the total in that order
and the series is its only record: the last value is the total.

Emission order is not virtual-time order.  Distinct thread clocks
interleave, and the queue-depth probe stamps an enqueue at the row's
future ready time while its dequeues are stamped at the consumer's
clock: on a pipelined join a ``queue_depth/*`` series steps back in
time hundreds of times.  So a series is a record of counter moves, not
a step function of virtual time: its values are exact (the last one
is the final count, the largest the peak reached in emission order),
but reading one "at" an instant needs a time-ordered replay of the
deltas, which nothing here does.

Series are what the Chrome-trace exporter turns into counter tracks
and what :func:`repro.obs.export.metrics_snapshot` summarizes.
"""

from __future__ import annotations

from repro.errors import ReproError


class Series:
    """One probed quantity's sampled values, in emission order."""

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
        Samples are kept in arrival order; *t* may lie before the
        previous sample's time (see the module docstring)."""
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

    def to_pairs(self) -> list[tuple[float, float]]:
        """The samples as ``(time, value)`` pairs."""
        return list(zip(self.times, self.values))


#: Well-known series names.  Per-operation probes append the operation
#: name after the slash.
ACTIVE_THREADS = "active_threads"
MEMORY_PENALTY = "memory_penalty"
QUEUE_DEPTH_PREFIX = "queue_depth/"


def queue_depth_key(operation_name: str) -> str:
    """Series name of one operation's total pending-activation depth."""
    return QUEUE_DEPTH_PREFIX + operation_name

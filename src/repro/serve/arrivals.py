"""Seeded open-loop arrivals in virtual time.

A serving system faces an **open-loop** stream whose arrival rate does
not care whether the machine keeps up, which is exactly the regime
where an unbounded FIFO queue collapses (the wait queue grows without
bound past saturation and p99 diverges for everyone).

Arrival instants come *only* from a ``random.Random(seed)`` stream, so
a run's full arrival log is a pure function of ``(rate, count, seed)``
— byte-reproducible, the same discipline the fault planner and the
simulator follow.  The one shape is :class:`PoissonArrivals`, the
memoryless baseline: ``rate`` is the long-run arrivals per virtual
second.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadError

ARRIVAL_POISSON = "poisson"

#: The arrival shapes :func:`make_arrival_process` resolves by name.
ARRIVAL_PROCESSES = (ARRIVAL_POISSON,)


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate`` per virtual second."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise WorkloadError(f"rate must be > 0, got {self.rate}")

    def times(self, count: int, seed: int = 0) -> list[float]:
        """The first *count* arrival instants (strictly increasing)."""
        rng = random.Random(seed)
        out: list[float] = []
        t = 0.0
        for _ in range(count):
            t += rng.expovariate(self.rate)
            out.append(t)
        return out


def make_arrival_process(name: str, rate: float) -> PoissonArrivals:
    """The arrival process *name* (one of :data:`ARRIVAL_PROCESSES`)
    at long-run *rate* arrivals per virtual second."""
    if name == ARRIVAL_POISSON:
        return PoissonArrivals(rate)
    raise WorkloadError(
        f"unknown arrival process {name!r} "
        f"(expected one of {ARRIVAL_PROCESSES})")

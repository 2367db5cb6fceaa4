"""Measured speed-up curves.

Figures 14 and 15 plot measured speed-up against the thread count;
for triggered operators under skew the curve plateaus at the nmax
ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

#: How close to the peak a point must be to count as the plateau
#: (:meth:`SpeedupCurve.ceiling`).
PLATEAU_TOLERANCE = 0.05


def speedup(sequential_time: float, parallel_time: float) -> float:
    """Classic speed-up ``Tseq / Tpar``."""
    if parallel_time <= 0:
        raise ReproError(f"parallel time must be > 0, got {parallel_time}")
    return sequential_time / parallel_time


@dataclass(frozen=True)
class SpeedupCurve:
    """A (threads -> speed-up) series with convenience accessors."""

    thread_counts: tuple[int, ...]
    speedups: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thread_counts) != len(self.speedups):
            raise ReproError("thread_counts and speedups length mismatch")

    @property
    def peak(self) -> float:
        """Highest speed-up reached along the curve."""
        return max(self.speedups)

    def ceiling(self) -> float:
        """Plateau value: the level the curve saturates at.

        Returns the mean of the points within :data:`PLATEAU_TOLERANCE`
        of the peak, a robust estimate of the nmax plateau in Figure 15.
        """
        peak = self.peak
        plateau = [s for s in self.speedups
                   if s >= peak * (1 - PLATEAU_TOLERANCE)]
        return sum(plateau) / len(plateau)

"""Fragment statistics — what the scheduler's skew handling runs on.

The paper implements LPT *without estimating per-activation times*:
"we can arrange the operation instances in decreasing order of
estimated execution time, for instance, based on static information on
fragment sizes" (Section 4.1).  These statistics are that static
information: per-fragment cardinalities plus derived skew measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.storage.fragment import Fragment


@dataclass(frozen=True)
class FragmentStatistics:
    """Cardinality statistics over the fragments of one relation."""

    cardinalities: tuple[int, ...]

    @classmethod
    def of(cls, fragments: Sequence[Fragment]) -> "FragmentStatistics":
        """Collect statistics from materialized fragments."""
        return cls(tuple(f.cardinality for f in fragments))

    @property
    def degree(self) -> int:
        """Number of fragments."""
        return len(self.cardinalities)

    @property
    def total(self) -> int:
        """Total cardinality across fragments."""
        return sum(self.cardinalities)

    @property
    def largest(self) -> int:
        """Cardinality of the biggest fragment (drives ``Pmax``)."""
        return max(self.cardinalities) if self.cardinalities else 0

    @property
    def mean(self) -> float:
        """Mean fragment cardinality (drives ``P``)."""
        if not self.cardinalities:
            return 0.0
        return self.total / self.degree

    @property
    def skew_ratio(self) -> float:
        """``Pmax / P``: largest over mean fragment cardinality."""
        mean = self.mean
        if mean == 0:
            return 1.0
        return self.largest / mean

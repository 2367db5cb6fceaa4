"""Simulated disk array and round-robin fragment placement.

The paper's measurements are memory-resident (the INRIA KSR1 had a
single disk), so disks here are placement *metadata*: they record where
a fragment would live and let the degree of partitioning exceed the
number of disks, exactly as Lera-par's storage model allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import PartitioningError
from repro.storage.fragment import Fragment


@dataclass
class Disk:
    """One simulated disk: an identifier plus the fragments placed on it."""

    disk_id: int
    fragments: list[Fragment] = field(default_factory=list)

    @property
    def load_bytes(self) -> int:
        """Total bytes of all fragments placed on this disk."""
        return sum(f.size_bytes() for f in self.fragments)

    @property
    def fragment_count(self) -> int:
        return len(self.fragments)


class DiskArray:
    """A fixed array of simulated disks with round-robin placement."""

    def __init__(self, disk_count: int) -> None:
        if disk_count < 1:
            raise PartitioningError(f"disk_count must be >= 1, got {disk_count}")
        self.disks = [Disk(i) for i in range(disk_count)]

    def __len__(self) -> int:
        return len(self.disks)

    def place_round_robin(self, fragments: Sequence[Fragment]) -> None:
        """Assign fragments to disks round-robin (fragment i -> disk i mod D).

        Mutates each fragment's ``disk`` attribute and records the
        placement on the disk, mirroring the paper: "relation fragments
        are distributed onto disks in a round-robin fashion".
        """
        disk_count = len(self.disks)
        for fragment in fragments:
            disk = self.disks[fragment.index % disk_count]
            fragment.disk = disk.disk_id
            disk.fragments.append(fragment)

    def remove(self, fragments: Sequence[Fragment]) -> None:
        """Take placed *fragments* back off their disks (relation dropped)."""
        for fragment in fragments:
            self.disks[fragment.disk].fragments.remove(fragment)

    def balance_ratio(self) -> float:
        """Max/mean fragment count across disks (1.0 = perfectly even)."""
        counts = [d.fragment_count for d in self.disks]
        total = sum(counts)
        if total == 0:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean

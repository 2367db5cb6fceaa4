"""Machine models: the KSR1 Allcache machine and a uniform one.

A :class:`Machine` bundles the processor count, the cost model, and —
for the Allcache flavour — a memory directory.  Figure 7 of the paper
contrasts exactly these two organizations: a conventional
shared-memory machine (Encore Multimax) against the KSR1's physically
distributed, virtually shared Allcache memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.cache import AllcacheDirectory
from repro.machine.costs import DEFAULT_COSTS, CostModel

#: The paper's experimental platform: 72 x 40 MIPS processors, 32 MB
#: local caches, 2.3 GB total memory.
KSR1_PROCESSORS = 72
KSR1_LOCAL_CACHE_BYTES = 32 * 1024 * 1024

#: Fraction of a local cache usable for relation data; the rest holds
#: code, the OS, and engine structures.  Calibrated so that, as in the
#: paper's Figure 8 experiment, a 200K-tuple Wisconsin relation
#: (~208-byte records, ~43 MB) cannot be cached fully locally under 5
#: threads: 43 MB / 5 ~= 8.6 MB just fits, 43 MB / 4 does not.
DATA_CACHE_FRACTION = 0.28


@dataclass
class Machine:
    """A shared-memory multiprocessor model.

    Attributes:
        processors: Number of processors available to the query.
        costs: Virtual-time cost model.
        models_memory: When True, an Allcache directory tracks segment
            residency and charges remote penalties; when False, memory
            is uniform (Encore-style) and no extra memory cost applies.
        data_cache_bytes: Per-processor local-cache capacity usable for
            relation data (only meaningful with ``models_memory``).
    """

    processors: int = KSR1_PROCESSORS
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    models_memory: bool = False
    data_cache_bytes: int = int(KSR1_LOCAL_CACHE_BYTES * DATA_CACHE_FRACTION)
    directory: AllcacheDirectory | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise MachineError(f"processors must be >= 1, got {self.processors}")
        if self.models_memory:
            self.directory = AllcacheDirectory(self.costs, self.data_cache_bytes)

    # -- constructors --------------------------------------------------------

    @classmethod
    def ksr1(cls, processors: int = KSR1_PROCESSORS) -> "Machine":
        """The paper's KSR1 with Allcache memory modelling on."""
        return cls(processors=processors, costs=DEFAULT_COSTS,
                   models_memory=True)

    @classmethod
    def uniform(cls, processors: int = KSR1_PROCESSORS,
                costs: CostModel | None = None) -> "Machine":
        """A conventional uniform shared-memory machine (Encore-style)."""
        return cls(processors=processors, costs=costs or DEFAULT_COSTS,
                   models_memory=False)

    # -- timing --------------------------------------------------------------

    def dilation(self, allocated_threads: int) -> float:
        """Slow-down factor when more threads than processors run.

        With ``n <= p`` threads the factor is 1.  Beyond, processors
        are time-shared — each thread runs at ``p/n`` speed — and a
        small context-switch tax applies, which is why the paper's
        speed-up curves dip slightly past 70 threads.
        """
        if allocated_threads <= self.processors:
            return 1.0
        ratio = allocated_threads / self.processors
        return ratio * (1.0 + self.costs.context_switch_tax * (ratio - 1.0))

    def memory_access(self, owner: int, segment_key: object,
                      size_bytes: int | None = None) -> float:
        """Extra cost of touching a data segment (0 on uniform machines)."""
        if self.directory is None:
            return 0.0
        return self.directory.access(owner, segment_key, size_bytes)

    def place_segment(self, segment_key: object, size_bytes: int,
                      owner: int = -1) -> None:
        """Declare a segment's initial cache residency (no-op if uniform)."""
        if self.directory is not None:
            self.directory.place(segment_key, size_bytes, owner)

    def shrink_cache_budget(self, factor: float) -> int:
        """Shrink the Allcache data budget to ``factor`` of its size.

        Models mid-run memory pressure (another workload claiming local
        cache): the directory capacity and every existing local cache
        shrink; over-full caches evict LRU segments on their next
        touch.  Returns the new per-cache budget (unchanged on uniform
        machines, where memory is not modelled).
        """
        if not 0.0 < factor < 1.0:
            raise MachineError(
                f"cache shrink factor must be in (0, 1), got {factor}")
        self.data_cache_bytes = int(self.data_cache_bytes * factor)
        if self.directory is not None:
            self.directory.shrink_to(self.data_cache_bytes)
        return self.data_cache_bytes
